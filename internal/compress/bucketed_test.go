package compress

import (
	"testing"

	"a2sgd/internal/comm"
)

// syncBuckets encodes and exchanges every bucket of g in order through the
// per-bucket surface, the way the training runtime's synchronous step does.
func syncBuckets(bk *Bucketed, g []float32, c *comm.Communicator) error {
	for b := 0; b < bk.NumBuckets(); b++ {
		gb := bk.BucketSlice(b, g)
		if err := bk.ExchangeBucket(b, bk.EncodeBucket(b, gb), gb, c); err != nil {
			return err
		}
	}
	return nil
}

// TestBucketedDenseMatchesWholeVector: per-bucket dense allreduce with
// recursive doubling is bitwise identical to the whole-vector allreduce
// (every element sees the same partner-addition order regardless of vector
// length), so the bucketed composer must reproduce the dense baseline exactly.
func TestBucketedDenseMatchesWholeVector(t *testing.T) {
	const p, n = 4, 1000
	bounds := []int{0, 130, 500, 730, n}
	mk := func(rank int) []float32 {
		g := make([]float32, n)
		for i := range g {
			g[i] = float32((rank+1)*(i%89)) * 0.01
		}
		return g
	}
	want := make([]float32, n)
	err := comm.RunGroup(p, func(c *comm.Communicator) error {
		g := mk(c.Rank())
		d := NewDense(Options{N: n, Allreduce: comm.AlgoRecursiveDoubling})
		pl := d.Encode(g)
		if err := d.Exchange(pl, g, c); err != nil {
			return err
		}
		if c.Rank() == 0 {
			copy(want, g)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	err = comm.RunGroup(p, func(c *comm.Communicator) error {
		g := mk(c.Rank())
		bk := NewBucketed(bounds, func(b, bn int) Algorithm {
			return NewDense(Options{N: bn, Allreduce: comm.AlgoRecursiveDoubling})
		})
		if err := syncBuckets(bk, g, c); err != nil {
			return err
		}
		for i := range g {
			if g[i] != want[i] {
				t.Errorf("rank %d elem %d: %v != %v", c.Rank(), i, g[i], want[i])
				break
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
}

func TestBucketedAccountingAggregates(t *testing.T) {
	bounds := []int{0, 10, 30, 100}
	bk := NewBucketed(bounds, func(b, bn int) Algorithm {
		return NewQSGD(Options{N: bn, QuantLevels: 4, Seed: uint64(b + 1)})
	})
	if bk.NumBuckets() != 3 {
		t.Fatalf("buckets %d", bk.NumBuckets())
	}
	per := bk.PayloadBytesPerBucket()
	var sum int64
	for _, b := range per {
		sum += b
	}
	if got := bk.PayloadBytes(); got != sum {
		t.Fatalf("PayloadBytes %d != per-bucket sum %d", got, sum)
	}
	// Each bucket's encoded bits match its analytic payload.
	g := make([]float32, 100)
	for i := range g {
		g[i] = float32(i%7) - 3
	}
	for b := 0; b < 3; b++ {
		if bits := bk.EncodeBucket(b, bk.BucketSlice(b, g)).Bits; bits != 8*per[b] {
			t.Fatalf("bucket %d: %d bits encoded, analytic payload %d B", b, bits, per[b])
		}
	}
	if name := bk.Name(); name != "qsgd+bucketed[3]" {
		t.Fatalf("name %q", name)
	}
}

func TestBucketedSingleBucketKeepsName(t *testing.T) {
	bk := NewBucketed([]int{0, 50}, func(b, bn int) Algorithm {
		return NewDense(Options{N: bn})
	})
	if bk.Name() != "dense" {
		t.Fatalf("single-bucket name %q, want dense", bk.Name())
	}
}

// TestBucketedSparsifierRoundTrip: per-bucket Top-K with error feedback must
// synchronize without error and leave every rank with identical gradients.
func TestBucketedSparsifierRoundTrip(t *testing.T) {
	const p, n = 3, 400
	bounds := []int{0, 150, 280, n}
	results := make([][]float32, p)
	err := comm.RunGroup(p, func(c *comm.Communicator) error {
		g := make([]float32, n)
		for i := range g {
			g[i] = float32((c.Rank()+1)*(i%31)) * 0.02
		}
		bk := NewBucketed(bounds, func(b, bn int) Algorithm {
			return NewTopK(Options{N: bn, Density: 0.05})
		})
		if err := syncBuckets(bk, g, c); err != nil {
			return err
		}
		results[c.Rank()] = g
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for r := 1; r < p; r++ {
		for i := range results[0] {
			if results[0][i] != results[r][i] {
				t.Fatalf("rank %d diverged at %d: %v vs %v", r, i, results[r][i], results[0][i])
			}
		}
	}
}
