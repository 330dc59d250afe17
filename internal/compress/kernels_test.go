package compress

import (
	"math"
	"sort"
	"sync"
	"testing"

	"a2sgd/internal/comm"
	"a2sgd/internal/tensor"
)

// Equivalence tests for the selection and decode kernels against the
// straightforward loops they replaced. They run on every build, so the
// purego CI step covers the portable fallbacks too.

// decodeRef is the per-element QSGD decoder: a bit-at-a-time unpack and one
// divide per element.
func decodeRef(words []uint32, dst []float32, s int, bitsPer uint) {
	norm := math.Float32frombits(words[0])
	if norm == 0 {
		tensor.Zero(dst)
		return
	}
	mask := uint32(1<<bitsPer) - 1
	bitPos := uint64(0)
	for i := range dst {
		w := 1 + bitPos/32
		off := uint(bitPos % 32)
		field := words[w] >> off
		if off+bitsPer > 32 && int(w+1) < len(words) {
			field |= words[w+1] << (32 - off)
		}
		field &= mask
		v := norm * float32(field>>1) / float32(s)
		if field&1 == 1 {
			v = -v
		}
		dst[i] = v
		bitPos += uint64(bitsPer)
	}
}

// ternDecodeRef is TernGrad's hand-written decode loop: 2-bit
// [sign][nonzero] fields, level 0 decoding to +0 whatever its sign.
func ternDecodeRef(words []uint32, dst []float32) {
	scale := math.Float32frombits(words[0])
	for i := range dst {
		field := (words[1+2*i/32] >> (uint(2*i) % 32)) & 3
		dst[i] = 0
		if field&2 != 0 {
			dst[i] = scale
			if field&1 != 0 {
				dst[i] = -scale
			}
		}
	}
}

// randStream builds a packed stream of n random bitsPer-wide fields — every
// code, including sign-set level-0 fields and levels above s — behind the
// given norm word.
func randStream(rng *tensor.RNG, n int, bitsPer uint, norm float32) []float32 {
	words := make([]uint32, 1+(n*int(bitsPer)+31)/32)
	words[0] = math.Float32bits(norm)
	fields := make([]uint32, n)
	for i := range fields {
		fields[i] = uint32(rng.Intn(1 << bitsPer))
	}
	tensor.PackFields(words[1:], fields, bitsPer, 0)
	out := make([]float32, len(words))
	for i, w := range words {
		out[i] = math.Float32frombits(w)
	}
	return out
}

func streamWords(data []float32) []uint32 {
	w := make([]uint32, len(data))
	for i, f := range data {
		w[i] = math.Float32bits(f)
	}
	return w
}

// oddSegs splits n elements into segments of 1..37 elements, so segment
// boundaries fall mid-word for every field width.
func oddSegs(rng *tensor.RNG, g []float32) [][]float32 {
	var segs [][]float32
	for lo := 0; lo < len(g); {
		hi := min(len(g), lo+1+rng.Intn(37))
		segs = append(segs, g[lo:hi])
		lo = hi
	}
	return segs
}

// exchangeStreams runs alg(rank).ExchangeView on p ranks, rank r publishing
// streams[r] and reconstructing into a multi-segment view over a buffer
// pre-filled with garbage (the exchange must zero it), and returns every
// rank's flattened result.
func exchangeStreams(t *testing.T, n int, streams [][]float32, alg func(rank int) Algorithm) [][]float32 {
	t.Helper()
	out := make([][]float32, len(streams))
	var mu sync.Mutex
	err := comm.RunGroup(len(streams), func(c *comm.Communicator) error {
		r := c.Rank()
		rng := tensor.NewRNG(uint64(70 + r))
		g := make([]float32, n)
		tensor.Fill(g, 7)
		v := tensor.NewVecView(oddSegs(rng, g)...)
		if err := alg(r).ExchangeView(Payload{Data: streams[r]}, v, c); err != nil {
			return err
		}
		mu.Lock()
		out[r] = g
		mu.Unlock()
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func requireBitwise(t *testing.T, what string, got, want []float32) {
	t.Helper()
	for i := range want {
		if math.Float32bits(got[i]) != math.Float32bits(want[i]) {
			t.Fatalf("%s: [%d] = %v (%08x), reference %v (%08x)",
				what, i, got[i], math.Float32bits(got[i]), want[i], math.Float32bits(want[i]))
		}
	}
}

// TestQSGDDecodeMatchesReference: the table-driven Decode returns the
// per-element decoder's bits for every code, at field widths that divide 32
// and widths whose fields straddle words, with a zero norm among the norms.
func TestQSGDDecodeMatchesReference(t *testing.T) {
	rng := tensor.NewRNG(61)
	for _, s := range []int{1, 2, 3, 4, 7, 15} {
		for _, n := range []int{1, 15, 16, 33, 1000} {
			o := DefaultOptions(n)
			o.QuantLevels = s
			q := NewQSGD(o)
			for _, norm := range []float32{0, 1, 0.37} {
				stream := randStream(rng, n, q.bitsPer, norm)
				got := make([]float32, n)
				want := make([]float32, n)
				q.Decode(stream, got)
				decodeRef(streamWords(stream), want, s, q.bitsPer)
				requireBitwise(t, "decode", got, want)
			}
		}
	}
}

// TestQSGDExchangeMatchesDecodeAXPY: the decode-average reconstruction into
// a multi-segment view is bitwise the old decode-into-scratch followed by
// the per-lane AXPY of every stream, over random streams from three ranks
// (one with a zero norm), for s ∈ {1, 2, 3, 4, 7, 15}.
func TestQSGDExchangeMatchesDecodeAXPY(t *testing.T) {
	const p, n = 3, 1001
	rng := tensor.NewRNG(62)
	for _, s := range []int{1, 2, 3, 4, 7, 15} {
		o := DefaultOptions(n)
		o.QuantLevels = s
		bitsPer := NewQSGD(o).bitsPer
		streams := make([][]float32, p)
		for r := range streams {
			streams[r] = randStream(rng, n, bitsPer, []float32{0.83, 0, 2.5e-3}[r])
		}
		want := make([]float32, n)
		buf := make([]float32, n)
		for _, st := range streams {
			decodeRef(streamWords(st), buf, s, bitsPer)
			tensor.AXPY(want, 1/float32(p), buf)
		}
		got := exchangeStreams(t, n, streams, func(int) Algorithm { return NewQSGD(o) })
		for r := range got {
			requireBitwise(t, "qsgd exchange", got[r], want)
		}
	}
}

// TestTernGradExchangeMatchesOldLoop: TernGrad's exchange, now the s = 1
// level exchange, reproduces its former decode loop plus AXPY bitwise —
// including sign-set zero fields, which the old loop decoded as +0.
func TestTernGradExchangeMatchesOldLoop(t *testing.T) {
	const p, n = 2, 777
	rng := tensor.NewRNG(63)
	streams := [][]float32{randStream(rng, n, 2, 0.61), randStream(rng, n, 2, 3e-5)}
	want := make([]float32, n)
	buf := make([]float32, n)
	for _, st := range streams {
		ternDecodeRef(streamWords(st), buf)
		tensor.AXPY(want, 1/float32(p), buf)
	}
	got := exchangeStreams(t, n, streams, func(int) Algorithm { return NewTernGrad(DefaultOptions(n)) })
	for r := range got {
		requireBitwise(t, "terngrad exchange", got[r], want)
	}
}

// topKRef is the sort reference with the tie rule spelled out: order by
// |v| descending, ties by index ascending, take the first k, and return
// them in ascending index order (the payload order).
func topKRef(v []float32, k int) []int32 {
	ref := make([]int32, len(v))
	for i := range ref {
		ref[i] = int32(i)
	}
	sort.SliceStable(ref, func(a, b int) bool {
		return math.Abs(float64(v[ref[a]])) > math.Abs(float64(v[ref[b]]))
	})
	ref = ref[:k]
	sort.Slice(ref, func(a, b int) bool { return ref[a] < ref[b] })
	return ref
}

// TestTopKTieRule pins the radix select to the sort reference index for
// index on tie-heavy inputs: an all-zero vector (±0 mixed), a handful of
// repeated ±magnitudes, values sharing the top radix digit but not the
// lower ones, and random data; k = 1, k = n, mid k, and n below 16.
func TestTopKTieRule(t *testing.T) {
	rng := tensor.NewRNG(64)
	inputs := []struct {
		name string
		gen  func(n int) []float32
	}{
		{"zeros", func(n int) []float32 {
			v := make([]float32, n)
			for i := 0; i < n; i += 3 {
				v[i] = negZero
			}
			return v
		}},
		{"repeated", func(n int) []float32 {
			mags := []float32{0.5, 0.25, 0.5, 1e-3}
			v := make([]float32, n)
			for i := range v {
				v[i] = mags[rng.Intn(len(mags))]
				if rng.Intn(2) == 0 {
					v[i] = -v[i]
				}
			}
			return v
		}},
		{"one-digit", func(n int) []float32 {
			// 1.0 + j ulp: identical top 11 key bits, distinct low bits,
			// with repeats so the last level sees ties too.
			v := make([]float32, n)
			for i := range v {
				v[i] = math.Float32frombits(math.Float32bits(1) + uint32(rng.Intn(1+n/4)))
			}
			return v
		}},
		{"random", func(n int) []float32 { return randGrad(uint64(n), n) }},
	}
	for _, in := range inputs {
		for _, n := range []int{1, 2, 7, 15, 16, 100, 5000} {
			for _, k := range []int{1, 2, n / 3, n - 1, n} {
				if k < 1 || k > n {
					continue
				}
				v := in.gen(n)
				got := topKIndices(v, k)
				want := topKRef(v, k)
				if len(got) != len(want) {
					t.Fatalf("%s n=%d k=%d: %d indices, want %d", in.name, n, k, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("%s n=%d k=%d: index[%d] = %d, reference %d", in.name, n, k, i, got[i], want[i])
					}
				}
			}
		}
	}
}
