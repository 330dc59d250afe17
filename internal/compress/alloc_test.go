package compress

import (
	"runtime"
	"runtime/debug"
	"testing"

	"a2sgd/internal/comm"
	"a2sgd/internal/tensor"
)

// The zero-allocation contract (ARCHITECTURE.md "Memory discipline & hot
// path"): after a warm-up call grows the instance scratch, Encode on the
// paper's compression set never touches the allocator. GC is paused during
// the measurements so a collection can't recycle scratch mid-run and charge
// a re-grow to the steady state.

// encodeAllocs measures steady-state allocations per Encode on a warm
// instance of the named algorithm over a vgg16-scale bucket.
func encodeAllocs(t *testing.T, name string, warmups int) float64 {
	t.Helper()
	const n = 1 << 18
	o := DefaultOptions(n)
	o.Seed = 3
	alg, err := Build(&Spec{Name: name}, o)
	if err != nil {
		t.Fatal(err)
	}
	g := randGrad(17, n)
	for i := 0; i < warmups; i++ {
		alg.Encode(g)
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	return testing.AllocsPerRun(10, func() { alg.Encode(g) })
}

func TestEncodeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	// gaussiank's selected count varies around k step to step, so it gets a
	// few warm-ups to reach its high-water selection size; the fixed-size
	// selections are steady after one.
	for _, tc := range []struct {
		name    string
		warmups int
	}{
		{"topk", 1},
		{"gaussiank", 5},
		{"qsgd", 1},
		{"qsgd-elias", 1},
		{"randk", 1},
		{"dgc", 1},
		{"terngrad", 1},
	} {
		// a2sgd self-registers from internal/core (not linked into this
		// test binary); its Encode allocation test lives in that package.
		if a := encodeAllocs(t, tc.name, tc.warmups); a != 0 {
			t.Errorf("%s: %.1f allocs per steady-state Encode, want 0", tc.name, a)
		}
	}
}

// TestDecodeZeroAllocSteadyState: QSGD's Decode recycles its word scratch.
func TestDecodeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	const n = 1 << 18
	o := DefaultOptions(n)
	o.Seed = 3
	q := NewQSGD(o)
	g := randGrad(17, n)
	p := q.Encode(g)
	stream := append([]float32(nil), p.Data...) // retained copy (payload contract)
	dst := make([]float32, n)
	q.Decode(stream, dst)
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	if a := testing.AllocsPerRun(10, func() { q.Decode(stream, dst) }); a != 0 {
		t.Errorf("qsgd decode: %.1f allocs per steady-state run, want 0", a)
	}
}

// exchangeAllocs measures rank 0's steady-state allocations per ExchangeView
// of the named algorithm into a multi-segment view, on a warm two-rank
// inproc fabric. Rank 1 mirrors every exchange from its own goroutine until
// the fabric shuts down; its allocations land in the same global counter,
// so a nonzero result on either side fails.
func exchangeAllocs(t *testing.T, name string) float64 {
	t.Helper()
	const n = 1 << 16
	f := comm.NewInprocFabric(2)
	defer f.Shutdown()
	cs := f.Communicators()
	algs := make([]Algorithm, 2)
	payloads := make([]Payload, 2)
	views := make([]*tensor.VecView, 2)
	for r := range algs {
		o := DefaultOptions(n)
		o.Seed = uint64(3 + r)
		a, err := Build(&Spec{Name: name}, o)
		if err != nil {
			t.Fatal(err)
		}
		g := randGrad(uint64(17+r), n)
		p := a.Encode(g)
		p.Data = append([]float32(nil), p.Data...) // retained copy (payload contract)
		algs[r], payloads[r] = a, p
		views[r] = tensor.NewVecView(splitSegs(uint64(5+r), g)...)
	}
	peerDone := make(chan struct{})
	go func() {
		defer close(peerDone)
		for algs[1].ExchangeView(payloads[1], views[1], cs[1]) == nil {
		}
	}()
	exchange := func() {
		if err := algs[0].ExchangeView(payloads[0], views[0], cs[0]); err != nil {
			t.Fatal(err)
		}
	}
	// Warm-up: grow the instance scratch, the communicator's and the
	// fabric's transit pool.
	for i := 0; i < 3; i++ {
		exchange()
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	allocs := testing.AllocsPerRun(20, exchange)
	f.Shutdown()
	<-peerDone
	return allocs
}

// TestExchangeZeroAllocSteadyState pins the exchange half of the
// zero-allocation contract: a warm ExchangeView — the sparse allgatherv
// scatter-add and the quantized decode-average — never touches the
// allocator. (a2sgd's exchange is pinned in internal/core.)
func TestExchangeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	for _, name := range []string{"topk", "qsgd", "terngrad"} {
		if a := exchangeAllocs(t, name); a != 0 {
			t.Errorf("%s: %.1f allocs per steady-state ExchangeView, want 0", name, a)
		}
	}
}

// constructBytes is the heap allocated while building one instance of the
// named algorithm for an n-element bucket.
func constructBytes(t *testing.T, name string, n int) uint64 {
	t.Helper()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := Build(&Spec{Name: name}, DefaultOptions(n)); err != nil {
		t.Fatal(err)
	}
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestConstructionDefersBucketBuffers pins that building an instance
// commits no bucket-length memory: the error-feedback residual and sum and
// Top-K's candidate buffer are allocated by the first Encode (see
// errorFeedback), so a new instance costs well under a byte per element.
func TestConstructionDefersBucketBuffers(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	const n = 1 << 20
	for _, name := range []string{"topk", "gaussiank", "randk", "qsgd", "terngrad", "dense"} {
		if b := constructBytes(t, name, n); b >= n {
			t.Errorf("%s: construction allocated %d bytes for %d elements", name, b, n)
		}
	}
}
