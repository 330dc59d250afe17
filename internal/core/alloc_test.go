package core

import (
	"runtime"
	"runtime/debug"
	"testing"

	"a2sgd/internal/comm"
	"a2sgd/internal/compress"
	"a2sgd/internal/tensor"
)

// TestEncodeZeroAllocSteadyState: A2SGD's Encode — two-level means plus the
// Faithful error vector — runs allocation-free on a warm instance, with the
// two-scalar payload backed by instance scratch (the Payload contract in
// compress.go).
func TestEncodeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	const n = 1 << 18
	g := make([]float32, n)
	tensor.NewRNG(17).NormVec(g, 0, 0.05)
	for _, mode := range []Mode{Faithful, Fused} {
		a := New(n, WithMode(mode))
		a.Encode(g)
		defer debug.SetGCPercent(debug.SetGCPercent(-1))
		if allocs := testing.AllocsPerRun(10, func() { a.Encode(g) }); allocs != 0 {
			t.Errorf("mode %v: %.1f allocs per steady-state Encode, want 0", mode, allocs)
		}
	}
}

// TestExchangeZeroAllocSteadyState: A2SGD's ExchangeView — the two-scalar
// allreduce plus the sign-select reconstruction into a multi-segment view —
// runs allocation-free on a warm two-rank inproc fabric, in both modes. Rank
// 1 mirrors every exchange from its own goroutine until the fabric shuts
// down; its allocations land in the same global counter.
func TestExchangeZeroAllocSteadyState(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	const n = 1 << 16
	for _, mode := range []Mode{Faithful, Fused} {
		f := comm.NewInprocFabric(2)
		cs := f.Communicators()
		algs := make([]*A2SGD, 2)
		payloads := make([]compress.Payload, 2)
		views := make([]*tensor.VecView, 2)
		for r := range algs {
			g := make([]float32, n)
			tensor.NewRNG(uint64(17+r)).NormVec(g, 0, 0.05)
			views[r] = tensor.NewVecView(g[:n/3], g[n/3:n/2+7], g[n/2+7:])
			algs[r] = New(n, WithMode(mode))
			payloads[r] = algs[r].EncodeView(views[r])
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
		for i := 0; i < 3; i++ {
			exchange()
		}
		gc := debug.SetGCPercent(-1)
		allocs := testing.AllocsPerRun(20, exchange)
		debug.SetGCPercent(gc)
		f.Shutdown()
		<-peerDone
		if allocs != 0 {
			t.Errorf("mode %v: %.1f allocs per steady-state ExchangeView, want 0", mode, allocs)
		}
	}
}

// TestNewDefersErrorVector: building an instance commits no bucket-length
// memory in either mode; the Faithful error vector is allocated by the
// first Encode.
func TestNewDefersErrorVector(t *testing.T) {
	if raceEnabled {
		t.Skip("race-detector instrumentation allocates; run without -race")
	}
	const n = 1 << 20
	for _, mode := range []Mode{Faithful, Fused} {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		a := New(n, WithMode(mode))
		runtime.ReadMemStats(&after)
		if b := after.TotalAlloc - before.TotalAlloc; b >= n {
			t.Errorf("mode %v: New allocated %d bytes for %d elements", mode, b, n)
		}
		g := make([]float32, n)
		a.Encode(g)
		if mode == Faithful && len(a.errorVec) != n {
			t.Errorf("Faithful: error vector has %d elements after Encode, want %d", len(a.errorVec), n)
		}
	}
}
