package models

import (
	"testing"

	"a2sgd/internal/tensor"
)

// TestLSTMStepZeroAlloc pins the LSTM training step (Forward plus
// BackwardInterleaved) at zero allocations once its workspace is warm:
// the BPTT caches, the temporaries and the packed weights are all reused.
// AllocsPerRun measures at GOMAXPROCS=1; the reduced model's products are
// below the row-parallel threshold at any GOMAXPROCS.
func TestLSTMStepZeroAlloc(t *testing.T) {
	m := buildReduced(t, "lstm")
	rng := tensor.NewRNG(3)
	toks := make([][]int, 16)
	for b := range toks {
		toks[b] = make([]int, 12)
		for i := range toks[b] {
			toks[b][i] = rng.Intn(64)
		}
	}
	batch := Batch{Tokens: toks}
	ready := 0
	onReady := func(lo int) { ready++ }
	m.StepInterleaved(batch, onReady)
	// An evaluation pass at another batch size must not evict the
	// training workspace.
	m.Eval(Batch{Tokens: toks[:5]})
	if allocs := testing.AllocsPerRun(20, func() { m.StepInterleaved(batch, onReady) }); allocs != 0 {
		t.Fatalf("warm LSTM StepInterleaved: %v allocs, want 0", allocs)
	}
	if ready == 0 {
		t.Fatal("onReady never called")
	}
}
