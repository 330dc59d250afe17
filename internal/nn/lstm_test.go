package nn

import (
	"encoding/binary"
	"hash/crc64"
	"math"
	"runtime"
	"testing"

	"a2sgd/internal/tensor"
)

// lstmTokens draws a B×(T+1) token batch.
func lstmTokens(rng *tensor.RNG, vocab, B, T int) [][]int {
	toks := make([][]int, B)
	for b := range toks {
		toks[b] = make([]int, T+1)
		for i := range toks[b] {
			toks[b][i] = rng.Intn(vocab)
		}
	}
	return toks
}

// TestLSTMWorkspaceReuse checks that the reused forward/BPTT workspace
// carries nothing between steps: after a step at another shape (which
// reallocates it), a step at this shape (which reuses it) and an
// evaluation between Forward and Backward, a step's loss and gradients are
// bitwise those of a fresh model.
func TestLSTMWorkspaceReuse(t *testing.T) {
	rng := tensor.NewRNG(6)
	small, other, eval := lstmTokens(rng, 11, 3, 4), lstmTokens(rng, 11, 5, 7), lstmTokens(rng, 11, 2, 3)
	step := func(m *LSTMLM, toks [][]int) (float64, []float32) {
		for _, p := range m.Params() {
			tensor.Zero(p.G)
		}
		loss := m.Forward(toks, true)
		m.Forward(eval, false)
		m.Backward()
		var g []float32
		for _, p := range m.Params() {
			g = append(g, p.G...)
		}
		return loss, g
	}
	fresh := NewDeepLSTMLM(tensor.NewRNG(2), 11, 5, 6, 2)
	wantLoss, wantG := step(fresh, small)

	used := NewDeepLSTMLM(tensor.NewRNG(2), 11, 5, 6, 2)
	step(used, other)
	step(used, small)
	gotLoss, gotG := step(used, small)
	if gotLoss != wantLoss {
		t.Fatalf("loss %v after reuse, fresh model %v", gotLoss, wantLoss)
	}
	for i := range wantG {
		if math.Float32bits(gotG[i]) != math.Float32bits(wantG[i]) {
			t.Fatalf("gradient %d = %v after reuse, fresh model %v", i, gotG[i], wantG[i])
		}
	}
	// Backward without a pending training Forward leaves the gradients alone.
	used.Backward()
	for i, p := range used.Params()[0].G {
		if p != gotG[i] {
			t.Fatal("second Backward changed the gradients")
		}
	}
}

// TestLSTMGradientsGolden pins a two-layer LSTM's loss and gradients over
// two training steps (the second reusing the workspace the first sized) to
// digests recorded from the implementation that allocated every matrix per
// timestep and multiplied with AXPY and Dot loops. Bitwise on amd64, SIMD
// and purego alike; other architectures may fuse the cell's multiply-adds.
func TestLSTMGradientsGolden(t *testing.T) {
	if runtime.GOARCH != "amd64" {
		t.Skip("digests recorded on amd64")
	}
	m := NewDeepLSTMLM(tensor.NewRNG(8), 13, 7, 9, 2)
	rng := tensor.NewRNG(9)
	want := []uint64{0x3b8c83330408af1e, 0xe0b510bedf9df1e5}
	for step, w := range want {
		for _, p := range m.Params() {
			tensor.Zero(p.G)
		}
		toks := lstmTokens(rng, 13, 6, 9)
		loss := m.Forward(toks, true)
		m.Backward()
		h := crc64.New(crc64.MakeTable(crc64.ECMA))
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], math.Float64bits(loss))
		h.Write(b[:])
		for _, p := range m.Params() {
			for _, g := range p.G {
				binary.LittleEndian.PutUint32(b[:4], math.Float32bits(g))
				h.Write(b[:4])
			}
		}
		if got := h.Sum64(); got != w {
			t.Errorf("step %d: digest %#x, want %#x", step, got, w)
		}
		// Move the weights so the second step sees new values.
		for _, p := range m.Params() {
			tensor.AXPY(p.W, -0.5, p.G)
		}
	}
}
