package tensor

import (
	"fmt"
	"math"
	"testing"
)

// The matrix-product kernels promise the exact bits of the loops below:
// MatMul and MatMulATB the zero-then-AXPY sequence (k ascending, float32
// multiply then add, zero entries of a skipped), MatMulABT one float32(Dot)
// per element. These references are written out here, independent of the
// kernels, and every comparison is bitwise.

func refMatMul(dst, a, b *Mat) {
	for i := 0; i < a.Rows; i++ {
		di := dst.Row(i)
		clear(di)
		for k, av := range a.Row(i) {
			if av == 0 {
				continue
			}
			for j, bv := range b.Row(k) {
				di[j] += float32(av * bv)
			}
		}
	}
}

func refMatMulATB(dst, a, b *Mat) {
	clear(dst.Data)
	for k := 0; k < a.Rows; k++ {
		for i, av := range a.Row(k) {
			if av == 0 {
				continue
			}
			di := dst.Row(i)
			for j, bv := range b.Row(k) {
				di[j] += float32(av * bv)
			}
		}
	}
}

func refMatMulABT(dst, a, b *Mat) {
	for i := 0; i < a.Rows; i++ {
		for j := 0; j < b.Rows; j++ {
			var s float64
			for k, av := range a.Row(i) {
				s += float64(av) * float64(b.At(j, k))
			}
			dst.Set(i, j, float32(s))
		}
	}
}

// refAccumulate is the scratch-then-Add form the accumulating kernels
// replace.
func refAccumulate(dst *Mat, product func(scratch *Mat)) {
	scratch := NewMat(dst.Rows, dst.Cols)
	product(scratch)
	for i, v := range scratch.Data {
		dst.Data[i] += v
	}
}

// gemmMat draws a matrix with about a quarter exact zeros, some of them
// −0, the rest mixed-magnitude values of either sign.
func gemmMat(rng *RNG, rows, cols int) *Mat {
	m := NewMat(rows, cols)
	for i := range m.Data {
		switch rng.Intn(8) {
		case 0:
			m.Data[i] = 0
		case 1:
			m.Data[i] = float32(math.Copysign(0, -1))
		default:
			m.Data[i] = (rng.Float32() - 0.5) * 4
		}
	}
	return m
}

func sameBits(x, y float32) bool {
	if x != x && y != y {
		return true
	}
	return math.Float32bits(x) == math.Float32bits(y)
}

func requireSameBits(t *testing.T, label string, got, want *Mat) {
	t.Helper()
	for i := range want.Data {
		if !sameBits(got.Data[i], want.Data[i]) {
			t.Fatalf("%s: element %d = %v (%#x), want %v (%#x)", label, i,
				got.Data[i], math.Float32bits(got.Data[i]), want.Data[i], math.Float32bits(want.Data[i]))
		}
	}
}

// gemmDims covers empty matrices, every column-block tail of the kernels
// (16/4/1 and 8/2/1) and a multi-block width.
var gemmDims = []int{0, 1, 7, 8, 15, 16, 17, 33, 128}

func TestMatMulKernelsMatchReference(t *testing.T) {
	rng := NewRNG(21)
	for _, m := range gemmDims {
		for _, n := range gemmDims {
			for _, p := range gemmDims {
				label := fmt.Sprintf("m=%d n=%d p=%d", m, n, p)
				checkGemmCase(t, rng, label, m, n, p)
			}
		}
	}
}

// checkGemmCase compares AB, AB+=, AᵀB, AᵀB+= and ABᵀ (pooled and packed)
// for an m×n left operand against the references.
func checkGemmCase(t *testing.T, rng *RNG, label string, m, n, p int) {
	t.Helper()
	a := gemmMat(rng, m, n)
	b := gemmMat(rng, n, p)
	got, want := NewMat(m, p), NewMat(m, p)
	// Stale contents must be overwritten, not accumulated.
	Fill(got.Data, 3)
	MatMul(got, a, b)
	refMatMul(want, a, b)
	requireSameBits(t, "MatMul "+label, got, want)

	acc := gemmMat(rng, m, p)
	wantAcc := acc.Clone()
	MatMulAdd(acc, a, b)
	refAccumulate(wantAcc, func(s *Mat) { refMatMul(s, a, b) })
	requireSameBits(t, "MatMulAdd "+label, acc, wantAcc)

	// AᵀB with a as m×n: dst is n×p, b is m×p.
	bm := gemmMat(rng, m, p)
	gotT, wantT := NewMat(n, p), NewMat(n, p)
	Fill(gotT.Data, 3)
	MatMulATB(gotT, a, bm)
	refMatMulATB(wantT, a, bm)
	requireSameBits(t, "MatMulATB "+label, gotT, wantT)

	accT := gemmMat(rng, n, p)
	wantAccT := accT.Clone()
	MatMulATBAdd(accT, a, bm)
	refAccumulate(wantAccT, func(s *Mat) { refMatMulATB(s, a, bm) })
	requireSameBits(t, "MatMulATBAdd "+label, accT, wantAccT)

	// ABᵀ with b as p×n.
	bp := gemmMat(rng, p, n)
	gotD, wantD := NewMat(m, p), NewMat(m, p)
	Fill(gotD.Data, 3)
	MatMulABT(gotD, a, bp)
	refMatMulABT(wantD, a, bp)
	requireSameBits(t, "MatMulABT "+label, gotD, wantD)

	bt := NewMat(n, p)
	Transpose(bt, bp)
	gotP := NewMat(m, p)
	MatMulABTPacked(gotP, a, bt)
	requireSameBits(t, "MatMulABTPacked "+label, gotP, wantD)
}

// TestMatMulRowParallelMatchesReference runs shapes past the row-parallel
// threshold (m·n·p ≥ grainSize·8), where rows are split across goroutines.
func TestMatMulRowParallelMatchesReference(t *testing.T) {
	rng := NewRNG(22)
	m, n, p := 70, 48, 65
	if m*n*p < grainSize*8 {
		t.Fatalf("shape %d×%d×%d below the parallel threshold", m, n, p)
	}
	checkGemmCase(t, rng, "parallel", m, n, p)
}

// TestMatMulZeroSkipsNonFinite pins the zero-skip rule: a zero (either
// sign) in a contributes nothing even against ±Inf or NaN in b, while a NaN
// in a is multiplied in. MatMulABT has no skip: its 0·Inf is NaN, as in Dot.
func TestMatMulZeroSkipsNonFinite(t *testing.T) {
	inf, nan := float32(math.Inf(1)), float32(math.NaN())
	negZero := float32(math.Copysign(0, -1))
	// a is 2×20: both rows have zeros at k = 1 and k = 2, where b is
	// non-finite; row 1 also has a NaN at k = 3, where b is finite.
	a := NewMat(2, 20)
	for k := range a.Cols {
		a.Set(0, k, 1)
		a.Set(1, k, 1)
	}
	for i := range a.Rows {
		a.Set(i, 1, 0)
		a.Set(i, 2, negZero)
	}
	a.Set(1, 3, nan)
	b := NewMat(20, 23) // every column block width: 16, 4, then 1s
	for j := range b.Cols {
		for k := range b.Rows {
			b.Set(k, j, 0.5)
		}
		b.Set(1, j, inf)
		b.Set(2, j, float32(math.Inf(-1)))
		if j%2 == 0 {
			b.Set(1, j, nan)
		}
	}
	got, want := NewMat(2, 23), NewMat(2, 23)
	MatMul(got, a, b)
	refMatMul(want, a, b)
	requireSameBits(t, "MatMul", got, want)
	for j := range got.Cols {
		if v := got.At(0, j); v != 9 {
			t.Fatalf("row 0 col %d = %v, want 9 (zeros of a must skip Inf/NaN)", j, v)
		}
		if v := got.At(1, j); v == v {
			t.Fatalf("row 1 col %d = %v, want NaN (a NaN in a is not skipped)", j, v)
		}
	}

	// The same operands through AᵀB: dst row i reads a's column i.
	at := NewMat(20, 2)
	Transpose(at, a)
	gotT, wantT := NewMat(2, 23), NewMat(2, 23)
	MatMulATB(gotT, at, b)
	refMatMulATB(wantT, at, b)
	requireSameBits(t, "MatMulATB", gotT, wantT)
	requireSameBits(t, "MatMulATB vs MatMul", gotT, got)

	// ABᵀ: bᵀ rows carry the non-finite values, and 0·Inf poisons the sum.
	bT := NewMat(23, 20)
	Transpose(bT, b)
	gotD, wantD := NewMat(2, 23), NewMat(2, 23)
	MatMulABT(gotD, a, bT)
	refMatMulABT(wantD, a, bT)
	requireSameBits(t, "MatMulABT", gotD, wantD)
	if v := gotD.At(0, 1); v == v {
		t.Fatalf("MatMulABT row 0 col 1 = %v, want NaN (no zero-skip)", v)
	}
}

func TestTransposeRoundTrip(t *testing.T) {
	rng := NewRNG(23)
	for _, dims := range [][2]int{{0, 3}, {1, 1}, {3, 70}, {33, 65}} {
		src := gemmMat(rng, dims[0], dims[1])
		tr := NewMat(dims[1], dims[0])
		Transpose(tr, src)
		for i := range src.Rows {
			for j := range src.Cols {
				if !sameBits(tr.At(j, i), src.At(i, j)) {
					t.Fatalf("%v: (%d,%d) not transposed", dims, i, j)
				}
			}
		}
	}
}
