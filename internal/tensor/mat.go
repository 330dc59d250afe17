package tensor

import "sync"

// Mat is a dense row-major float32 matrix. It is the workhorse of the NN
// framework: fully connected layers, im2col convolution and LSTM gate
// computations all reduce to Mat products.
type Mat struct {
	Rows, Cols int
	Data       Vec // len == Rows*Cols, row-major
}

// NewMat allocates a zeroed Rows×Cols matrix.
func NewMat(rows, cols int) *Mat {
	if rows < 0 || cols < 0 {
		panic("tensor: negative matrix dimension")
	}
	return &Mat{Rows: rows, Cols: cols, Data: make(Vec, rows*cols)}
}

// MatFrom wraps an existing slice as a Rows×Cols matrix (no copy).
func MatFrom(rows, cols int, data Vec) *Mat {
	if len(data) != rows*cols {
		panic("tensor: MatFrom length mismatch")
	}
	return &Mat{Rows: rows, Cols: cols, Data: data}
}

// At returns element (r, c).
func (m *Mat) At(r, c int) float32 { return m.Data[r*m.Cols+c] }

// Set assigns element (r, c).
func (m *Mat) Set(r, c int, v float32) { m.Data[r*m.Cols+c] = v }

// Row returns row r as a subslice (no copy).
func (m *Mat) Row(r int) Vec { return m.Data[r*m.Cols : (r+1)*m.Cols] }

// Clone returns a deep copy.
func (m *Mat) Clone() *Mat {
	return &Mat{Rows: m.Rows, Cols: m.Cols, Data: Clone(m.Data)}
}

// MatMul computes dst = a × b. dst must be pre-allocated with shape
// a.Rows × b.Cols and must not alias a or b. Each output element is the
// float32 sum over k in ascending order of a[i][k]·b[k][j] (multiply, then
// add, two roundings), starting from +0 and skipping every k with
// a[i][k] == 0, so a zero in a never meets an Inf or NaN in b (a NaN in a
// is not skipped). The SSE2 kernel keeps 16 output columns in registers
// across the whole k loop; the scalar fallback performs the same
// operations, so both builds give the same bits. Large products run
// row-parallel.
func MatMul(dst, a, b *Mat) {
	checkMatMul(dst, a, b)
	matMul(dst, a, b, false)
}

// MatMulAdd computes dst += a × b: the MatMul sum for each element, then
// one add into dst — bitwise MatMul into a scratch matrix followed by Add.
func MatMulAdd(dst, a, b *Mat) {
	checkMatMul(dst, a, b)
	matMul(dst, a, b, true)
}

func checkMatMul(dst, a, b *Mat) {
	if a.Cols != b.Rows || dst.Rows != a.Rows || dst.Cols != b.Cols {
		panic("tensor: MatMul shape mismatch")
	}
}

func matMul(dst, a, b *Mat, add bool) {
	m, k, n := a.Rows, a.Cols, b.Cols
	if m*k*n < grainSize*8 {
		gemm(dst.Data, a.Data, b.Data, m, k, n, k, 1, add)
		return
	}
	d, x, y := dst.Data, a.Data, b.Data
	ParallelFor(m, func(lo, hi int) {
		gemm(d[lo*n:hi*n], x[lo*k:hi*k], y, hi-lo, k, n, k, 1, add)
	})
}

// MatMulATB computes dst = aᵀ × b without materializing the transpose.
// Shapes: a is m×n, b is m×p, dst is n×p. It is MatMul's kernel reading a
// with a column stride: the same k-ascending sum and zero-skip per element.
func MatMulATB(dst, a, b *Mat) {
	checkMatMulATB(dst, a, b)
	gemm(dst.Data, a.Data, b.Data, a.Cols, a.Rows, b.Cols, 1, a.Cols, false)
}

// MatMulATBAdd computes dst += aᵀ × b: the MatMulATB sum for each element,
// then one add into dst — bitwise MatMulATB into a scratch matrix followed
// by Add. Gradient accumulation (dW += doutᵀ·x) uses it.
func MatMulATBAdd(dst, a, b *Mat) {
	checkMatMulATB(dst, a, b)
	gemm(dst.Data, a.Data, b.Data, a.Cols, a.Rows, b.Cols, 1, a.Cols, true)
}

func checkMatMulATB(dst, a, b *Mat) {
	if a.Rows != b.Rows || dst.Rows != a.Cols || dst.Cols != b.Cols {
		panic("tensor: MatMulATB shape mismatch")
	}
}

// gemm computes the m×n row-major dst[i][j] = Σ_kk a[i·ars + kk·aks]·b[kk·n + j]
// (or dst[i][j] + that sum when add), k-ascending in float32 with zero
// entries of a skipped — the contract documented on MatMul.
func gemm(dst, a, b Vec, m, k, n, ars, aks int, add bool) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		gemmScalar(dst, a, b, m, k, n, ars, aks, add)
		return
	}
	gemmArch(dst, a, b, m, k, n, ars, aks, add)
}

// gemmScalar is the portable gemm. The explicit float32 conversion of each
// product rounds it before the add, as the SSE2 MULPS/ADDPS pair does, and
// keeps the compiler from fusing the two into an FMA.
func gemmScalar(dst, a, b Vec, m, k, n, ars, aks int, add bool) {
	var acc [16]float32
	for i := 0; i < m; i++ {
		for j0 := 0; j0 < n; j0 += len(acc) {
			c := acc[:min(len(acc), n-j0)]
			clear(c)
			for kk := 0; kk < k; kk++ {
				av := a[i*ars+kk*aks]
				if av == 0 {
					continue
				}
				for j, bv := range b[kk*n+j0 : kk*n+j0+len(c)] {
					c[j] += float32(av * bv)
				}
			}
			d := dst[i*n+j0 : i*n+j0+len(c)]
			if add {
				for j := range d {
					d[j] += c[j]
				}
			} else {
				copy(d, c)
			}
		}
	}
}

// packPool holds MatMulABT's transposed-b buffers, so a steady stream of
// products packs into reused memory.
var packPool = sync.Pool{New: func() any { return new(Vec) }}

// MatMulABT computes dst = a × bᵀ. Shapes: a is m×n, b is p×n, dst is
// m×p. Each output element is float32(Dot(a row, b row)): a float64 sum
// over k in ascending order of exact float32×float32 products, rounded to
// float32 once — no zero-skip. b is packed transposed into a pooled buffer
// and the product runs through MatMulABTPacked; callers that multiply by
// the same b repeatedly pack it once themselves with Transpose.
func MatMulABT(dst, a, b *Mat) {
	if a.Cols != b.Cols || dst.Rows != a.Rows || dst.Cols != b.Rows {
		panic("tensor: MatMulABT shape mismatch")
	}
	buf := packPool.Get().(*Vec)
	if cap(*buf) < len(b.Data) {
		*buf = make(Vec, len(b.Data))
	}
	bt := Mat{Rows: b.Cols, Cols: b.Rows, Data: (*buf)[:len(b.Data)]}
	Transpose(&bt, b)
	MatMulABTPacked(dst, a, &bt)
	packPool.Put(buf)
}

// MatMulABTPacked is MatMulABT with b supplied already transposed: bt is
// n×p and holds bᵀ (see Transpose). The SSE2 kernel vectorizes across 8
// output columns — each keeps its own float64 chain (CVTPS2PD, MULPD,
// ADDPD in k order, one CVTPD2PS at the end) — so every element is
// bitwise float32(Dot(a row, b row)). dst must not alias a or bt.
func MatMulABTPacked(dst, a, bt *Mat) {
	if a.Cols != bt.Rows || dst.Rows != a.Rows || dst.Cols != bt.Cols {
		panic("tensor: MatMulABTPacked shape mismatch")
	}
	m, k, n := a.Rows, a.Cols, bt.Cols
	if m*k*n < grainSize*8 {
		gemmDot(dst.Data, a.Data, bt.Data, m, k, n)
		return
	}
	d, x, y := dst.Data, a.Data, bt.Data
	ParallelFor(m, func(lo, hi int) {
		gemmDot(d[lo*n:hi*n], x[lo*k:hi*k], y, hi-lo, k, n)
	})
}

// gemmDot computes the m×n row-major dst[i][j] = float32(Σ_kk
// float64(a[i·k + kk])·float64(bt[kk·n + j])), each sum a float64 chain in
// kk order from +0.
func gemmDot(dst, a, bt Vec, m, k, n int) {
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		gemmDotScalar(dst, a, bt, m, k, n)
		return
	}
	gemmDotArch(dst, a, bt, m, k, n)
}

// gemmDotScalar is the portable gemmDot. A float32×float32 product is exact
// in float64, so a fused multiply-add would round the same as MULPD then
// ADDPD.
func gemmDotScalar(dst, a, bt Vec, m, k, n int) {
	var acc [8]float64
	for i := 0; i < m; i++ {
		ai := a[i*k : (i+1)*k]
		for j0 := 0; j0 < n; j0 += len(acc) {
			c := acc[:min(len(acc), n-j0)]
			clear(c)
			for kk, av := range ai {
				x := float64(av)
				for j, bv := range bt[kk*n+j0 : kk*n+j0+len(c)] {
					c[j] += x * float64(bv)
				}
			}
			for j, s := range c {
				dst[i*n+j0+j] = float32(s)
			}
		}
	}
}

// Transpose writes srcᵀ into dst (dst is src.Cols × src.Rows; no aliasing).
// It walks 32×32 tiles so both sides stay in cache.
func Transpose(dst, src *Mat) {
	if dst.Rows != src.Cols || dst.Cols != src.Rows {
		panic("tensor: Transpose shape mismatch")
	}
	const tile = 32
	r, c := src.Rows, src.Cols
	for i0 := 0; i0 < r; i0 += tile {
		i1 := min(i0+tile, r)
		for j0 := 0; j0 < c; j0 += tile {
			j1 := min(j0+tile, c)
			for i := i0; i < i1; i++ {
				row := src.Data[i*c : (i+1)*c]
				for j := j0; j < j1; j++ {
					dst.Data[j*r+i] = row[j]
				}
			}
		}
	}
}

// AddRowVec adds v to every row of m (broadcast bias add).
func AddRowVec(m *Mat, v Vec) {
	if len(v) != m.Cols {
		panic("tensor: AddRowVec length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		Add(m.Row(r), v)
	}
}

// ColSums accumulates the column sums of m into dst (len dst == m.Cols).
// Used for bias gradients.
func ColSums(dst Vec, m *Mat) {
	if len(dst) != m.Cols {
		panic("tensor: ColSums length mismatch")
	}
	for r := 0; r < m.Rows; r++ {
		Add(dst, m.Row(r))
	}
}
