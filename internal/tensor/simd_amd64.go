//go:build amd64 && !purego

package tensor

import "math"

// This file extends the bits.go build-tag pattern from byte views to compute
// kernels: hand-written SSE2 assembly for the elementwise hot loops (Add,
// AXPY, Scale, AbsMax, SelectAdd), for the register-blocked matrix products
// (MatMul, MatMulATB, MatMulABTPacked) and for the stochastic
// level-quantization inner loop shared by QSGD and TernGrad. SSE2 is part of the amd64
// baseline (GOAMD64=v1) so no runtime feature detection is needed; the
// purego tag or any other GOARCH selects the portable fallbacks in
// simd_generic.go.
//
// Every kernel is bitwise-identical to its scalar counterpart: only
// elementwise and order-independent operations are vectorized (per-lane
// add/mul, max, truncation), never float reductions whose association order
// would change the rounded result (SumLanes' eight lanes are the scalar
// loop's eight accumulators, one per lane; a matrix product's lanes are
// output columns, each with its own k-ordered sum). The quantization kernel reproduces the
// scalar float64 arithmetic operation-for-operation (convert, abs, divide by
// norm, multiply by s, truncate, stochastic promote, clamp). Kernels assume
// finite inputs; gradient health checks (HasNaNOrInf) run upstream.

// SIMDEnabled reports whether the assembly vector kernels are compiled in.
func SIMDEnabled() bool { return true }

// simdMinLen is the shortest vector worth the call overhead of an assembly
// kernel; shorter vectors take the scalar path.
const simdMinLen = 16

//go:noescape
func addKernel(dst, a, b *float32, n int)

//go:noescape
func axpyKernel(dst *float32, a float32, src *float32, n int)

//go:noescape
func scaleKernel(v *float32, c float32, n int)

//go:noescape
func absMaxKernel(v *float32, n int) float32

// qsgdFieldsKernel handles an even number of elements; the Go wrapper peels
// the odd tail. norm and s are passed as float64 so the kernel performs the
// exact double-precision divide/multiply of the scalar path.
//
//go:noescape
func qsgdFieldsKernel(fields *uint32, src *float32, rnd *float64, n int, norm float64, s float64)

// signedMeansKernel reduces n elements (a multiple of 4) into the signed
// partial sums of SignedMeans: sp = Σ x_i for x_i >= 0, sn = Σ -x_i for
// x_i < 0, nNeg = |{x_i < 0}|. The two double-precision accumulator lanes
// split the input by parity and are folded lane0+lane1 at the end, so the
// association order differs from the sequential scalar sum — a deliberate,
// build-consistent exception to the bitwise rule above (the parallel
// reduction in ParSignedMeans already varies the order with GOMAXPROCS).
//
//go:noescape
func signedMeansKernel(v *float32, n int) (sp, sn float64, nNeg int64)

// selectAddKernel is SelectAdd over n elements (any n; the kernel runs its
// own scalar tail).
//
//go:noescape
func selectAddKernel(dst, base, sgn *float32, n int, p, q float32)

// sumLanesKernel and sqDevLanesKernel accumulate n elements (a multiple of
// 8) into the eight lanes of SumLanes / SqDevLanes, starting from zero.
//
//go:noescape
func sumLanesKernel(v *float32, n int, s *[8]float64)

//go:noescape
func sqDevLanesKernel(v *float32, n int, c float64, s *[8]float64)

// gaussTailKernel scans a multiple of 4 elements and stores base+i for
// every i whose float64 distance from mu exceeds tau; returns the selected
// count. Groups of four inside the float32 bounds [lo, hi] — proven
// unselected by gaussTailBounds — are rejected with one packed compare; the
// rest take the exact float64 test. The Go wrapper peels the tail.
//
//go:noescape
func gaussTailKernel(dst *int32, src *float32, n int, base int32, mu, tau float64, lo, hi float32) int64

// gemmKernel computes m rows of gemm (k, n >= 1): output row i reads a
// from a + i·ars with element stride aks, and b as k contiguous rows of n.
// Each block of 16 columns (then 4, then 1) keeps its accumulators in
// registers across the whole k loop.
//
//go:noescape
func gemmKernel(dst, a, b *float32, m, k, n, ars, aks int, add bool)

// gemmDotKernel computes m rows of gemmDot (k, n >= 1) over blocks of 8
// output columns (then 2, then 1), each lane a float64 chain.
//
//go:noescape
func gemmDotKernel(dst, a, bt *float32, m, k, n int)

// eliasPackKernel is the batched Elias-gamma+sign writer
// (EliasGammaSignPack); scalar amd64 code — the win over the portable loop
// is BSR for the bit length and the branch-free two-word store.
//
//go:noescape
func eliasPackKernel(words *uint32, fields *uint32, n int, bitPos uint64) uint64

func vecAddTo(dst, a, b Vec) {
	if len(dst) >= simdMinLen {
		addKernel(&dst[0], &a[0], &b[0], len(dst))
		return
	}
	addToScalar(dst, a, b)
}

func vecAXPY(dst Vec, a float32, src Vec) {
	if len(dst) >= simdMinLen {
		axpyKernel(&dst[0], a, &src[0], len(dst))
		return
	}
	axpyScalar(dst, a, src)
}

func vecScale(v Vec, c float32) {
	if len(v) >= simdMinLen {
		scaleKernel(&v[0], c, len(v))
		return
	}
	scaleScalar(v, c)
}

func vecAbsMax(v Vec) float32 {
	if len(v) >= simdMinLen {
		return absMaxKernel(&v[0], len(v))
	}
	return absMaxScalar(v)
}

// signedMeansArch reduces the longest multiple-of-4 prefix of v with the
// vector kernel, returning the partial sums, the non-negative count over the
// prefix, and the prefix length consumed (0 when v is too short to benefit);
// the caller folds in the tail sequentially.
func signedMeansArch(v []float32) (sp, sn float64, np, done int) {
	if len(v) < simdMinLen {
		return 0, 0, 0, 0
	}
	done = len(v) &^ 3
	var nneg int64
	sp, sn, nneg = signedMeansKernel(&v[0], done)
	np = done - int(nneg)
	return sp, sn, np, done
}

// quantFieldsArch runs the vector quantization kernel over the longest even
// prefix and returns how many elements it handled; the caller finishes the
// tail with the scalar loop.
func quantFieldsArch(fields []uint32, g []float32, rnd []float64, norm float32, levels int) int {
	n := len(g) &^ 1
	if n < simdMinLen {
		return 0
	}
	qsgdFieldsKernel(&fields[0], &g[0], &rnd[0], n, float64(norm), float64(levels))
	return n
}

func gemmArch(dst, a, b Vec, m, k, n, ars, aks int, add bool) {
	gemmKernel(&dst[0], &a[0], &b[0], m, k, n, ars, aks, add)
}

func gemmDotArch(dst, a, bt Vec, m, k, n int) {
	gemmDotKernel(&dst[0], &a[0], &bt[0], m, k, n)
}

func vecSelectAdd(dst, base, sgn Vec, p, n float32) {
	if len(dst) >= simdMinLen {
		selectAddKernel(&dst[0], &base[0], &sgn[0], len(dst), p, n)
		return
	}
	selectAddScalar(dst, base, sgn, p, n)
}

// sumLanesArch runs the lane-sum kernel over the longest multiple-of-8
// prefix of xs and returns its length; the caller folds in the tail.
func sumLanesArch(xs []float32, s *[8]float64) int {
	done := len(xs) &^ 7
	if done < simdMinLen {
		return 0
	}
	sumLanesKernel(&xs[0], done, s)
	return done
}

// sqDevLanesArch is sumLanesArch for the squared-deviation lanes.
func sqDevLanesArch(xs []float32, c float64, s *[8]float64) int {
	done := len(xs) &^ 7
	if done < simdMinLen {
		return 0
	}
	sqDevLanesKernel(&xs[0], done, c, s)
	return done
}

// gaussTailArch runs the selection kernel over the longest multiple-of-4
// prefix of src, returning the selected count and the prefix length
// consumed; the caller finishes the tail with the scalar predicate.
func gaussTailArch(dst []int32, src []float32, base int32, mu, tau float64) (nsel, done int) {
	done = len(src) &^ 3
	if done < simdMinLen {
		return 0, 0
	}
	lo, hi := gaussTailBounds(mu, tau)
	nsel = int(gaussTailKernel(&dst[0], &src[0], done, base, mu, tau, lo, hi))
	return nsel, done
}

// gaussTailBounds returns float32 bounds such that no x in [lo, hi] has
// |float64(x) − mu| > tau. The float64 distance is monotone in x on either
// side of mu (rounding is monotone), so it is enough that lo and hi
// themselves are unselected: both start at the float32 rounding of mu ∓ tau
// and step inward an ulp at a time. When that does not settle within a few
// steps (tau below the float32 spacing at mu, or NaN) the bounds are NaN,
// which no compare accepts, and every element takes the exact test.
func gaussTailBounds(mu, tau float64) (lo, hi float32) {
	nan := float32(math.NaN())
	if !(tau >= 0) {
		return nan, nan
	}
	sel := func(x float32) bool { return math.Abs(float64(x)-mu) > tau }
	lo, hi = float32(mu-tau), float32(mu+tau)
	for i := 0; sel(lo) || sel(hi); i++ {
		if i == 4 {
			return nan, nan
		}
		if sel(lo) {
			lo = math.Nextafter32(lo, hi)
		}
		if sel(hi) {
			hi = math.Nextafter32(hi, lo)
		}
	}
	return lo, hi
}

func eliasPackArch(words []uint32, fields []uint32, bitPos uint64) uint64 {
	if len(fields) == 0 {
		return bitPos
	}
	return eliasPackKernel(&words[0], &fields[0], len(fields), bitPos)
}
