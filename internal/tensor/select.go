package tensor

import "math"

// Selection-support kernels for the Gaussian-K compressor: the lane sums
// behind its Gaussian fit, and the Gaussian tail test that picks its
// candidate indices. They dispatch to SSE2 on amd64 (simd_amd64.s) with the
// scalar loops below as the portable fallbacks and tail cleanup.

// SumLanes returns, for each lane j < 8, the float64 sum of xs[i] over the
// indices i ≡ j (mod 8), each lane accumulated in index order: eight
// independent add chains instead of one, which the vector kernel runs two
// to a register. The lanes are fully specified, so every build returns the
// same bits; folding them is the caller's choice.
func SumLanes(xs []float32) [8]float64 {
	var s [8]float64
	done := sumLanesArch(xs, &s)
	for i := done; i < len(xs); i++ {
		s[i&7] += float64(xs[i])
	}
	return s
}

// SqDevLanes is SumLanes over the squared deviations (float64(xs[i]) − c)²,
// each a separately rounded subtract and multiply (no fused multiply-add).
func SqDevLanes(xs []float32, c float64) [8]float64 {
	var s [8]float64
	done := sqDevLanesArch(xs, c, &s)
	for i := done; i < len(xs); i++ {
		d := float64(xs[i]) - c
		s[i&7] += d * d
	}
	return s
}

// GaussTailSelect appends to dst the flattened indices base+i of every
// element with |float64(src[i]) - mu| > tau, in ascending order, and returns
// how many were selected. The predicate is evaluated in float64 exactly as
// the scalar loop (NaN distances never select). dst must have room for
// len(src) indices — selection is expected sparse, but the kernel's bound is
// the worst case.
func GaussTailSelect(dst []int32, src []float32, base int32, mu, tau float64) int {
	_ = dst[:len(src)]
	nsel, done := gaussTailArch(dst, src, base, mu, tau)
	for i, x := range src[done:] {
		if d := math.Abs(float64(x) - mu); d > tau {
			dst[nsel] = base + int32(done+i)
			nsel++
		}
	}
	return nsel
}

func gaussTailScalar(dst []int32, src []float32, base int32, mu, tau float64) int {
	nsel := 0
	for i, x := range src {
		if d := math.Abs(float64(x) - mu); d > tau {
			dst[nsel] = base + int32(i)
			nsel++
		}
	}
	return nsel
}
