//go:build !amd64 || purego

package tensor

// Portable fallbacks for the assembly kernels in simd_amd64.s. Selected on
// non-amd64 targets and under the purego build tag; bitwise-identical to the
// vector kernels by construction (same per-element arithmetic).

// SIMDEnabled reports whether the assembly vector kernels are compiled in.
func SIMDEnabled() bool { return false }

func vecAddTo(dst, a, b Vec)              { addToScalar(dst, a, b) }
func vecAXPY(dst Vec, a float32, src Vec) { axpyScalar(dst, a, src) }
func vecScale(v Vec, c float32)           { scaleScalar(v, c) }
func vecAbsMax(v Vec) float32             { return absMaxScalar(v) }

func vecSelectAdd(dst, base, sgn Vec, p, n float32) { selectAddScalar(dst, base, sgn, p, n) }

func gemmArch(dst, a, b Vec, m, k, n, ars, aks int, add bool) {
	gemmScalar(dst, a, b, m, k, n, ars, aks, add)
}

func gemmDotArch(dst, a, bt Vec, m, k, n int) { gemmDotScalar(dst, a, bt, m, k, n) }

// quantFieldsArch handles no elements on portable builds; the caller's scalar
// loop does all the work.
func quantFieldsArch(fields []uint32, g []float32, rnd []float64, norm float32, levels int) int {
	return 0
}

// signedMeansArch handles no elements on portable builds; the caller's
// sequential loop does all the work.
func signedMeansArch(v []float32) (sp, sn float64, np, done int) {
	return 0, 0, 0, 0
}

// sumLanesArch and sqDevLanesArch handle no elements on portable builds;
// the callers' lane loops do all the work.
func sumLanesArch(xs []float32, s *[8]float64) int              { return 0 }
func sqDevLanesArch(xs []float32, c float64, s *[8]float64) int { return 0 }

// gaussTailArch handles no elements on portable builds; the caller's scalar
// predicate does all the work.
func gaussTailArch(dst []int32, src []float32, base int32, mu, tau float64) (nsel, done int) {
	return 0, 0
}

func eliasPackArch(words []uint32, fields []uint32, bitPos uint64) uint64 {
	return eliasPackScalar(words, fields, bitPos)
}
