// Package stats provides the statistical substrate used across the
// repository: streaming moments (Welford), fixed-bin histograms (the
// gradient-distribution plots of Figure 1), a Gaussian model of gradient
// values with the inverse-CDF threshold estimation that Gaussian-K
// sparsification relies on, and small numeric utilities (erf⁻¹, quantiles).
package stats

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"a2sgd/internal/tensor"
)

// Welford accumulates count, mean and variance in a single numerically
// stable streaming pass.
type Welford struct {
	n    int64
	mean float64
	m2   float64
}

// Add folds one observation into the accumulator.
func (w *Welford) Add(x float64) {
	w.n++
	d := x - w.mean
	w.mean += d / float64(w.n)
	w.m2 += d * (x - w.mean)
}

// AddSlice folds every element of xs into the accumulator.
func (w *Welford) AddSlice(xs []float32) {
	for _, x := range xs {
		w.Add(float64(x))
	}
}

// N returns the number of observations.
func (w *Welford) N() int64 { return w.n }

// Mean returns the running mean (0 when empty).
func (w *Welford) Mean() float64 { return w.mean }

// Var returns the population variance (0 for n < 2).
func (w *Welford) Var() float64 {
	if w.n < 2 {
		return 0
	}
	return w.m2 / float64(w.n)
}

// Std returns the population standard deviation.
func (w *Welford) Std() float64 { return math.Sqrt(w.Var()) }

// Merge combines another accumulator into w (parallel reduction form).
func (w *Welford) Merge(o Welford) {
	if o.n == 0 {
		return
	}
	if w.n == 0 {
		*w = o
		return
	}
	n := w.n + o.n
	d := o.mean - w.mean
	w.m2 += o.m2 + d*d*float64(w.n)*float64(o.n)/float64(n)
	w.mean += d * float64(o.n) / float64(n)
	w.n = n
}

// Histogram is a fixed-range, fixed-bin-count histogram. Values outside
// [Lo, Hi) land in the clamped edge bins so no observation is lost — the
// same convention matplotlib uses for the paper's Figure 1 plots.
type Histogram struct {
	Lo, Hi float64
	Counts []int64
	total  int64
}

// NewHistogram creates a histogram over [lo, hi) with bins buckets.
func NewHistogram(lo, hi float64, bins int) *Histogram {
	if bins <= 0 || !(hi > lo) {
		panic("stats: invalid histogram spec")
	}
	return &Histogram{Lo: lo, Hi: hi, Counts: make([]int64, bins)}
}

// Add records one value.
func (h *Histogram) Add(x float64) {
	b := int(float64(len(h.Counts)) * (x - h.Lo) / (h.Hi - h.Lo))
	if b < 0 {
		b = 0
	}
	if b >= len(h.Counts) {
		b = len(h.Counts) - 1
	}
	h.Counts[b]++
	h.total++
}

// AddSlice records every element of xs.
func (h *Histogram) AddSlice(xs []float32) {
	for _, x := range xs {
		h.Add(float64(x))
	}
}

// Total returns the number of recorded values.
func (h *Histogram) Total() int64 { return h.total }

// BinCenter returns the midpoint of bin i.
func (h *Histogram) BinCenter(i int) float64 {
	w := (h.Hi - h.Lo) / float64(len(h.Counts))
	return h.Lo + (float64(i)+0.5)*w
}

// Frac returns the fraction of observations in bin i.
func (h *Histogram) Frac(i int) float64 {
	if h.total == 0 {
		return 0
	}
	return float64(h.Counts[i]) / float64(h.total)
}

// PeakFrac returns the largest single-bin fraction; Figure 1's "values
// concentrate around zero over time" claim is quantified by this number
// growing across training.
func (h *Histogram) PeakFrac() float64 {
	var m int64
	for _, c := range h.Counts {
		if c > m {
			m = c
		}
	}
	if h.total == 0 {
		return 0
	}
	return float64(m) / float64(h.total)
}

// Render draws a simple fixed-width ASCII bar chart, one row per bin.
func (h *Histogram) Render(width int) string {
	var max int64 = 1
	for _, c := range h.Counts {
		if c > max {
			max = c
		}
	}
	var b strings.Builder
	for i, c := range h.Counts {
		bar := int(int64(width) * c / max)
		fmt.Fprintf(&b, "%+9.4f |%s %d\n", h.BinCenter(i), strings.Repeat("#", bar), c)
	}
	return b.String()
}

// Gaussian is a fitted normal model N(Mu, Sigma²) of a sample, as assumed by
// Gaussian-K sparsification for gradient values.
type Gaussian struct {
	Mu, Sigma float64
}

// fitBlock is FitGaussian's block length: long enough to amortize the
// merge, short enough that the block is still in cache for its second pass.
const fitBlock = 4096

// FitGaussian estimates mean and std from xs. Each fitBlock-element block
// is fitted with two passes — its mean, then its squared deviations from
// that mean — and the blocks are folded with Welford.Merge. That matches
// sequential Welford to ~1e-12 relative error without Welford's divide per
// element, which made the fit the bulk of Gaussian-K's encode.
func FitGaussian(xs []float32) Gaussian {
	var w Welford
	for lo := 0; lo < len(xs); lo += fitBlock {
		w.Merge(blockMoments(xs[lo:min(lo+fitBlock, len(xs))]))
	}
	return Gaussian{Mu: w.Mean(), Sigma: w.Std()}
}

// blockMoments is the two-pass fit of one non-empty block, each pass an
// eight-lane sum (tensor.SumLanes, vectorized on amd64) folded in lane
// order.
func blockMoments(xs []float32) Welford {
	mean := foldLanes(tensor.SumLanes(xs)) / float64(len(xs))
	return Welford{n: int64(len(xs)), mean: mean, m2: foldLanes(tensor.SqDevLanes(xs, mean))}
}

func foldLanes(s [8]float64) float64 {
	var t float64
	for _, x := range s {
		t += x
	}
	return t
}

// TailThreshold returns the magnitude threshold τ ≥ 0 such that, under the
// fitted Gaussian, P(|X − Mu| > τ) ≈ p. Gaussian-K uses it to select
// approximately k = p·n elements without sorting: τ = σ·√2·erf⁻¹(1−p).
func (g Gaussian) TailThreshold(p float64) float64 {
	if p <= 0 {
		return math.Inf(1)
	}
	if p >= 1 {
		return 0
	}
	return g.Sigma * math.Sqrt2 * ErfInv(1-p)
}

// ErfInv computes the inverse error function with the Giles (2012)
// single-precision-grade rational approximation refined by one Newton step,
// accurate to ~1e-9 over (-1, 1).
func ErfInv(x float64) float64 {
	if x <= -1 {
		return math.Inf(-1)
	}
	if x >= 1 {
		return math.Inf(1)
	}
	// Initial approximation (Winitzki).
	a := 0.147
	ln := math.Log(1 - x*x)
	t1 := 2/(math.Pi*a) + ln/2
	y := math.Copysign(math.Sqrt(math.Sqrt(t1*t1-ln/a)-t1), x)
	// Two Newton refinements on erf(y) = x.
	for i := 0; i < 2; i++ {
		e := math.Erf(y) - x
		y -= e / (2 / math.SqrtPi * math.Exp(-y*y))
	}
	return y
}

// Quantile returns the q-quantile (0 ≤ q ≤ 1) of xs using linear
// interpolation on the sorted copy. Used in tests and reporting.
func Quantile(xs []float32, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := make([]float64, len(xs))
	for i, x := range xs {
		s[i] = float64(x)
	}
	sort.Float64s(s)
	if q <= 0 {
		return s[0]
	}
	if q >= 1 {
		return s[len(s)-1]
	}
	pos := q * float64(len(s)-1)
	lo := int(pos)
	frac := pos - float64(lo)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo]*(1-frac) + s[lo+1]*frac
}
