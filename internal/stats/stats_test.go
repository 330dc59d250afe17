package stats

import (
	"math"
	"testing"
	"testing/quick"

	"a2sgd/internal/tensor"
)

func TestWelfordAgainstDirect(t *testing.T) {
	xs := []float32{1, 2, 3, 4, 5, -1, -2, 0.5}
	var w Welford
	w.AddSlice(xs)
	var sum, sq float64
	for _, x := range xs {
		sum += float64(x)
	}
	mean := sum / float64(len(xs))
	for _, x := range xs {
		d := float64(x) - mean
		sq += d * d
	}
	variance := sq / float64(len(xs))
	if math.Abs(w.Mean()-mean) > 1e-12 {
		t.Errorf("mean %v want %v", w.Mean(), mean)
	}
	if math.Abs(w.Var()-variance) > 1e-12 {
		t.Errorf("var %v want %v", w.Var(), variance)
	}
	if w.N() != int64(len(xs)) {
		t.Errorf("n %v", w.N())
	}
}

func TestWelfordEmptyAndSingle(t *testing.T) {
	var w Welford
	if w.Mean() != 0 || w.Var() != 0 || w.Std() != 0 {
		t.Error("empty accumulator should be all-zero")
	}
	w.Add(5)
	if w.Mean() != 5 || w.Var() != 0 {
		t.Error("single observation: mean 5, var 0")
	}
}

func TestWelfordMerge(t *testing.T) {
	rng := tensor.NewRNG(1)
	xs := make([]float32, 1000)
	rng.NormVec(xs, 3, 2)
	var whole, a, b Welford
	whole.AddSlice(xs)
	a.AddSlice(xs[:317])
	b.AddSlice(xs[317:])
	a.Merge(b)
	if math.Abs(a.Mean()-whole.Mean()) > 1e-9 || math.Abs(a.Var()-whole.Var()) > 1e-9 {
		t.Errorf("merge mismatch: (%v,%v) vs (%v,%v)", a.Mean(), a.Var(), whole.Mean(), whole.Var())
	}
	// Merging into empty adopts the other side.
	var empty Welford
	empty.Merge(a)
	if empty.N() != a.N() || empty.Mean() != a.Mean() {
		t.Error("merge into empty failed")
	}
	// Merging empty is a no-op.
	n := a.N()
	a.Merge(Welford{})
	if a.N() != n {
		t.Error("merge of empty changed state")
	}
}

func TestHistogramBasics(t *testing.T) {
	h := NewHistogram(-1, 1, 4)
	h.Add(-0.9) // bin 0
	h.Add(-0.1) // bin 1
	h.Add(0.1)  // bin 2
	h.Add(0.9)  // bin 3
	h.Add(-5)   // clamped to bin 0
	h.Add(5)    // clamped to bin 3
	want := []int64{2, 1, 1, 2}
	for i, c := range want {
		if h.Counts[i] != c {
			t.Errorf("bin %d = %d, want %d", i, h.Counts[i], c)
		}
	}
	if h.Total() != 6 {
		t.Errorf("total %d", h.Total())
	}
	if got := h.Frac(0); math.Abs(got-2.0/6) > 1e-12 {
		t.Errorf("Frac(0) = %v", got)
	}
	if got := h.PeakFrac(); math.Abs(got-2.0/6) > 1e-12 {
		t.Errorf("PeakFrac = %v", got)
	}
	if got := h.BinCenter(0); math.Abs(got-(-0.75)) > 1e-12 {
		t.Errorf("BinCenter(0) = %v", got)
	}
	if h.Render(20) == "" {
		t.Error("Render produced nothing")
	}
}

func TestHistogramInvalidSpecPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewHistogram(1, -1, 8)
}

func TestErfInvRoundTrip(t *testing.T) {
	for _, x := range []float64{-0.999, -0.9, -0.5, -0.1, 0, 0.1, 0.5, 0.9, 0.999} {
		y := ErfInv(x)
		if got := math.Erf(y); math.Abs(got-x) > 1e-9 {
			t.Errorf("Erf(ErfInv(%v)) = %v", x, got)
		}
	}
	if !math.IsInf(ErfInv(1), 1) || !math.IsInf(ErfInv(-1), -1) {
		t.Error("ErfInv at ±1 should be ±Inf")
	}
}

// Property: round trip holds for random x in (-1, 1).
func TestErfInvProperty(t *testing.T) {
	f := func(u uint32) bool {
		x := 2*float64(u)/float64(math.MaxUint32) - 1
		if x <= -1 || x >= 1 {
			return true
		}
		return math.Abs(math.Erf(ErfInv(x))-x) < 1e-8
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestGaussianTailThreshold(t *testing.T) {
	// For a large N(0,1) sample, the fraction above TailThreshold(p) must
	// be close to p.
	rng := tensor.NewRNG(7)
	xs := make([]float32, 200000)
	rng.NormVec(xs, 0, 1)
	g := FitGaussian(xs)
	if math.Abs(g.Mu) > 0.02 || math.Abs(g.Sigma-1) > 0.02 {
		t.Fatalf("fit = %+v, want ~N(0,1)", g)
	}
	for _, p := range []float64{0.5, 0.1, 0.01} {
		tau := g.TailThreshold(p)
		cnt := 0
		for _, x := range xs {
			if math.Abs(float64(x)-g.Mu) > tau {
				cnt++
			}
		}
		got := float64(cnt) / float64(len(xs))
		if math.Abs(got-p) > 0.15*p+0.002 {
			t.Errorf("p=%v: observed tail %v", p, got)
		}
	}
	if !math.IsInf(g.TailThreshold(0), 1) {
		t.Error("p=0 should give +Inf")
	}
	if g.TailThreshold(1) != 0 {
		t.Error("p=1 should give 0")
	}
}

// TestFitGaussianMatchesWelford pins the blocked two-pass fit to the
// sequential Welford recurrence: mean and standard deviation within 1e-12
// relative error, on lengths inside one block, across block boundaries and
// with a ragged last block, for centred and offset data.
func TestFitGaussianMatchesWelford(t *testing.T) {
	rng := tensor.NewRNG(8)
	for _, n := range []int{1, 2, 5, 4095, 4096, 4097, 100_003} {
		for _, mu := range []float64{0, 0.3, -40} {
			xs := make([]float32, n)
			rng.NormVec(xs, float32(mu), 0.05)
			var w Welford
			w.AddSlice(xs)
			g := FitGaussian(xs)
			if d := math.Abs(g.Mu - w.Mean()); d > 1e-12*math.Max(math.Abs(w.Mean()), w.Std()) {
				t.Errorf("n=%d mu=%v: blocked mean %v, Welford %v", n, mu, g.Mu, w.Mean())
			}
			if d := math.Abs(g.Sigma - w.Std()); d > 1e-12*w.Std() {
				t.Errorf("n=%d mu=%v: blocked std %v, Welford %v", n, mu, g.Sigma, w.Std())
			}
		}
	}
}

func TestQuantile(t *testing.T) {
	xs := []float32{5, 1, 3, 2, 4}
	if got := Quantile(xs, 0); got != 1 {
		t.Errorf("q0 = %v", got)
	}
	if got := Quantile(xs, 1); got != 5 {
		t.Errorf("q1 = %v", got)
	}
	if got := Quantile(xs, 0.5); got != 3 {
		t.Errorf("median = %v", got)
	}
	if got := Quantile(xs, 0.25); got != 2 {
		t.Errorf("q25 = %v", got)
	}
	if !math.IsNaN(Quantile(nil, 0.5)) {
		t.Error("empty quantile should be NaN")
	}
}
