package tensor

import (
	"math"
	"testing"
)

// randVec fills a vector with a mix of magnitudes, signs and exact zeros so
// the kernel comparisons exercise rounding, sign handling and the clamp path.
func randVec(rng *RNG, n int) Vec {
	v := NewVec(n)
	for i := range v {
		switch rng.Intn(8) {
		case 0:
			v[i] = 0
		case 1:
			v[i] = float32(math.Copysign(1e-30, float64(rng.Float64()-0.5)))
		default:
			v[i] = (rng.Float32() - 0.5) * 8
		}
	}
	return v
}

// kernel lengths to cover: below simdMinLen, odd tails for every unroll
// width, and a large block.
var simdLens = []int{0, 1, 3, 4, 7, 15, 16, 17, 31, 64, 100, 1023, 4096}

func TestAddMatchesScalar(t *testing.T) {
	rng := NewRNG(11)
	for _, n := range simdLens {
		dst := randVec(rng, n)
		src := randVec(rng, n)
		want := Clone(dst)
		addToScalar(want, want, src)
		sum := NewVec(n)
		AddTo(sum, dst, src)
		Add(dst, src)
		for i := range dst {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: Add[%d] = %x, scalar %x", n, i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
			}
			if math.Float32bits(sum[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: AddTo[%d] = %x, scalar %x", n, i, math.Float32bits(sum[i]), math.Float32bits(want[i]))
			}
		}
	}
}

func TestAXPYMatchesScalar(t *testing.T) {
	rng := NewRNG(12)
	for _, n := range simdLens {
		dst := randVec(rng, n)
		src := randVec(rng, n)
		a := rng.Float32() - 0.5
		want := Clone(dst)
		axpyScalar(want, a, src)
		AXPY(dst, a, src)
		for i := range dst {
			if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: AXPY[%d] = %x, scalar %x", n, i, math.Float32bits(dst[i]), math.Float32bits(want[i]))
			}
		}
	}
}

func TestScaleMatchesScalar(t *testing.T) {
	rng := NewRNG(13)
	for _, n := range simdLens {
		v := randVec(rng, n)
		c := rng.Float32()*2 - 1
		want := Clone(v)
		scaleScalar(want, c)
		Scale(v, c)
		for i := range v {
			if math.Float32bits(v[i]) != math.Float32bits(want[i]) {
				t.Fatalf("n=%d: Scale[%d] = %x, scalar %x", n, i, math.Float32bits(v[i]), math.Float32bits(want[i]))
			}
		}
	}
}

func TestAbsMaxMatchesScalar(t *testing.T) {
	rng := NewRNG(14)
	for _, n := range simdLens {
		v := randVec(rng, n)
		got, want := AbsMax(v), absMaxScalar(v)
		if math.Float32bits(got) != math.Float32bits(want) {
			t.Fatalf("n=%d: AbsMax = %x, scalar %x", n, got, want)
		}
	}
}

func TestQuantizeFieldsMatchesScalar(t *testing.T) {
	rng := NewRNG(15)
	for _, levels := range []int{1, 4, 15} {
		for _, n := range simdLens {
			g := randVec(rng, n)
			norm := float32(Norm2(g))
			if norm == 0 {
				norm = 1
			}
			rnd := make([]float64, n)
			rng.Float64Vec(rnd)
			got := make([]uint32, n)
			want := make([]uint32, n)
			QuantizeFields(got, g, rnd, norm, levels)
			quantFieldsScalar(want, g, rnd, norm, levels)
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("levels=%d n=%d: field[%d] = %#x, scalar %#x (x=%v rnd=%v)",
						levels, n, i, got[i], want[i], g[i], rnd[i])
				}
			}
		}
	}
}

// TestQuantizeFieldsClamp forces the promote-then-clamp corner: |x| == norm
// gives scaled == levels exactly; frac is 0 so no promotion, level stays at
// levels and the clamp must keep it there.
func TestQuantizeFieldsClamp(t *testing.T) {
	g := make([]float32, 32)
	rnd := make([]float64, 32)
	for i := range g {
		g[i] = 2.5
		if i%2 == 1 {
			g[i] = -2.5
		}
	}
	fields := make([]uint32, 32)
	QuantizeFields(fields, g, rnd, 2.5, 4)
	for i, f := range fields {
		wantSign := uint32(i % 2)
		if f != wantSign|4<<1 {
			t.Fatalf("field[%d] = %#x, want %#x", i, f, wantSign|4<<1)
		}
	}
}

func TestPackFields(t *testing.T) {
	rng := NewRNG(16)
	for _, bitsPer := range []uint{2, 3, 4, 5} {
		n := 257
		fields := make([]uint32, n)
		mask := uint32(1<<bitsPer) - 1
		for i := range fields {
			fields[i] = uint32(rng.Intn(int(mask) + 1))
		}
		words := make([]uint32, (n*int(bitsPer)+31)/32)
		// Pack in two irregular chunks to exercise the resumable offset.
		pos := PackFields(words, fields[:100], bitsPer, 0)
		end := PackFields(words, fields[100:], bitsPer, pos)
		if end != uint64(n)*uint64(bitsPer) {
			t.Fatalf("bitsPer=%d: end offset %d, want %d", bitsPer, end, n*int(bitsPer))
		}
		for i, f := range fields {
			bitPos := uint64(i) * uint64(bitsPer)
			w, off := bitPos/32, uint(bitPos%32)
			got := words[w] >> off
			if off+bitsPer > 32 && int(w+1) < len(words) {
				got |= words[w+1] << (32 - off)
			}
			if got&mask != f {
				t.Fatalf("bitsPer=%d: unpack[%d] = %#x, want %#x", bitsPer, i, got&mask, f)
			}
		}
	}
}

func TestWordViews(t *testing.T) {
	v := []float32{0, 1, -2.5, float32(math.Inf(1))}
	w := U32FromF32(v)
	for i := range v {
		if w[i] != math.Float32bits(v[i]) {
			t.Fatalf("U32FromF32[%d] = %#x, want %#x", i, w[i], math.Float32bits(v[i]))
		}
	}
	back := F32FromU32(w)
	for i := range v {
		if math.Float32bits(back[i]) != math.Float32bits(v[i]) {
			t.Fatalf("F32FromU32 round-trip[%d] mismatch", i)
		}
	}
	if WordsZeroCopy() {
		w[1] = math.Float32bits(42)
		if v[1] != 42 {
			t.Fatal("zero-copy word view does not alias")
		}
	}
	if U32FromF32(nil) != nil && len(U32FromF32(nil)) != 0 {
		t.Fatal("nil view not empty")
	}
}

func TestFloat64VecMatchesSequence(t *testing.T) {
	a, b := NewRNG(99), NewRNG(99)
	got := make([]float64, 100)
	a.Float64Vec(got)
	for i := range got {
		if want := b.Float64(); got[i] != want {
			t.Fatalf("Float64Vec[%d] = %v, want %v", i, got[i], want)
		}
	}
}

// SignedMeans is the one kernel allowed to differ from the scalar path in
// association order (documented in simd_amd64.go), so it is checked with a
// tight relative tolerance instead of bitwise; the count must match exactly.
func TestSignedMeansKernelMatchesScalar(t *testing.T) {
	rng := NewRNG(77)
	for _, n := range simdLens {
		v := randVec(rng, n)
		if n > 4 {
			v[1] = float32(math.Copysign(0, -1)) // -0.0 counts as non-negative
			v[3] = 0
		}
		var sp, sn float64
		np := 0
		for _, x := range v {
			if x >= 0 {
				sp += float64(x)
				np++
			} else {
				sn -= float64(x)
			}
		}
		wantP, wantN := float32(0), float32(0)
		if np > 0 {
			wantP = float32(sp / float64(np))
		}
		if nn := n - np; nn > 0 {
			wantN = float32(sn / float64(nn))
		}
		mp, mn, gotNP := SignedMeans(v)
		if gotNP != np {
			t.Fatalf("n=%d: nPos = %d, want %d", n, gotNP, np)
		}
		if relErr(float64(mp), float64(wantP)) > 1e-6 || relErr(float64(mn), float64(wantN)) > 1e-6 {
			t.Fatalf("n=%d: means (%v,%v), want (%v,%v)", n, mp, mn, wantP, wantN)
		}
	}
}

func relErr(a, b float64) float64 {
	d := math.Abs(a - b)
	if m := math.Max(math.Abs(a), math.Abs(b)); m > 1 {
		return d / m
	}
	return d
}

// TestSelectAddMatchesScalar checks the sign-select kernel against the
// scalar loop and against the branchy subtract forms A2SGD used before it
// (x − µ+ / x + µ−, ε + µ̄+ / ε − µ̄−): signed zeros in the sign and base
// inputs, ±0 constants, lengths below simdMinLen and every unroll tail, and
// dst aliasing base and sgn.
func TestSelectAddMatchesScalar(t *testing.T) {
	rng := NewRNG(25)
	negZero := float32(math.Copysign(0, -1))
	bits := math.Float32bits
	for _, n := range simdLens {
		for _, pq := range [][2]float32{
			{rng.Float32(), rng.Float32()},
			{0, negZero},
			{negZero, 0},
		} {
			sgn := randVec(rng, n)
			base := randVec(rng, n)
			for i := 0; i < n; i += 5 {
				sgn[i] = negZero
				base[n-1-i] = negZero
			}
			p, q := pq[0], pq[1]
			want := NewVec(n)
			selectAddScalar(want, base, sgn, p, q)
			got := NewVec(n)
			SelectAdd(got, base, sgn, p, q)
			// Old branchy forms: ε loop (dst = x − µ+ / x + µ−) with
			// µ+ = −p, and the reconstruction (dst = ε + µ̄+ / ε − µ̄−) with
			// µ̄− = −q; both in place over aliased inputs.
			eps := Clone(sgn)
			SelectAdd(eps, eps, eps, p, q)
			rec := Clone(sgn)
			SelectAdd(rec, base, rec, p, q)
			for i, x := range sgn {
				oldEps, oldRec := x+q, base[i]-(-q)
				if x >= 0 {
					oldEps, oldRec = x-(-p), base[i]+p
				}
				if bits(got[i]) != bits(want[i]) {
					t.Fatalf("n=%d p=%v q=%v: SelectAdd[%d] = %x, scalar %x", n, p, q, i, bits(got[i]), bits(want[i]))
				}
				if bits(eps[i]) != bits(oldEps) || bits(rec[i]) != bits(oldRec) {
					t.Fatalf("n=%d p=%v q=%v [%d]: in-place %x/%x, subtract form %x/%x",
						n, p, q, i, bits(eps[i]), bits(rec[i]), bits(oldEps), bits(oldRec))
				}
			}
		}
	}
}

// TestAccumulateFieldsMatchesUnpack accumulates packed streams of every
// field width from 1 to 9 bits — dividing 32 or straddling words — in
// irregular chunks (resumed offsets that fall mid-word) and compares with
// the bit-at-a-time unpack followed by a plain add.
func TestAccumulateFieldsMatchesUnpack(t *testing.T) {
	rng := NewRNG(26)
	for bitsPer := uint(1); bitsPer <= 9; bitsPer++ {
		for _, n := range simdLens {
			mask := uint32(1)<<bitsPer - 1
			fields := make([]uint32, n)
			for i := range fields {
				fields[i] = uint32(rng.Intn(int(mask) + 1))
			}
			words := make([]uint32, (n*int(bitsPer)+31)/32)
			PackFields(words, fields, bitsPer, 0)
			lut := randVec(rng, int(mask)+1)
			dst := randVec(rng, n)
			want := Clone(dst)
			for i, f := range fields {
				want[i] += lut[f]
			}
			pos := uint64(0)
			for lo := 0; lo < n; {
				hi := min(n, lo+1+rng.Intn(13))
				pos = AccumulateFields(dst[lo:hi], words, bitsPer, pos, lut)
				lo = hi
			}
			if pos != uint64(n)*uint64(bitsPer) {
				t.Fatalf("bitsPer=%d n=%d: end offset %d", bitsPer, n, pos)
			}
			for i := range dst {
				if math.Float32bits(dst[i]) != math.Float32bits(want[i]) {
					t.Fatalf("bitsPer=%d n=%d: dst[%d] = %v, want %v", bitsPer, n, i, dst[i], want[i])
				}
			}
		}
	}
}

// TestLaneSumsMatchScalar: the lane-sum kernels return the bits of the
// scalar lane loops (s[i&7] += ...) for every length class.
func TestLaneSumsMatchScalar(t *testing.T) {
	rng := NewRNG(27)
	for _, n := range simdLens {
		xs := randVec(rng, n)
		c := float64(rng.Float32() - 0.5)
		var sum, sq [8]float64
		for i, x := range xs {
			d := float64(x) - c
			sum[i&7] += float64(x)
			sq[i&7] += d * d
		}
		if got := SumLanes(xs); got != sum {
			t.Fatalf("n=%d: SumLanes = %v, scalar %v", n, got, sum)
		}
		if got := SqDevLanes(xs, c); got != sq {
			t.Fatalf("n=%d: SqDevLanes = %v, scalar %v", n, got, sq)
		}
	}
}

// TestGaussTailSelectAtBounds puts elements on and a few ulps around
// mu ± tau — where the kernel's float32 pre-reject bounds sit — plus ±Inf
// and NaN, for thresholds down to zero and below the float32 spacing at
// mu, and requires the scalar selection exactly.
func TestGaussTailSelectAtBounds(t *testing.T) {
	for _, c := range []struct{ mu, tau float64 }{
		{0, 0.3}, {0.01, 1e-3}, {-2.5e-3, 0}, {1e30, 1}, {-3, 1e-9}, {0.1, math.Inf(1)},
	} {
		var src []float32
		for _, edge := range []float64{c.mu - c.tau, c.mu + c.tau, c.mu} {
			x := float32(edge)
			for k := 0; k < 4; k++ {
				x = math.Nextafter32(x, float32(math.Inf(-1)))
			}
			for k := 0; k < 9; k++ {
				src = append(src, x)
				x = math.Nextafter32(x, float32(math.Inf(1)))
			}
		}
		src = append(src, float32(math.Inf(1)), float32(math.Inf(-1)), float32(math.NaN()), 0)
		want := make([]int32, len(src))
		got := make([]int32, len(src))
		nw := gaussTailScalar(want, src, 3, c.mu, c.tau)
		ng := GaussTailSelect(got, src, 3, c.mu, c.tau)
		if ng != nw {
			t.Fatalf("mu=%v tau=%v: count %d, scalar %d", c.mu, c.tau, ng, nw)
		}
		for i := 0; i < nw; i++ {
			if got[i] != want[i] {
				t.Fatalf("mu=%v tau=%v: idx[%d] = %d, scalar %d", c.mu, c.tau, i, got[i], want[i])
			}
		}
	}
}
