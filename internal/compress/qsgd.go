package compress

import (
	"math"

	"a2sgd/internal/comm"
	"a2sgd/internal/netsim"
	"a2sgd/internal/tensor"
)

// QSGD implements the quantization scheme of Alistarh et al. (the paper's
// reference [21]): each gradient entry is stochastically rounded to one of
// s+1 magnitude levels of ‖g‖₂, giving an unbiased low-precision encoding.
//
// The encoding here is a real bit-packed stream — one sign bit plus
// ⌈log2(s+1)⌉ level bits per entry, preceded by the 32-bit norm — so the
// payload the collectives move is the genuinely compressed representation.
// With the paper's s = 4 that is 4n + 32 bits, close to the 2.8n + 32 the
// paper quotes for QSGD's Elias-coded stream (the small constant-factor gap
// is documented in EXPERIMENTS.md). The paper's measured QSGD baseline used
// a numpy implementation with O(n²) behaviour; this implementation is O(n),
// so our Figure 2 shows QSGD expensive but not quadratic — the ordering of
// the four algorithms is preserved.
type QSGD struct {
	s       int
	bitsPer uint // sign + level bits per element
	rng     *tensor.RNG

	// Reusable scratch (zero-allocation steady state): the packed word
	// buffer and the bit-cast payload of the current Encode, per-block
	// field and stochastic-rounding buffers for the quantization kernel,
	// and the exchange buffers (shared with Decode). The Encode payload
	// aliases the packed words — valid until the next Encode on this
	// instance.
	words  []uint32
	data   []float32
	fields []uint32
	rnd    []float64
	ex     levelExchange
	fv     tensor.VecView // flat-call adapter view
}

// NewQSGD builds a QSGD quantizer from the options (levels = QuantLevels).
func NewQSGD(o Options) *QSGD {
	o.validate()
	s := o.QuantLevels
	if s < 1 {
		s = 1
	}
	levelBits := uint(1)
	for (1 << levelBits) < s+1 {
		levelBits++
	}
	return &QSGD{s: s, bitsPer: 1 + levelBits, rng: tensor.NewRNG(o.Seed)}
}

// Name implements Algorithm.
func (q *QSGD) Name() string { return "qsgd" }

// Levels exposes the quantization parameter s.
func (q *QSGD) Levels() int { return q.s }

// encodedWords returns the number of packed uint32 words for n elements
// (excluding the leading norm word).
func (q *QSGD) encodedWords(n int) int {
	bits := uint64(n) * uint64(q.bitsPer)
	return int((bits + 31) / 32)
}

// growU32 returns a length-m uint32 scratch slice backed by *buf.
func growU32(buf *[]uint32, m int) []uint32 {
	if cap(*buf) < m {
		*buf = make([]uint32, m)
	}
	*buf = (*buf)[:m]
	return *buf
}

// growF32 is growU32's float32 twin: the one place the scratch-recycling
// cap-check-and-grow idiom lives. Contents beyond the previous length are
// unspecified; callers overwrite every element.
func growF32(buf *[]float32, m int) []float32 {
	if cap(*buf) < m {
		*buf = make([]float32, m)
	}
	*buf = (*buf)[:m]
	return *buf
}

// growF64 completes the family for the stochastic-rounding variate buffer.
func growF64(buf *[]float64, m int) []float64 {
	if cap(*buf) < m {
		*buf = make([]float64, m)
	}
	*buf = (*buf)[:m]
	return *buf
}

// quantBlock is the block size for the quantize+pack loop: one block of
// fields and variates stays cache-resident, and 4096 fields at any bit
// width end exactly on a word boundary so blocks pack independently.
const quantBlock = 4096

// quantizeViewBlock quantizes the flattened span [lo, lo+len(fields)) of v
// into fields, splitting the kernel call at segment boundaries. rnd holds
// the block's pre-generated stochastic variates (parallel to fields). *si is
// the segment cursor, resumed across blocks — blocks advance monotonically.
// The blocks stay global (not per-segment) so the packed stream's block
// starts remain word-aligned regardless of where tensor boundaries fall,
// and the kernel is elementwise, so the stream is bitwise identical to
// quantizing the flat vector.
func quantizeViewBlock(fields []uint32, v *tensor.VecView, si *int, lo int, rnd []float64, norm float32, levels int) {
	segs, offs := v.Segments(), v.Offsets()
	done := 0
	for done < len(fields) {
		for offs[*si]+len(segs[*si]) <= lo+done {
			*si++
		}
		seg := segs[*si]
		segLo := lo + done - offs[*si]
		m := min(len(fields)-done, len(seg)-segLo)
		tensor.QuantizeFields(fields[done:done+m], seg[segLo:segLo+m], rnd[done:done+m], norm, levels)
		done += m
	}
}

// wordsPayload publishes packed words as a float32 collective payload.
// On builds with zero-copy word views the payload aliases words directly;
// otherwise it is converted into *data (instance scratch).
func wordsPayload(words []uint32, data *[]float32) []float32 {
	if tensor.WordsZeroCopy() {
		return tensor.F32FromU32(words)
	}
	out := growF32(data, len(words))
	for i, w := range words {
		out[i] = math.Float32frombits(w)
	}
	return out
}

// payloadWords is the inverse: a uint32 view of a received stream, copied
// through *scratch only on builds without zero-copy views.
func payloadWords(data []float32, scratch *[]uint32) []uint32 {
	if tensor.WordsZeroCopy() {
		return tensor.U32FromF32(data)
	}
	words := growU32(scratch, len(data))
	for i, f := range data {
		words[i] = math.Float32bits(f)
	}
	return words
}

// Encode quantizes g into the packed stream. Format, bit-cast into the
// float32 payload: word 0 = ‖g‖₂ (float), words 1.. = packed fields, LSB
// first within each word: [sign:1][level:bitsPer-1] per element. The
// returned payload aliases instance scratch (valid until the next Encode).
func (q *QSGD) Encode(g []float32) Payload {
	return q.EncodeView(q.fv.Reset1(g))
}

// EncodeView implements Algorithm over a strided view. The blocked loop
// runs over the flattened index space, so the stream — norm, RNG order,
// packed fields — is bitwise identical to encoding the flat vector.
func (q *QSGD) EncodeView(v *tensor.VecView) Payload {
	n := v.Len()
	norm := float32(v.Norm2())
	words := growU32(&q.words, 1+q.encodedWords(n))
	clear(words)
	words[0] = math.Float32bits(norm)
	if norm > 0 {
		// Stochastic rounding through the shared kernel (SIMD on amd64):
		// scaled = |x|/norm * s, level is floor(scaled) promoted with
		// probability frac(scaled). Blocked so fields and variates stay
		// cache-resident; the variates are pre-generated per block, which
		// consumes the RNG in exactly the scalar order.
		bitPos := uint64(0)
		si := 0
		for lo := 0; lo < n; lo += quantBlock {
			m := min(quantBlock, n-lo)
			rnd := growF64(&q.rnd, m)
			q.rng.Float64Vec(rnd)
			fields := growU32(&q.fields, m)
			quantizeViewBlock(fields, v, &si, lo, rnd, norm, q.s)
			bitPos = tensor.PackFields(words[1:], fields, q.bitsPer, bitPos)
		}
	}
	return Payload{Data: wordsPayload(words, &q.data), Bits: int64(n)*int64(q.bitsPer) + 32}
}

// negZero is the additive identity of IEEE addition: -0 + x == x bitwise
// for every x, +0 and -0 included.
var negZero = math.Float32frombits(1 << 31)

// levelTable fills *buf with the decode table of one stream: entry f is the
// value the level decoder assigns field f — norm·level/s with level = f>>1,
// negated when the sign bit f&1 is set — times a. It is the per-element
// decode expression evaluated once per code instead of once per element, so
// a = 1 decodes bitwise, and a = 1/P gives exactly the float32 product
// a·v that the averaging AXPY rounded before its add.
func levelTable(buf *[]float32, norm, a float32, s int, bitsPer uint) []float32 {
	lut := growF32(buf, 1<<bitsPer)
	for f := range lut {
		v := norm * float32(f>>1) / float32(s)
		if f&1 == 1 {
			v = -v
		}
		lut[f] = a * v
	}
	return lut
}

// levelExchange is the exchange half shared by QSGD and TernGrad (the s=1,
// 2-bit case): allgather every worker's packed stream, then add each
// stream's scaled values straight into the view's segments through its
// decode table — one pass per stream, no decode buffer. The view starts at
// +0 and no IEEE sum starting there reaches -0, so a -0 entry adds exactly
// like the +0 a decoded level 0 used to contribute, and the result is
// bitwise that of decoding each stream and averaging it in with AXPY.
type levelExchange struct {
	gather []float32 // allgathered streams
	words  []uint32  // word copy of one stream (builds without zero-copy views)
	lut    []float32 // decode table of the current stream
}

func (e *levelExchange) run(p Payload, v *tensor.VecView, c *comm.Communicator, s int, bitsPer uint) error {
	all := growF32(&e.gather, len(p.Data)*c.Size())
	if err := c.Allgather(p.Data, all); err != nil {
		return err
	}
	v.Zero()
	inv := 1 / float32(c.Size())
	for r := 0; r < c.Size(); r++ {
		words := payloadWords(all[r*len(p.Data):(r+1)*len(p.Data)], &e.words)
		lut := levelTable(&e.lut, math.Float32frombits(words[0]), inv, s, bitsPer)
		bitPos := uint64(0)
		for _, seg := range v.Segments() {
			bitPos = tensor.AccumulateFields(seg, words[1:], bitsPer, bitPos, lut)
		}
	}
	return nil
}

// Decode expands one packed stream into dst.
func (q *QSGD) Decode(data []float32, dst []float32) {
	words := payloadWords(data, &q.ex.words)
	norm := math.Float32frombits(words[0])
	if norm == 0 {
		tensor.Zero(dst)
		return
	}
	// Accumulating onto -0 stores every table value exactly.
	tensor.Fill(dst, negZero)
	tensor.AccumulateFields(dst, words[1:], q.bitsPer, 0, levelTable(&q.ex.lut, norm, 1, q.s, q.bitsPer))
}

// Exchange allgathers every worker's packed stream (equal sizes), decodes
// each and averages into g. Dequantize-then-reduce matches how QSGD composes
// with allreduce-style synchronization in practice: quantized streams are
// not reducible in their packed form.
func (q *QSGD) Exchange(p Payload, g []float32, c *comm.Communicator) error {
	return q.ExchangeView(p, q.fv.Reset1(g), c)
}

// ExchangeView implements Algorithm: each worker's stream is decoded and
// averaged straight into the view's segments (levelExchange) — bitwise
// identical to the flat reconstruction.
func (q *QSGD) ExchangeView(p Payload, v *tensor.VecView, c *comm.Communicator) error {
	return q.ex.run(p, v, c, q.s, q.bitsPer)
}

// ExchangeKind implements Algorithm. The paper groups QSGD with the
// allreduce-style methods in its Table 2 traffic accounting (2.8n+32 bits
// per worker), so the α–β model treats its stream as an allreduce payload.
func (q *QSGD) ExchangeKind() netsim.ExchangeKind { return netsim.ExchangeAllreduce }

// PayloadBytes implements Algorithm: (bitsPer·n + 32)/8.
func (q *QSGD) PayloadBytes(n int) int64 {
	return (int64(n)*int64(q.bitsPer) + 32 + 7) / 8
}

// Reset implements Algorithm (QSGD is unbiased; no residual state).
func (q *QSGD) Reset() {}

// SaveState implements StateSaver: the stochastic-rounding RNG position.
func (q *QSGD) SaveState() State {
	var s State
	st := q.rng.State()
	s.setWords("rng", st[:])
	return s
}

// LoadState implements StateLoader.
func (q *QSGD) LoadState(s State) {
	if w := s.words("rng"); len(w) == 4 {
		q.rng.SetState([4]uint64{w[0], w[1], w[2], w[3]})
	}
}

// ---- TernGrad ----

// TernGrad (Wen et al., the paper's reference [20]) quantizes each entry to
// {-1, 0, +1} scaled by max|g| with stochastic rounding — the 3-level corner
// of the quantization family. Included as an extension algorithm.
type TernGrad struct {
	rng *tensor.RNG
	// Reusable scratch: packed words + bit-cast payload of the current
	// Encode (the payload aliases the words — valid until the next
	// Encode), per-block kernel buffers and the exchange buffers.
	words  []uint32
	data   []float32
	fields []uint32
	rnd    []float64
	ex     levelExchange
	fv     tensor.VecView // flat-call adapter view
}

// NewTernGrad builds a TernGrad quantizer.
func NewTernGrad(o Options) *TernGrad {
	o.validate()
	return &TernGrad{rng: tensor.NewRNG(o.Seed)}
}

// Name implements Algorithm.
func (t *TernGrad) Name() string { return "terngrad" }

// Encode packs each entry into 2 bits: [sign:1][nonzero:1], preceded by the
// 32-bit scale max|g|. The returned payload aliases instance scratch (valid
// until the next Encode).
func (t *TernGrad) Encode(g []float32) Payload {
	return t.EncodeView(t.fv.Reset1(g))
}

// EncodeView implements Algorithm over a strided view (same bitwise-flat
// blocked structure as QSGD's).
func (t *TernGrad) EncodeView(v *tensor.VecView) Payload {
	n := v.Len()
	scale := v.AbsMax()
	words := growU32(&t.words, 1+(n*2+31)/32)
	clear(words)
	words[0] = math.Float32bits(scale)
	if scale > 0 {
		// TernGrad is the levels=1 corner of the stochastic level
		// quantization family: level ∈ {0,1} with P(1) = |x|/scale, so it
		// shares the QSGD kernel (SIMD on amd64) and block structure.
		bitPos := uint64(0)
		si := 0
		for lo := 0; lo < n; lo += quantBlock {
			m := min(quantBlock, n-lo)
			rnd := growF64(&t.rnd, m)
			t.rng.Float64Vec(rnd)
			fields := growU32(&t.fields, m)
			quantizeViewBlock(fields, v, &si, lo, rnd, scale, 1)
			bitPos = tensor.PackFields(words[1:], fields, 2, bitPos)
		}
	}
	return Payload{Bits: int64(2*n) + 32, Data: wordsPayload(words, &t.data)}
}

// Exchange allgathers and averages the ternary streams.
func (t *TernGrad) Exchange(p Payload, g []float32, c *comm.Communicator) error {
	return t.ExchangeView(p, t.fv.Reset1(g), c)
}

// ExchangeView implements Algorithm: the QSGD level exchange at s = 1 with
// 2-bit fields, where level 1 decodes to the scale max|g| itself.
func (t *TernGrad) ExchangeView(p Payload, v *tensor.VecView, c *comm.Communicator) error {
	return t.ex.run(p, v, c, 1, 2)
}

// ExchangeKind implements Algorithm.
func (t *TernGrad) ExchangeKind() netsim.ExchangeKind { return netsim.ExchangeAllreduce }

// PayloadBytes implements Algorithm: (2n + 32)/8.
func (t *TernGrad) PayloadBytes(n int) int64 { return (int64(2*n) + 32 + 7) / 8 }

// Reset implements Algorithm.
func (t *TernGrad) Reset() {}

// SaveState implements StateSaver: the stochastic-rounding RNG position.
func (t *TernGrad) SaveState() State {
	var s State
	st := t.rng.State()
	s.setWords("rng", st[:])
	return s
}

// LoadState implements StateLoader.
func (t *TernGrad) LoadState(s State) {
	if w := s.words("rng"); len(w) == 4 {
		t.rng.SetState([4]uint64{w[0], w[1], w[2], w[3]})
	}
}
