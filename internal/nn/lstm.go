package nn

import (
	"fmt"
	"math"

	"a2sgd/internal/tensor"
)

// LSTMLM is a word-level multi-layer LSTM language model: embedding → one
// or more stacked LSTM layers unrolled over the sequence → vocabulary
// projection, trained with softmax cross-entropy on next-token prediction.
// It is the architecture family of the paper's LSTM-PTB workload: with
// vocab 10,000, embedding/hidden 1500 and two layers the parameter count is
// 66.0 M — the paper's Table 1 entry (see models.TestPaperScaleLSTMCount).
//
// Because the recurrent weights are shared across timesteps, the model
// manages its own backpropagation-through-time rather than implementing the
// feed-forward Layer interface.
type LSTMLM struct {
	Vocab, Embed, Hidden, Layers int

	// Parameters. Gate layout within the 4H dimension: [i f g o].
	E      []float32   // (Vocab, Embed) embedding
	Wx     [][]float32 // per layer: (4H, in) with in = Embed (l=0) or Hidden
	Wh     [][]float32 // per layer: (4H, Hidden)
	B      [][]float32 // per layer: (4H)
	Wy, By []float32   // (Vocab, Hidden), (Vocab) output projection

	GE, GWy, GBy []float32
	GWx, GWh, GB [][]float32

	// Flattened-parameter cache, built on first use: the distributed step
	// asks for the parameter list and offset table every iteration, and
	// BackwardInterleaved reports readiness in terms of the offsets.
	params   []Param
	paramOff []int

	// Forward packs Wx/Wh/Wy transposed here once per call, so every
	// timestep's products read them through tensor.MatMulABTPacked.
	wxT, whT []tensor.Mat
	wyT      tensor.Mat

	// tokens is the sequence batch of the last training Forward, nil once
	// Backward has consumed it.
	tokens [][]int
	// train is the training Forward's workspace, kept across calls so the
	// steady-state step allocates nothing. An evaluation Forward builds a
	// workspace per call: it runs once per epoch, and its batch size must
	// not evict this one.
	train lstmWork
}

// lstmWork holds every matrix of one Forward and its BPTT: the caches
// indexed [layer][t] and the per-step temporaries. It is reallocated only
// when the batch size or sequence length changes.
type lstmWork struct {
	B, T    int
	xs      [][]tensor.Mat // layer inputs per t: (B, in); l > 0 views hs[l-1][t+1]
	hs, cs  [][]tensor.Mat // states per t (index t+1; index 0 stays zero)
	gates   [][]tensor.Mat // post-activation gate values per t: (B, 4H)
	tanhC   [][]tensor.Mat // tanh(c_t) per t
	dlogits []tensor.Mat   // per t: (B, Vocab)
	logits  tensor.Mat     // (B, Vocab)
	labels  []int          // (B)
	zh, dz  tensor.Mat     // (B, 4H): h·Whᵀ in Forward, dL/dz in Backward
	dx      tensor.Mat     // (B, Embed): layer 0's input gradient
	// Per-layer carried state gradients and the next timestep's, swapped
	// after each layer's step.
	dh, dc, ndh, ndc []tensor.Mat // (B, H)
}

// mats carves n rows×cols matrices out of one zeroed allocation.
func mats(n, rows, cols int) []tensor.Mat {
	sz := rows * cols
	data := make([]float32, n*sz)
	ms := make([]tensor.Mat, n)
	for i := range ms {
		ms[i] = tensor.Mat{Rows: rows, Cols: cols, Data: data[i*sz : (i+1)*sz : (i+1)*sz]}
	}
	return ms
}

// ensure sizes the workspace for batch B and T predictions.
func (ws *lstmWork) ensure(m *LSTMLM, B, T int) {
	if ws.B == B && ws.T == T {
		return
	}
	L, H, h4 := m.Layers, m.Hidden, 4*m.Hidden
	*ws = lstmWork{B: B, T: T,
		xs: make([][]tensor.Mat, L), hs: make([][]tensor.Mat, L), cs: make([][]tensor.Mat, L),
		gates: make([][]tensor.Mat, L), tanhC: make([][]tensor.Mat, L),
		dlogits: mats(T, B, m.Vocab), logits: *tensor.NewMat(B, m.Vocab), labels: make([]int, B),
		zh: *tensor.NewMat(B, h4), dz: *tensor.NewMat(B, h4), dx: *tensor.NewMat(B, m.Embed),
		dh: mats(L, B, H), dc: mats(L, B, H), ndh: mats(L, B, H), ndc: mats(L, B, H),
	}
	for l := 0; l < L; l++ {
		if l == 0 {
			ws.xs[l] = mats(T, B, m.Embed)
		} else {
			ws.xs[l] = ws.hs[l-1][1:]
		}
		ws.hs[l] = mats(T+1, B, H)
		ws.cs[l] = mats(T+1, B, H)
		ws.gates[l] = mats(T, B, h4)
		ws.tanhC[l] = mats(T, B, H)
	}
}

// NewLSTMLM builds a single-layer model with Xavier initialization.
func NewLSTMLM(rng *tensor.RNG, vocab, embed, hidden int) *LSTMLM {
	return NewDeepLSTMLM(rng, vocab, embed, hidden, 1)
}

// NewDeepLSTMLM builds a stacked model with the given layer count.
func NewDeepLSTMLM(rng *tensor.RNG, vocab, embed, hidden, layers int) *LSTMLM {
	if layers < 1 {
		panic("nn: LSTM needs at least one layer")
	}
	m := &LSTMLM{Vocab: vocab, Embed: embed, Hidden: hidden, Layers: layers}
	h4 := 4 * hidden
	m.E = make([]float32, vocab*embed)
	m.Wy = make([]float32, vocab*hidden)
	m.By = make([]float32, vocab)
	m.GE = make([]float32, len(m.E))
	m.GWy = make([]float32, len(m.Wy))
	m.GBy = make([]float32, len(m.By))
	InitUniform(rng, m.E, 0.1)
	InitXavier(rng, m.Wy, hidden, vocab)
	for l := 0; l < layers; l++ {
		in := embed
		if l > 0 {
			in = hidden
		}
		wx := make([]float32, h4*in)
		wh := make([]float32, h4*hidden)
		b := make([]float32, h4)
		InitXavier(rng, wx, in, h4)
		InitXavier(rng, wh, hidden, h4)
		// Forget-gate bias starts at 1 — the standard trick for gradient flow.
		for i := hidden; i < 2*hidden; i++ {
			b[i] = 1
		}
		m.Wx = append(m.Wx, wx)
		m.Wh = append(m.Wh, wh)
		m.B = append(m.B, b)
		m.GWx = append(m.GWx, make([]float32, len(wx)))
		m.GWh = append(m.GWh, make([]float32, len(wh)))
		m.GB = append(m.GB, make([]float32, len(b)))
	}
	return m
}

// buildCache flattens the parameter list and its prefix-offset table once.
// Parameter order: E, then (Wx, Wh, b) per layer, then Wy, By — so the
// offset of layer l's first tensor is paramOff[1+3l] and the output
// projection starts at paramOff[1+3*Layers].
func (m *LSTMLM) buildCache() {
	ps := []Param{{Name: "lstm.E", W: m.E, G: m.GE}}
	for l := 0; l < m.Layers; l++ {
		ps = append(ps,
			Param{Name: fmt.Sprintf("lstm.%d.Wx", l), W: m.Wx[l], G: m.GWx[l]},
			Param{Name: fmt.Sprintf("lstm.%d.Wh", l), W: m.Wh[l], G: m.GWh[l]},
			Param{Name: fmt.Sprintf("lstm.%d.b", l), W: m.B[l], G: m.GB[l]},
		)
	}
	ps = append(ps,
		Param{Name: "lstm.Wy", W: m.Wy, G: m.GWy},
		Param{Name: "lstm.by", W: m.By, G: m.GBy},
	)
	m.params = ps
	m.paramOff = ParamOffsets(ps)
}

// Params returns the learnable tensors. The slice is cached; callers must
// not modify it.
func (m *LSTMLM) Params() []Param {
	if m.params == nil {
		m.buildCache()
	}
	return m.params
}

// ParamOffsets returns the cached prefix-offset table of the flattened
// parameter vector (one trailing entry = NumParams()).
func (m *LSTMLM) ParamOffsets() []int {
	if m.params == nil {
		m.buildCache()
	}
	return m.paramOff
}

// NumParams returns the learnable parameter count.
func (m *LSTMLM) NumParams() int {
	off := m.ParamOffsets()
	return off[len(off)-1]
}

func sigmoid(x float32) float32 {
	return float32(1 / (1 + math.Exp(-float64(x))))
}

// layerIn returns layer l's input width.
func (m *LSTMLM) layerIn(l int) int {
	if l == 0 {
		return m.Embed
	}
	return m.Hidden
}

// packWeights refreshes the transposed copies of Wx, Wh and Wy.
func (m *LSTMLM) packWeights() {
	H, h4 := m.Hidden, 4*m.Hidden
	if m.wxT == nil {
		for l := 0; l < m.Layers; l++ {
			m.wxT = append(m.wxT, *tensor.NewMat(m.layerIn(l), h4))
			m.whT = append(m.whT, *tensor.NewMat(H, h4))
		}
		m.wyT = *tensor.NewMat(H, m.Vocab)
	}
	for l := 0; l < m.Layers; l++ {
		tensor.Transpose(&m.wxT[l], tensor.MatFrom(h4, m.layerIn(l), m.Wx[l]))
		tensor.Transpose(&m.whT[l], tensor.MatFrom(h4, H, m.Wh[l]))
	}
	tensor.Transpose(&m.wyT, tensor.MatFrom(m.Vocab, H, m.Wy))
}

// cellForward runs layer l for timestep t of the workspace: from the input
// xs[l][t] and the previous hs/cs[l][t] it writes the post-activation
// [i f g o] gates, tanhC[l][t] and the new hs/cs[l][t+1].
func (m *LSTMLM) cellForward(ws *lstmWork, l, t int) {
	H := m.Hidden
	z := &ws.gates[l][t]
	tensor.MatMulABTPacked(z, &ws.xs[l][t], &m.wxT[l])
	tensor.MatMulABTPacked(&ws.zh, &ws.hs[l][t], &m.whT[l])
	tensor.Add(z.Data, ws.zh.Data)
	tensor.AddRowVec(z, m.B[l])
	c := &ws.cs[l][t]
	newH, newC, tc := &ws.hs[l][t+1], &ws.cs[l][t+1], &ws.tanhC[l][t]
	for b := 0; b < ws.B; b++ {
		zr := z.Row(b)
		cPrev := c.Row(b)
		hr, cr, tr := newH.Row(b), newC.Row(b), tc.Row(b)
		for j := 0; j < H; j++ {
			ig := sigmoid(zr[j])
			fg := sigmoid(zr[H+j])
			gg := float32(math.Tanh(float64(zr[2*H+j])))
			og := sigmoid(zr[3*H+j])
			zr[j], zr[H+j], zr[2*H+j], zr[3*H+j] = ig, fg, gg, og
			cr[j] = fg*cPrev[j] + ig*gg
			tr[j] = float32(math.Tanh(float64(cr[j])))
			hr[j] = og * tr[j]
		}
	}
}

// Forward runs the model over tokens[b][t], predicting tokens[b][t+1] for
// t < T−1, and returns the mean cross-entropy per predicted token. When
// train is true the activations stay cached for Backward, and tokens must
// not change until it runs.
func (m *LSTMLM) Forward(tokens [][]int, train bool) float64 {
	B := len(tokens)
	if B == 0 {
		return 0
	}
	T := len(tokens[0]) - 1 // predictions
	if T < 1 {
		panic("nn: LSTMLM needs sequences of length ≥ 2")
	}
	ws := &m.train
	if train {
		m.tokens = tokens
	} else {
		ws = new(lstmWork)
	}
	ws.ensure(m, B, T)
	m.packWeights()
	top := m.Layers - 1

	var totalCE float64
	for t := 0; t < T; t++ {
		// Embed tokens at position t.
		x := &ws.xs[0][t]
		for b := 0; b < B; b++ {
			tok := tokens[b][t]
			if tok < 0 || tok >= m.Vocab {
				panic(fmt.Sprintf("nn: token %d out of vocab %d", tok, m.Vocab))
			}
			copy(x.Row(b), m.E[tok*m.Embed:(tok+1)*m.Embed])
		}
		// Stack of LSTM layers; layer l > 0 reads hs[l-1][t+1] as input.
		for l := 0; l < m.Layers; l++ {
			m.cellForward(ws, l, t)
		}
		// Output logits and loss against the next token.
		tensor.MatMulABTPacked(&ws.logits, &ws.hs[top][t+1], &m.wyT)
		tensor.AddRowVec(&ws.logits, m.By)
		for b := 0; b < B; b++ {
			ws.labels[b] = tokens[b][t+1]
		}
		totalCE += SoftmaxCEInto(&ws.dlogits[t], &ws.logits, ws.labels)
	}
	return totalCE / float64(T)
}

// Backward runs truncated BPTT over the cached sequence, accumulating
// parameter gradients. The loss is the mean CE per token, matching Forward.
func (m *LSTMLM) Backward() { m.BackwardInterleaved(nil) }

// BackwardInterleaved is Backward with gradient-readiness reporting. BPTT
// accumulates every parameter's gradient across all timesteps, so nothing is
// final until the loop reaches t = 0 — but *within* that last timestep the
// stack unwinds top-down, finalizing tensors in reverse flattened order:
// the output projection (Wy, By) right after its t = 0 accumulation, then
// each layer's (Wx, Wh, b) from the top layer down, and the embedding last
// (its gradient is written by layer 0's input backprop). onReady is invoked
// with strictly decreasing offsets lo such that the flattened gradient
// elements [lo, NumParams()) are final, ending with a guaranteed
// onReady(0). nil onReady skips the reporting (plain Backward).
func (m *LSTMLM) BackwardInterleaved(onReady func(lo int)) {
	if m.tokens == nil {
		return
	}
	if m.params == nil {
		m.buildCache()
	}
	ws := &m.train
	B, T := ws.B, ws.T
	H := m.Hidden
	wy := tensor.MatFrom(m.Vocab, H, m.Wy)
	gwy := tensor.MatFrom(m.Vocab, H, m.GWy)
	for l := 0; l < m.Layers; l++ {
		tensor.Zero(ws.dh[l].Data)
		tensor.Zero(ws.dc[l].Data)
	}
	invT := float32(1.0 / float64(T))

	for t := T - 1; t >= 0; t-- {
		dlog := &ws.dlogits[t]
		// Scale: Forward averaged CE over T steps.
		tensor.Scale(dlog.Data, invT)
		top := m.Layers - 1
		tensor.MatMulATBAdd(gwy, dlog, &ws.hs[top][t+1])
		for b := 0; b < B; b++ {
			row := dlog.Row(b)
			for v, g := range row {
				m.GBy[v] += g
			}
		}
		tensor.MatMulAdd(&ws.dh[top], dlog, wy)
		if t == 0 && onReady != nil {
			// No later write touches GWy/GBy: the projection span is final.
			onReady(m.paramOff[1+3*m.Layers])
		}

		// Backward through the stack, top to bottom; dx of layer l feeds
		// dh of layer l−1 (same timestep).
		for l := top; l >= 0; l-- {
			in := m.layerIn(l)
			wx := tensor.MatFrom(4*H, in, m.Wx[l])
			wh := tensor.MatFrom(4*H, H, m.Wh[l])
			dz := &ws.dz
			newDh, newDc := &ws.ndh[l], &ws.ndc[l]
			for b := 0; b < B; b++ {
				zr := ws.gates[l][t].Row(b) // [i f g o] post-activation
				tr := ws.tanhC[l][t].Row(b)
				cPrev := ws.cs[l][t].Row(b)
				dhr, dcr := ws.dh[l].Row(b), ws.dc[l].Row(b)
				dzr := dz.Row(b)
				ndc := newDc.Row(b)
				for j := 0; j < H; j++ {
					ig, fg, gg, og := zr[j], zr[H+j], zr[2*H+j], zr[3*H+j]
					dcTot := dcr[j] + dhr[j]*og*(1-tr[j]*tr[j])
					dzr[3*H+j] = dhr[j] * tr[j] * og * (1 - og) // do
					dzr[j] = dcTot * gg * ig * (1 - ig)         // di
					dzr[H+j] = dcTot * cPrev[j] * fg * (1 - fg) // df
					dzr[2*H+j] = dcTot * ig * (1 - gg*gg)       // dg
					ndc[j] = dcTot * fg
				}
			}
			// Parameter grads.
			tensor.MatMulATBAdd(tensor.MatFrom(4*H, in, m.GWx[l]), dz, &ws.xs[l][t])
			tensor.MatMulATBAdd(tensor.MatFrom(4*H, H, m.GWh[l]), dz, &ws.hs[l][t])
			tensor.ColSums(m.GB[l], dz)
			// dx: to the embedding (l=0) or to the layer below's dh.
			if l == 0 {
				tensor.MatMul(&ws.dx, dz, wx)
				for b := 0; b < B; b++ {
					tok := m.tokens[b][t]
					tensor.Add(m.GE[tok*m.Embed:(tok+1)*m.Embed], ws.dx.Row(b))
				}
			} else {
				tensor.MatMulAdd(&ws.dh[l-1], dz, wx)
			}
			// dh_{t-1}, dc_{t-1} for this layer.
			tensor.MatMul(newDh, dz, wh)
			ws.dh[l], ws.ndh[l] = ws.ndh[l], ws.dh[l]
			ws.dc[l], ws.ndc[l] = ws.ndc[l], ws.dc[l]
			if t == 0 && onReady != nil {
				if l == 0 {
					// Layer 0's input backprop wrote the last embedding
					// gradients, so the whole vector is final.
					onReady(0)
				} else {
					onReady(m.paramOff[1+3*l])
				}
			}
		}
	}
	m.tokens = nil
}
