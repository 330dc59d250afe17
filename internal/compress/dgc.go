package compress

import (
	"a2sgd/internal/comm"
	"a2sgd/internal/netsim"
	"a2sgd/internal/tensor"
)

// DGC implements the core of Deep Gradient Compression (Lin et al., the
// paper's reference [37]): Top-K sparsification with *momentum correction*.
// Plain error feedback accumulates raw gradients in the residual, which
// stalls momentum-SGD; DGC instead accumulates a locally-updated momentum
// and transmits the largest entries of the accumulated velocity, applying
// momentum-factor masking (both buffers are cleared at transmitted
// coordinates). Gradient clipping — the other DGC ingredient — is omitted:
// the training runtime already guards against non-finite gradients.
type DGC struct {
	k        int
	momentum float32
	u        []float32 // momentum accumulator
	v        []float32 // velocity accumulator
	sc       sparseScratch
}

// NewDGC builds a DGC compressor with momentum 0.9 (Lin et al.'s setting).
func NewDGC(o Options) *DGC {
	o.validate()
	return &DGC{
		k:        o.K(),
		momentum: 0.9,
		u:        make([]float32, o.N),
		v:        make([]float32, o.N),
		sc:       newSparseScratch(o.K()),
	}
}

// Name implements Algorithm.
func (d *DGC) Name() string { return "dgc" }

// K exposes the selection count.
func (d *DGC) K() int { return d.k }

// Encode folds g into the momentum and velocity buffers, selects the top-k
// velocity entries, and clears them in both buffers (momentum factor
// masking). The returned payload aliases instance scratch (valid until the
// next Encode).
func (d *DGC) Encode(g []float32) Payload {
	return d.EncodeView(d.sc.fv.Reset1(g))
}

// EncodeView implements Algorithm: the momentum/velocity fold reads the
// view's segments element-for-element in flattened order (the accumulators
// stay flat, indexed by the flattened offset); selection is unchanged.
func (d *DGC) EncodeView(view *tensor.VecView) Payload {
	if view.Len() != len(d.u) {
		panic("compress: gradient length changed between steps")
	}
	offs := view.Offsets()
	for si, seg := range view.Segments() {
		u, vel := d.u[offs[si]:], d.v[offs[si]:]
		for i, x := range seg {
			u[i] = d.momentum*u[i] + x
			vel[i] += u[i]
		}
	}
	d.sc.topK(d.v, d.k)
	d.sc.valuesAt(d.v)
	for _, ix := range d.sc.idx {
		d.v[ix] = 0
		d.u[ix] = 0
	}
	return d.sc.payload()
}

// Exchange implements Algorithm via the sparse allgather.
func (d *DGC) Exchange(p Payload, g []float32, c *comm.Communicator) error {
	return sparseExchange(p, g, c, &d.sc.agv)
}

// ExchangeView implements Algorithm, scatter-adding into the view.
func (d *DGC) ExchangeView(p Payload, v *tensor.VecView, c *comm.Communicator) error {
	return sparseExchangeView(p, v, c, &d.sc.agv)
}

// ExchangeKind implements Algorithm.
func (d *DGC) ExchangeKind() netsim.ExchangeKind { return netsim.ExchangeAllgatherV }

// PayloadBytes implements Algorithm: 32k bits (value accounting).
func (d *DGC) PayloadBytes(n int) int64 { return int64(4 * d.k) }

// Reset implements Algorithm.
func (d *DGC) Reset() {
	for i := range d.u {
		d.u[i] = 0
		d.v[i] = 0
	}
}

// SaveState implements StateSaver: both accumulators, element-aligned.
func (d *DGC) SaveState() State {
	var s State
	s.setVec("dgc.u", d.u)
	s.setVec("dgc.v", d.v)
	return s
}

// LoadState implements StateLoader.
func (d *DGC) LoadState(s State) {
	s.vec("dgc.u", d.u)
	s.vec("dgc.v", d.v)
}
