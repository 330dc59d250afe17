package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime"
	"sync"
	"time"

	"a2sgd/internal/comm"
	"a2sgd/internal/comm/tcpnet"
	"a2sgd/internal/compress"
	"a2sgd/internal/tensor"
)

// vgg16Params is the gradient length of the paper's VGG-16 (CIFAR-10 head).
const vgg16Params = 14_728_266

// exchangeAlgs are assigned to buckets round-robin: the paper's comparison
// set, each at its registry defaults.
var exchangeAlgs = []string{"dense", "a2sgd", "topk", "qsgd"}

// exTargetSyncs is the exchange workload's target for time_to_target_s: it
// has no model and no held-out loss, so its target is a fixed count of
// completed full-gradient synchronisations.
const exTargetSyncs = 8

// exchangeSpec sizes the model-free exchange workload.
type exchangeSpec struct {
	params, bucket int
	steps          int // timed synchronisations after one warm-up
	pool           int // per-rank pool of gradient values the refill cycles through
}

// bucketOp is the typed operation a rank posts per bucket: one bucket's
// exchange on the context communicator comm assigns it.
type bucketOp struct {
	bk *compress.Bucketed
	b  int
	p  compress.Payload
	g  []float32
}

func (o *bucketOp) RunOp(c *comm.Communicator) error { return o.bk.ExchangeBucket(o.b, o.p, o.g, c) }

// exInputs is the exchange workload's seeded input: per-rank pools and the
// offset each step's refill starts at. Built before the timed section.
type exInputs struct {
	pool [2][]float32
	off  [2][]int
}

func newExInputs(es exchangeSpec, seed uint64) *exInputs {
	in := &exInputs{}
	for rk := range in.pool {
		rng := tensor.NewRNG(seed*2 + uint64(rk) + 1)
		// Gradient-like values: zero-mean normal with a per-rank scale.
		p := make([]float32, es.pool)
		rng.NormVec(p, 0, float32(1e-3*(1+rng.Float64())))
		in.pool[rk] = p
		in.off[rk] = make([]int, es.steps+1)
		for s := range in.off[rk] {
			in.off[rk][s] = rng.Intn(es.pool)
		}
	}
	return in
}

// at returns rank rk's input element i at step s.
func (in *exInputs) at(rk, s, i int) float32 {
	p := in.pool[rk]
	return p[(in.off[rk][s]+i)%len(p)]
}

// refill writes rank rk's step-s gradient into g.
func (in *exInputs) refill(g []float32, rk, s int) {
	p := in.pool[rk]
	o := in.off[rk][s]
	for done := 0; done < len(g); {
		done += copy(g[done:], p[o:])
		o = 0
	}
}

// runExchange runs one repetition of the exchange workload: set-up (mesh
// connect, bucket and algorithm construction, one warm-up synchronisation
// that grows every scratch buffer), then es.steps timed synchronisations of
// the full gradient by both ranks. Each step encodes every bucket and posts
// its exchange with comm.Post as soon as it is encoded, then waits with
// WaitAll.
func runExchange(es exchangeSpec, seed uint64, tr *tracer) (*rep, error) {
	in := newExInputs(es, seed)
	n := es.params
	bounds := []int{0}
	for lo := es.bucket; lo < n; lo += es.bucket {
		bounds = append(bounds, lo)
	}
	bounds = append(bounds, n)
	nb := len(bounds) - 1

	r := &rep{steps: es.steps}
	runtime.GC()
	start := time.Now()
	cs, shutdown, err := tcpnet.NewLocalGroup(2)
	if err != nil {
		return nil, err
	}
	defer shutdown()
	if tr != nil {
		tr.groupSetup = time.Since(start)
		for _, c := range cs {
			tr.observe(c)
		}
	}

	var grads [2][]float32
	var sent [2]int64
	var setupEnd time.Time
	var wg sync.WaitGroup
	errs := make([]error, 2)
	fails := make([][]string, 2)
	for rk, c := range cs {
		wg.Add(1)
		go func(rk int, c *comm.Communicator) {
			defer wg.Done()
			bk := compress.NewBucketed(bounds, func(b, bn int) compress.Algorithm {
				o := compress.DefaultOptions(bn)
				o.Seed = compress.BucketSeed(seed, rk, b)
				a, err := compress.ParseBuild(exchangeAlgs[b%len(exchangeAlgs)], o)
				if err != nil {
					panic(fmt.Sprintf("perfbench: %v", err))
				}
				return tr.wrap(rk, a)
			})
			g := make([]float32, n)
			grads[rk] = g
			ops := make([]bucketOp, nb)
			reqs := make([]comm.Request, 0, nb)
			for s := 0; s <= es.steps; s++ {
				in.refill(g, rk, s)
				if s == 1 && rk == 0 && tr != nil {
					// Drop the warm-up's spans; rank 1 cannot start step 1
					// before rank 0 reaches the barrier.
					tr.reset()
				}
				if err := c.Barrier(); err != nil {
					errs[rk] = err
					shutdown()
					return
				}
				if s == 1 && rk == 0 {
					setupEnd = time.Now()
				}
				before := c.Traffic().BytesSent
				t0 := time.Now()
				for b := 0; b < nb; b++ {
					gb := bk.BucketSlice(b, g)
					ops[b] = bucketOp{bk: bk, b: b, p: bk.EncodeBucket(b, gb), g: gb}
					reqs = append(reqs, c.Post(&ops[b]))
				}
				var wStart int64
				if tr != nil {
					wStart = tr.now()
				}
				err := comm.WaitAll(reqs)
				t1 := time.Now()
				reqs = reqs[:0]
				if err != nil {
					errs[rk] = fmt.Errorf("step %d: %w", s, err)
					shutdown()
					return
				}
				if s == 0 {
					continue
				}
				sent[rk] += c.Traffic().BytesSent - before
				if rk == 0 {
					r.stepSec = append(r.stepSec, t1.Sub(t0).Seconds())
					if tr != nil {
						tr.add(span{name: spanWait, step: s, start: wStart, end: tr.now()})
					}
				}
				fails[rk] = append(fails[rk], checkStep(in, g, bounds, rk, s)...)
			}
		}(rk, c)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return nil, err
		}
	}
	for _, f := range fails {
		for _, msg := range f {
			r.fail("%s", msg)
		}
	}
	r.setup = setupEnd.Sub(start).Seconds()
	for _, d := range r.stepSec {
		r.runWall += d
	}
	r.ttt = r.setup
	for k := 0; k < exTargetSyncs && k < len(r.stepSec); k++ {
		r.ttt += r.stepSec[k]
	}
	r.bytes = float64(sent[0]+sent[1]) / 2 / float64(es.steps)
	r.evalLoss = relError(in, grads[0], es.steps)
	// Replicated algorithms leave identical buckets on both ranks; A2SGD
	// replicas differ by design.
	for b := 0; b < nb; b++ {
		if exchangeAlgs[b%len(exchangeAlgs)] == "a2sgd" {
			continue
		}
		for i := bounds[b]; i < bounds[b+1]; i++ {
			if math.Float32bits(grads[0][i]) != math.Float32bits(grads[1][i]) {
				r.fail("bucket %d (%s): ranks disagree at element %d", b, exchangeAlgs[b%len(exchangeAlgs)], i)
				break
			}
		}
	}
	dg := fnv.New64a()
	for _, g := range grads {
		var h uint64 = 14695981039346656037
		for _, x := range g {
			h = (h ^ uint64(math.Float32bits(x))) * 1099511628211
		}
		writeU64(dg, h)
	}
	r.digest = dg.Sum64()
	return r, nil
}

// checkStep verifies one rank's synchronised gradient after step s: every
// element finite, and every dense bucket bitwise equal to the exact mean of
// the two ranks' inputs ((a+b)*0.5 is exact in either summation order).
func checkStep(in *exInputs, g []float32, bounds []int, rk, s int) []string {
	var out []string
	for b := 0; b+1 < len(bounds); b++ {
		alg := exchangeAlgs[b%len(exchangeAlgs)]
		for i := bounds[b]; i < bounds[b+1]; i++ {
			x := g[i]
			if math.IsNaN(float64(x)) || math.IsInf(float64(x), 0) {
				out = append(out, fmt.Sprintf("rank %d step %d bucket %d (%s): non-finite element %d", rk, s, b, alg, i))
				break
			}
			if alg == "dense" && math.Float32bits(x) != math.Float32bits((in.at(0, s, i)+in.at(1, s, i))*0.5) {
				out = append(out, fmt.Sprintf("rank %d step %d bucket %d: dense mean differs at element %d", rk, s, b, i))
				break
			}
		}
	}
	return out
}

// relError is the squared error of rank 0's synchronised gradient relative
// to the exact mean of the inputs at step s: the quality the compressed
// exchange gives up (0 for an all-dense gradient).
func relError(in *exInputs, g []float32, s int) float64 {
	var num, den float64
	for i, x := range g {
		m := float64((in.at(0, s, i) + in.at(1, s, i)) * 0.5)
		d := float64(x) - m
		num += d * d
		den += m * m
	}
	return num / den
}
