package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"a2sgd/internal/comm"
	"a2sgd/internal/comm/tcpnet"
	"a2sgd/internal/compress"
	"a2sgd/internal/tensor"
)

// Span names. Each is recorded from the benchmark's side of a layer
// boundary: around a call into the layer, or from an observer hook the layer
// already exposes.
const (
	spanEncode   = "compress.encode"   // Algorithm.Encode/EncodeView on the rank goroutine
	spanExchange = "compress.exchange" // Algorithm.Exchange/ExchangeView: collective plus reconstruct
	spanOp       = "comm.op"           // one posted operation on a progress worker (SetOpObserver)
	spanSend     = "comm.send"         // one point-to-point send (SetSendObserver)
	spanWait     = "comm.wait"         // WaitAll on the exchange workload's step loop
	spanSnapshot = "elastic.snapshot"  // one persisted A2SV snapshot
)

// span is one timed interval. Times are nanoseconds since the tracer's
// epoch; parent is the index of the span that caused it (-1 for none),
// assigned by link when the run ends. (rank, step) identify the step the span belongs to
// within the workload the tracer serves.
type span struct {
	name       string
	alg        string // algorithm of a compress span, "" otherwise
	rank, step int
	start, end int64
	bytes      int // payload of a send
	parent     int
}

func (s *span) dur() int64 { return s.end - s.start }

// tracer keeps every span of one traced repetition in memory. All recording
// methods are safe for concurrent use: encodes run on rank goroutines,
// exchanges and sends on progress workers and send goroutines.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
	// groupSetup is the loopback mesh connect time seen by the group runner.
	groupSetup time.Duration
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

func (t *tracer) now() int64 { return int64(time.Since(t.epoch)) }

func (t *tracer) add(s span) {
	s.parent = -1
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// reset drops every span recorded so far.
func (t *tracer) reset() {
	t.mu.Lock()
	t.spans = t.spans[:0]
	t.mu.Unlock()
}

// tracedAlg is the timing decorator Config.NewBucketAlgorithm installs: it
// records every encode and exchange of one bucket's algorithm instance. The
// k-th encode of a bucket belongs to step k; an exchange belongs to the step
// of the encode before it. It forwards compress.StateSaver/StateLoader, so
// snapshots and restores see the inner algorithm's state unchanged.
type tracedAlg struct {
	compress.Algorithm
	t       *tracer
	rank    int
	encodes int
}

func (a *tracedAlg) rec(name string, start int64) {
	a.t.add(span{name: name, alg: a.Name(), rank: a.rank, step: a.encodes - 1, start: start, end: a.t.now()})
}

func (a *tracedAlg) Encode(g []float32) compress.Payload {
	s := a.t.now()
	a.encodes++
	p := a.Algorithm.Encode(g)
	a.rec(spanEncode, s)
	return p
}

func (a *tracedAlg) EncodeView(v *tensor.VecView) compress.Payload {
	s := a.t.now()
	a.encodes++
	p := a.Algorithm.EncodeView(v)
	a.rec(spanEncode, s)
	return p
}

func (a *tracedAlg) Exchange(p compress.Payload, g []float32, c *comm.Communicator) error {
	s := a.t.now()
	err := a.Algorithm.Exchange(p, g, c)
	a.rec(spanExchange, s)
	return err
}

func (a *tracedAlg) ExchangeView(p compress.Payload, v *tensor.VecView, c *comm.Communicator) error {
	s := a.t.now()
	err := a.Algorithm.ExchangeView(p, v, c)
	a.rec(spanExchange, s)
	return err
}

func (a *tracedAlg) SaveState() compress.State {
	if sv, ok := a.Algorithm.(compress.StateSaver); ok {
		return sv.SaveState()
	}
	return compress.State{}
}

func (a *tracedAlg) LoadState(st compress.State) {
	if ld, ok := a.Algorithm.(compress.StateLoader); ok {
		ld.LoadState(st)
	}
}

// wrap decorates alg when tracing is on.
func (t *tracer) wrap(rank int, alg compress.Algorithm) compress.Algorithm {
	if t == nil {
		return alg
	}
	return &tracedAlg{Algorithm: alg, t: t, rank: rank}
}

// observe installs the comm observer hooks on one rank's communicator. Send
// and op observers report a duration at completion, so the span's start is
// reconstructed as completion minus duration.
func (t *tracer) observe(c *comm.Communicator) {
	rank := c.Rank()
	c.SetSendObserver(func(_, nBytes int, sec float64) {
		end := t.now()
		t.add(span{name: spanSend, rank: rank, step: -1, start: end - int64(sec*1e9), end: end, bytes: nBytes})
	})
	c.SetOpObserver(func(sec float64) {
		end := t.now()
		t.add(span{name: spanOp, rank: rank, step: -1, start: end - int64(sec*1e9), end: end})
	})
}

// tcpRunner is the Config.GroupRunner of the TCP training workload: the
// public loopback runner, with the mesh connect time measured and, when
// tracing, the comm observers installed on every rank before the training
// body runs. Config.Health stays unset: cluster would replace these
// observers with its own.
func tcpRunner(t *tracer) func(int, func(*comm.Communicator) error) error {
	if t == nil {
		return tcpnet.RunGroup
	}
	return func(size int, body func(*comm.Communicator) error) error {
		start := time.Now()
		var once sync.Once
		return tcpnet.RunGroup(size, func(c *comm.Communicator) error {
			once.Do(func() { t.groupSetup = time.Since(start) })
			t.observe(c)
			return body(c)
		})
	}
}

// link assigns parents on the same rank: a send's parent is the exchange
// it falls in, an exchange's the op that ran it. Rank goroutines and
// progress workers interleave, so overlap in time rather than call stacks
// relates them. The parent is the candidate overlapping the child most, and
// must cover at least half of it: op and send spans are reconstructed from
// a duration reported after the fact, so their edges are off by however
// long the reporting goroutine was descheduled, and strict containment
// would drop them.
func (t *tracer) link() {
	parentKind := map[string]string{spanSend: spanExchange, spanExchange: spanOp}
	type group struct {
		rank int
		name string
	}
	byStart := map[group][]int{}
	for i := range t.spans {
		g := group{t.spans[i].rank, t.spans[i].name}
		byStart[g] = append(byStart[g], i)
	}
	for _, idx := range byStart {
		sort.Slice(idx, func(a, b int) bool { return t.spans[idx[a]].start < t.spans[idx[b]].start })
	}
	for i := range t.spans {
		s := &t.spans[i]
		pk, ok := parentKind[s.name]
		if !ok {
			continue
		}
		cands := byStart[group{s.rank, pk}]
		// Candidates starting after the child ends cannot overlap it; of
		// the rest only the last few can, since a rank has at most a few
		// exchanges in flight.
		j := sort.Search(len(cands), func(j int) bool { return t.spans[cands[j]].start > s.end })
		best, bestOv := -1, int64(-1)
		for k := j - 1; k >= 0 && k >= j-32; k-- {
			p := &t.spans[cands[k]]
			if ov := min(p.end, s.end) - max(p.start, s.start); ov > bestOv {
				best, bestOv = cands[k], ov
			}
		}
		if best >= 0 && 2*bestOv >= s.dur() {
			s.parent = best
		}
	}
	// Sends take their exchange's step, ops the step of the exchange they ran.
	for i := range t.spans {
		s := &t.spans[i]
		switch {
		case s.parent < 0:
		case s.name == spanSend:
			s.step = t.spans[s.parent].step
		case s.name == spanExchange:
			t.spans[s.parent].step = s.step
		}
	}
}

// childCover returns, per span index, the time its direct children cover.
// Children of one parent run on one goroutine, except concurrent TCP send
// halves, so their union is taken rather than their sum.
func (t *tracer) childCover() []int64 {
	kids := map[int][][2]int64{}
	for i := range t.spans {
		if p := t.spans[i].parent; p >= 0 {
			kids[p] = append(kids[p], [2]int64{t.spans[i].start, t.spans[i].end})
		}
	}
	cover := make([]int64, len(t.spans))
	for p, iv := range kids {
		sort.Slice(iv, func(a, b int) bool { return iv[a][0] < iv[b][0] })
		var sum, curS, curE int64
		curS, curE = iv[0][0], iv[0][1]
		for _, x := range iv[1:] {
			if x[0] > curE {
				sum += curE - curS
				curS, curE = x[0], x[1]
			} else if x[1] > curE {
				curE = x[1]
			}
		}
		cover[p] = sum + curE - curS
	}
	return cover
}

// write dumps the spans as one JSON object per line.
func (t *tracer) write(path, workload string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	for i, s := range t.spans {
		fmt.Fprintf(w, `{"id":%d,"name":%q,"alg":%q,"workload":%q,"rank":%d,"step":%d,"start_ns":%d,"end_ns":%d,"bytes":%d,"parent":%d}`+"\n",
			i, s.name, s.alg, workload, s.rank, s.step, s.start, s.end, s.bytes, s.parent)
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
