// Command perfbench is the repository benchmark. It runs three workloads
// through the entry points a user calls and prints one JSON result line:
//
//	go run . --workload lstm-ckpt --seed 1 --seconds 30 --trace 0
//
// (perfbench/run.sh builds it from the checkout root and runs it.) Every
// run measures for --seconds and repeats its workload as many times as fit,
// each repetition a fresh call into the entry point on an input seed
// derived from --seed. --trace 0 prints the end-to-end metrics; --trace 1
// runs untraced and traced repetitions in pairs on the same input and prints
// the per-layer metrics. A stderr line per repetition and a "fingerprint"
// line on stdout (CPU, NumCPU, GOMAXPROCS, GOARCH, Go version, SIMD or
// purego kernels) precede the JSON result; `perfbench compare A B` puts runs
// recorded with --out side by side and refuses mixed fingerprints.
//
// End-to-end metrics (medians over repetitions unless noted):
//
//   - steps_per_s: steps per second from the first step to the end of the
//     run. A step is a 2x16-sample global batch (lstm, fnn3) or one
//     full-gradient synchronisation (exchange).
//   - setup_s: entry-point call to the first step: model, bucket and
//     algorithm construction, mesh connect, weight broadcast; on the
//     exchange also one warm-up synchronisation that grows every scratch
//     buffer. The benchmark's own input generation is excluded.
//   - time_to_target_s (mean): entry-point call to the first checkpoint
//     whose history meets the quality target: held-out perplexity at most
//     twice the task's bigram perplexity (lstm), held-out loss at most 0.5
//     (fnn3), or, with no model to evaluate, 8 completed synchronisations
//     (exchange).
//   - final_eval_loss (geometric mean): held-out cross-entropy at the end
//     of the run (lstm, fnn3); on the exchange, the squared error of the
//     synchronised gradient relative to the exact mean of the inputs, the
//     quality the compressed buckets give up.
//   - bytes_per_worker_step: wire bytes each worker sends per step.
//   - peak_rss_mb: the process's peak resident memory.
//
// Output checks; each failure counts as a failed operation: the entry point
// returns an error or any loss is non-finite; the quality target is never
// met; bytes_per_worker_step differs between repetitions (every algorithm
// here has a data-independent payload size); a traced repetition differs
// from its untraced twin in loss history, final-weights checksum or bytes;
// on the exchange, a dense bucket differs from the exact mean of the ranks'
// inputs, a replicated (dense, topk, qsgd) bucket differs between ranks, or
// any element is non-finite.
//
// Workloads (2 ranks, both in this process; sized for 2 CPUs):
//
//   - lstm-ckpt: the paper's headline model at reduced scale (LSTM, 9,408
//     parameters) through elastic.Job on the in-process fabric, a2sgd in
//     8 KiB buckets with overlap and interleave, an A2SV snapshot persisted
//     every 20 steps. Stresses models/nn (forward/backward is ~80 % of the
//     step) and elastic (the only workload that writes snapshots); compress
//     is under 2 % of the step.
//   - fnn3-topk-tcp: fnn3 (9,178 parameters) through cluster.Train over
//     loopback TCP, topk(density=0.01) in 4 KiB buckets, overlap with
//     concurrency 2. Stresses comm and comm/tcpnet: many small
//     latency-bound frames, AllgatherV's two rounds, tag-space contexts, and
//     the per-call cost of compress on buckets of 1 K elements or fewer.
//     Bypasses elastic.
//   - exchange-vgg16-tcp: no model. Both ranks synchronise a paper-scale
//     VGG-16 gradient (14,728,266 floats) over loopback TCP in 1 Mi-element
//     buckets assigned round-robin to dense, a2sgd, topk and qsgd, posted
//     with comm.Post and collected with WaitAll. Stresses the compress/core
//     and tensor kernels on large vectors and bandwidth-bound 4 MiB frames;
//     bypasses models/nn, cluster and elastic. The same compress layer as
//     fnn3-topk-tcp used differently: a kernel change that speeds up large
//     vectors but adds a fixed per-call cost wins here and loses there.
//
// Which layer moves which end-to-end metric:
//
//	layer     metrics                                  bulk of the step on                  should not move
//	cluster   cluster.{compute,encode,sync_wait,       compute: lstm-ckpt steps_per_s and   -
//	          step,outside_step}_ms                    time_to_target_s; sync_wait:
//	                                                   fnn3-topk-tcp steps_per_s
//	compress  compress.{encode,exchange}_ms[.<alg>],   exchange-vgg16-tcp steps_per_s       lstm-ckpt
//	          compress.calls_per_step
//	comm      comm.{op,send}_ms.{p50,p99},             fnn3-topk-tcp steps_per_s, the       -
//	          comm.{sends,bytes}_per_step,             exchange's dense frames;
//	          comm.wait_ms, comm.group_setup_ms        group_setup_ms moves setup_s
//	elastic   elastic.{snapshot_ms,snapshot_bytes,     lstm-ckpt steps_per_s                fnn3-topk-tcp,
//	          snapshots}                                                                    exchange-vgg16-tcp
//
// With overlap, a faster exchange saves only the exposed
// cluster.sync_wait_ms; both ranks share 2 cores, so CPU one layer frees goes
// to the peer rank and the slower rank sets the step. plan, netsim, health
// and faultnet are off these workloads' default path and are not measured.
package main

import (
	"encoding/binary"
	"encoding/json"
	"flag"
	"fmt"
	"hash"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"a2sgd/internal/cluster"
	_ "a2sgd/internal/core" // registers a2sgd in the algorithm registry
	"a2sgd/internal/tensor"
)

// scratchDir holds snapshots and trace files, relative to the working
// directory (the checkout root when run through run.sh).
var scratchDir = filepath.Join(".bench_build", "run")

// rep is the outcome of one repetition: one call into a workload's entry
// point on one input seed.
type rep struct {
	setup    float64 // s, entry-point call to the first step
	steps    int
	runWall  float64 // s, first step to the end of the run
	ttt      float64 // s, entry-point call to the quality target; 0 if never
	evalLoss float64
	bytes    float64 // wire bytes per worker per step
	digest   uint64  // loss history and final weights (gradients on exchange)
	res      *cluster.Result

	stepSec   []float64 // exchange: rank 0's per-step times
	snapshots int
	snapSec   float64
	snapBytes int64
	fails     []string
}

func (r *rep) fail(format string, args ...any) {
	r.fails = append(r.fails, fmt.Sprintf(format, args...))
}

// ops is the number of operations the repetition attempted: one training
// run, or one synchronisation per timed exchange step.
func (r *rep) ops() int {
	if r.res == nil {
		return r.steps
	}
	return 1
}

func (r *rep) failedOps() int {
	return min(len(r.fails), r.ops())
}

func writeU64(h hash.Hash64, v uint64) {
	var b [8]byte
	binary.LittleEndian.PutUint64(b[:], v)
	h.Write(b[:])
}

type workload struct {
	name string
	run  func(seed uint64, tr *tracer) (*rep, error)
}

// sizes scales the workloads; the self-test runs them small.
type sizes struct {
	lstm, fnn trainSpec
	ex        exchangeSpec
}

var fullSizes = sizes{
	lstm: trainSpec{family: "lstm", spec: "a2sgd", epochs: 15, steps: 20, bucketBytes: 8192, interleave: true},
	fnn:  trainSpec{family: "fnn3", spec: "topk(density=0.01)", epochs: 5, steps: 50, bucketBytes: 4096, concurrency: 2, tcp: true},
	ex:   exchangeSpec{params: vgg16Params, bucket: 1 << 20, steps: 8, pool: 1 << 21},
}

func workloads(sz sizes) []workload {
	return []workload{
		{"lstm-ckpt", func(s uint64, tr *tracer) (*rep, error) { return runTrain(sz.lstm, s, tr) }},
		{"fnn3-topk-tcp", func(s uint64, tr *tracer) (*rep, error) { return runTrain(sz.fnn, s, tr) }},
		{"exchange-vgg16-tcp", func(s uint64, tr *tracer) (*rep, error) { return runExchange(sz.ex, s, tr) }},
	}
}

// subSeed derives repetition r's input seed from the run seed (splitmix64).
func subSeed(seed uint64, r int) uint64 {
	z := seed + uint64(r+1)*0x9e3779b97f4a7c15
	z = (z ^ z>>30) * 0xbf58476d1ce4e5b9
	z = (z ^ z>>27) * 0x94d049bb133111eb
	return z ^ z>>31
}

// metric is one named value of the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the benchmark's last stdout line.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	var s float64
	for _, x := range xs {
		s += x
	}
	return s / float64(len(xs))
}

// quantile is the nearest-rank q-quantile of xs (0 for none).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	i := int(math.Ceil(q*float64(len(s)))) - 1
	return s[max(i, 0)]
}

// peakRSSMB is the process's peak resident set in MiB: VmHWM, the
// high-water mark of this program's own address space. getrusage's maxrss
// is only the fallback: Linux carries it across exec, so a parent that
// spawns through vfork leaves its own resident set in it.
func peakRSSMB() float64 {
	if b, err := os.ReadFile("/proc/self/status"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if v, ok := strings.CutPrefix(line, "VmHWM:"); ok && len(strings.Fields(v)) > 0 {
				if kb, err := strconv.ParseFloat(strings.Fields(v)[0], 64); err == nil {
					return kb / 1024
				}
			}
		}
	}
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return float64(ru.Maxrss) / 1024 // Linux reports KiB
}

// tally counts one repetition's operations into res, plus failures found
// by comparing it with the first repetition. It reports whether the
// repetition produced numbers at all.
func tally(res *result, rp *rep, err error, first *rep, w string) bool {
	if err != nil {
		res.Attempted++
		res.Failed++
		fmt.Fprintf(os.Stderr, "%s: %v\n", w, err)
		return false
	}
	if first != nil && rp.bytes != first.bytes {
		rp.fail("bytes_per_worker_step %v differs from the first repetition's %v", rp.bytes, first.bytes)
	}
	for _, f := range rp.fails {
		fmt.Fprintf(os.Stderr, "%s: %s\n", w, f)
	}
	fmt.Fprintf(os.Stderr, "%s: setup %.4gs, %.4g steps/s, target at %.4gs, loss %.4g, %d failed\n",
		w, rp.setup, float64(rp.steps)/rp.runWall, rp.ttt, rp.evalLoss, rp.failedOps())
	res.Attempted += rp.ops()
	res.Failed += rp.failedOps()
	return true
}

// measure runs the untraced repetitions of one workload for the given
// duration and returns the end-to-end metrics.
func measure(wl workload, seed uint64, d time.Duration) result {
	res := result{Metrics: map[string]metric{}}
	var first *rep
	var sps, setup, ttt, logLoss []float64
	deadline := time.Now().Add(d)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		rp, err := wl.run(subSeed(seed, r), nil)
		if !tally(&res, rp, err, first, wl.name) {
			continue
		}
		if first == nil {
			first = rp
		}
		sps = append(sps, float64(rp.steps)/rp.runWall)
		setup = append(setup, rp.setup)
		if rp.ttt > 0 {
			ttt = append(ttt, rp.ttt)
		}
		if rp.evalLoss > 0 && !math.IsInf(rp.evalLoss, 0) {
			logLoss = append(logLoss, math.Log(rp.evalLoss))
		}
	}
	var bytes float64
	if first != nil {
		bytes = first.bytes
	}
	res.Metrics["steps_per_s"] = metric{median(sps), "steps/s"}
	res.Metrics["setup_s"] = metric{median(setup), "s"}
	// The quality metrics are means over the repetitions' input seeds: the
	// seed, not timing noise, is what spreads them, and a checkpoint-quantised
	// time to target has too few distinct values for a stable median. The
	// loss mean is geometric: fnn3 saturates its task, and its held-out loss
	// (around 1e-4) varies from seed to seed by a factor, not a margin.
	res.Metrics["time_to_target_s"] = metric{mean(ttt), "s"}
	res.Metrics["final_eval_loss"] = metric{math.Exp(mean(logLoss)), "loss"}
	res.Metrics["bytes_per_worker_step"] = metric{bytes, "B/step"}
	res.Metrics["peak_rss_mb"] = metric{peakRSSMB(), "MiB"}
	res.Correct = res.Failed == 0 && first != nil
	return res
}

// measureTraced runs untraced and traced repetitions in pairs on the same
// input seed, alternating which goes first, checks that each pair agrees
// bit for bit, and returns the per-layer metrics: medians over the traced
// repetitions. The first traced repetition's spans are written to
// traceOut.
func measureTraced(wl workload, seed uint64, d time.Duration, traceOut string) result {
	res := result{Metrics: map[string]metric{}}
	var first *rep
	var uSPS, tSPS []float64
	layers := map[string][]float64{}
	deadline := time.Now().Add(d)
	for r := 0; r == 0 || time.Now().Before(deadline); r++ {
		s := subSeed(seed, r)
		tr := newTracer()
		var u, t *rep
		var uErr, tErr error
		if r%2 == 0 {
			u, uErr = wl.run(s, nil)
			t, tErr = wl.run(s, tr)
		} else {
			t, tErr = wl.run(s, tr)
			u, uErr = wl.run(s, nil)
		}
		uOK := tally(&res, u, uErr, first, wl.name)
		if uOK && first == nil {
			first = u
		}
		if uOK && tErr == nil && (t.digest != u.digest || t.bytes != u.bytes) {
			t.fail("traced repetition differs from untraced (digest %x vs %x, bytes %v vs %v)", t.digest, u.digest, t.bytes, u.bytes)
		}
		if !tally(&res, t, tErr, first, wl.name) || !uOK {
			continue
		}
		uSPS = append(uSPS, float64(u.steps)/u.runWall)
		tSPS = append(tSPS, float64(t.steps)/t.runWall)
		for k, v := range layerMetrics(t, tr) {
			layers[k] = append(layers[k], v)
		}
		if traceOut != "" {
			if err := tr.write(traceOut, wl.name); err != nil {
				fmt.Fprintf(os.Stderr, "%s: writing trace: %v\n", wl.name, err)
			}
			traceOut = ""
		}
	}
	if len(tSPS) == 0 {
		// No traced repetition succeeded: still name every metric.
		for k := range layerMetrics(&rep{steps: 1, runWall: 1}, newTracer()) {
			layers[k] = []float64{0}
		}
		uSPS, tSPS = []float64{1}, []float64{1}
	}
	for k, vs := range layers {
		res.Metrics[k] = metric{median(vs), layerUnit(k)}
	}
	res.Metrics["trace.overhead_frac"] = metric{median(uSPS)/median(tSPS) - 1, "ratio"}
	res.Correct = res.Failed == 0 && first != nil
	return res
}

// fingerprint identifies the host and build a result was measured on.
// Results with different fingerprints are not comparable.
type fingerprint struct {
	CPU        string `json:"cpu"`
	NumCPU     int    `json:"num_cpu"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go_version"`
	Kernels    string `json:"kernels"` // "simd" or "purego"
}

func hostFingerprint() fingerprint {
	fp := fingerprint{
		CPU: "unknown", NumCPU: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0),
		GOARCH: runtime.GOARCH, GoVersion: runtime.Version(), Kernels: "purego",
	}
	if tensor.SIMDEnabled() {
		fp.Kernels = "simd"
	}
	if b, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(b), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	return fp
}

// record is one run as appended to an --out file, the input of compare.
type record struct {
	Fingerprint fingerprint `json:"fingerprint"`
	Workload    string      `json:"workload"`
	Seed        uint64      `json:"seed"`
	Trace       int         `json:"trace"`
	Result      result      `json:"result"`
}

func main() {
	if len(os.Args) > 1 && os.Args[1] == "compare" {
		os.Exit(compare(os.Args[2:]))
	}
	name := flag.String("workload", "", "workload: lstm-ckpt | fnn3-topk-tcp | exchange-vgg16-tcp")
	seed := flag.Uint64("seed", 1, "input seed")
	seconds := flag.Float64("seconds", 30, "measurement time")
	trace := flag.Int("trace", 0, "0: end-to-end metrics; 1: per-layer metrics from traced runs")
	out := flag.String("out", "", "also append the run as a JSON record to this file (see: perfbench compare)")
	flag.Parse()

	var wl *workload
	for _, w := range workloads(fullSizes) {
		if w.name == *name {
			wl = &w
		}
	}
	if wl == nil || *trace < 0 || *trace > 1 || *seconds <= 0 {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload lstm-ckpt|fnn3-topk-tcp|exchange-vgg16-tcp, --trace 0|1, --seconds > 0\n")
		os.Exit(2)
	}
	if err := os.MkdirAll(scratchDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fp := hostFingerprint()
	fpJSON, _ := json.Marshal(fp) // plain struct of strings and ints: cannot fail
	fmt.Printf("fingerprint %s\n", fpJSON)

	d := time.Duration(*seconds * float64(time.Second))
	var res result
	if *trace == 1 {
		res = measureTraced(*wl, *seed, d, filepath.Join(scratchDir, fmt.Sprintf("trace-%s-%d.jsonl", wl.name, *seed)))
	} else {
		res = measure(*wl, *seed, d)
	}
	if *out != "" {
		if err := appendRecord(*out, record{fp, wl.name, *seed, *trace, res}); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
			os.Exit(1)
		}
	}
	for k, m := range res.Metrics {
		if math.IsNaN(m.Value) || math.IsInf(m.Value, 0) {
			fmt.Fprintf(os.Stderr, "perfbench: metric %s is %v\n", k, m.Value)
			res.Metrics[k] = metric{0, m.Unit}
			res.Correct = false
		}
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

func appendRecord(path string, rec record) error {
	b, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(append(b, '\n')); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
