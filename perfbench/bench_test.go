package main

import (
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// smallSizes shrinks every workload so each runs in seconds while still
// reaching its quality target and covering every algorithm of the exchange
// (five buckets: dense, a2sgd, topk, qsgd, then a short dense tail).
var smallSizes = sizes{
	lstm: trainSpec{family: "lstm", spec: "a2sgd", epochs: 8, steps: 20, bucketBytes: 8192, interleave: true},
	fnn:  trainSpec{family: "fnn3", spec: "topk(density=0.01)", epochs: 3, steps: 20, bucketBytes: 4096, concurrency: 2, tcp: true},
	ex:   exchangeSpec{params: 1<<18 + 4321, bucket: 1 << 16, steps: 2, pool: 1 << 15},
}

type specMetric struct {
	Name, Unit string
}

// benchSpec reads the metric and workload names BENCHMARK.json declares.
func benchSpec(t *testing.T) (workloads []string, e2e, layer []specMetric) {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string } `json:"workloads"`
		EndToEnd  []specMetric            `json:"end_to_end"`
		PerLayer  []specMetric            `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, w := range spec.Workloads {
		workloads = append(workloads, w.Name)
	}
	return workloads, spec.EndToEnd, spec.PerLayer
}

// checkResult requires a correct run that emits exactly the declared
// metrics, each finite and in its declared unit.
func checkResult(t *testing.T, res result, want []specMetric) {
	t.Helper()
	if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
		t.Errorf("correct=%v attempted=%d failed=%d", res.Correct, res.Attempted, res.Failed)
	}
	if len(res.Metrics) != len(want) {
		t.Errorf("%d metrics emitted, %d declared", len(res.Metrics), len(want))
	}
	for _, w := range want {
		m, ok := res.Metrics[w.Name]
		switch {
		case !ok:
			t.Errorf("metric %s not emitted", w.Name)
		case m.Unit != w.Unit:
			t.Errorf("metric %s in %q, declared %q", w.Name, m.Unit, w.Unit)
		case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
			t.Errorf("metric %s = %v", w.Name, m.Value)
		}
	}
}

// TestWorkloadsEmitEveryMetric runs each workload once untraced and once
// traced at small sizes: every output check passes, every declared metric
// is emitted, and the traced run writes its spans.
func TestWorkloadsEmitEveryMetric(t *testing.T) {
	scratchDir = t.TempDir()
	names, e2e, layer := benchSpec(t)
	wls := workloads(smallSizes)
	if len(names) != len(wls) {
		t.Fatalf("BENCHMARK.json declares %v, the benchmark runs %d workloads", names, len(wls))
	}
	for i, wl := range wls {
		if wl.name != names[i] {
			t.Fatalf("workload %d is %s, BENCHMARK.json declares %s", i, wl.name, names[i])
		}
		t.Run(wl.name, func(t *testing.T) {
			checkResult(t, measure(wl, 7, 0), e2e)
			out := filepath.Join(scratchDir, wl.name+".jsonl")
			res := measureTraced(wl, 7, 0, out)
			checkResult(t, res, layer)
			if st, err := os.Stat(out); err != nil || st.Size() == 0 {
				t.Errorf("trace file: %v", err)
			}
		})
	}
}

// TestCompareRefusesMixedFingerprints pins the rule that results from
// different hosts or builds are never put side by side.
func TestCompareRefusesMixedFingerprints(t *testing.T) {
	dir := t.TempDir()
	fp := hostFingerprint()
	res := result{Correct: true, Attempted: 1, Metrics: map[string]metric{"steps_per_s": {1, "steps/s"}}}
	write := func(name string, f fingerprint) string {
		p := filepath.Join(dir, name)
		if err := appendRecord(p, record{f, "lstm-ckpt", 1, 0, res}); err != nil {
			t.Fatal(err)
		}
		return p
	}
	a := write("a.jsonl", fp)
	b := write("b.jsonl", fp)
	other := fp
	other.Kernels = "other"
	c := write("c.jsonl", other)
	if got := compare([]string{a, b}); got != 0 {
		t.Errorf("same fingerprint: compare = %d, want 0", got)
	}
	if got := compare([]string{a, c}); got != 1 {
		t.Errorf("mixed fingerprints: compare = %d, want 1", got)
	}
}
