package main

import (
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"testing"
)

// TestMain lets the test binary stand in for mscperf's children: the
// harness re-executes its own executable with childEnv set.
func TestMain(m *testing.M) {
	if mode := os.Getenv(childEnv); mode != "" {
		os.Exit(childMain(mode))
	}
	os.Exit(m.Run())
}

// benchmarkFile is the part of BENCHMARK.json the tests check.
type benchmarkFile struct {
	Workloads []struct{ Name, Why string } `json:"workloads"`
	EndToEnd  []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(data, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

// TestBenchmarkFileMatches keeps BENCHMARK.json and the metric and
// workload tables in step: same workloads in the same order, and exactly
// the Listed metrics with their units and directions.
func TestBenchmarkFileMatches(t *testing.T) {
	b := readBenchmarkFile(t)
	if len(b.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json has %d workloads, the table %d", len(b.Workloads), len(workloads))
	}
	for i, w := range b.Workloads {
		if w.Name != workloads[i].Name || w.Why != workloads[i].Why {
			t.Errorf("workload %d: BENCHMARK.json %+v, table %q: %q", i, w, workloads[i].Name, workloads[i].Why)
		}
	}
	listed := map[string]metricDef{}
	for _, m := range allMetrics() {
		if m.Listed {
			listed[m.Name] = m
		}
	}
	check := func(name, unit, better string, layer bool) {
		m, ok := listed[name]
		delete(listed, name)
		want := "lower"
		if m.Higher {
			want = "higher"
		}
		if !ok || m.Unit != unit || want != better || m.Layer != layer {
			t.Errorf("BENCHMARK.json metric %s (%s, %s) does not match the table: %+v", name, unit, better, m)
		}
	}
	for _, m := range b.EndToEnd {
		check(m.Name, m.Unit, m.Better, false)
	}
	for _, m := range b.PerLayer {
		check(m.Name, m.Unit, m.Better, true)
	}
	for name := range listed {
		t.Errorf("metric %s is Listed but not in BENCHMARK.json", name)
	}
}

// toyWorkloads are the four workloads shrunk to seconds in total: one
// small instance each, with their solvers and survivability modes kept.
func toyWorkloads() []workload {
	gen := map[string][]string{
		"paper-sandwich": {"-kind", "rgg", "-n", "150", "-m", "20", "-k", "4", "-pt", "0.11"},
		"paper-aea":      {"-kind", "rgg", "-n", "100", "-m", "16", "-k", "4", "-pt", "0.11"},
		"social-survive": {"-kind", "social", "-m", "20", "-k", "4", "-pt", "0.23"},
		"scale-greedy":   {"-kind", "rgg", "-n", "200", "-m", "16", "-k", "3", "-pt", "0.11"},
	}
	var out []workload
	for _, w := range workloads {
		w.Gen, w.Instances = gen[w.Name], 1
		if w.Iters > 0 {
			w.Iters = 20
		}
		out = append(out, w)
	}
	return out
}

// nullable are the metrics that may be null on some workload, each for a
// reason bench/README.md gives.
var nullable = map[string]bool{
	"sigma_worst": true, "ratio_bound": true, "scan.p90_ms": true, "scan.shard_imbalance": true,
	"remove.s": true, "drop.s": true, "bounds.build_s": true, "bounds.eval_s": true,
}

// TestSmokeAllWorkloads runs one set of all four workloads at toy sizes,
// one rep and one traced pass each, and checks that every metric is
// reported, that every correctness check ran and passed, and that the
// closing line carries exactly the metrics BENCHMARK.json lists.
func TestSmokeAllWorkloads(t *testing.T) {
	t.Setenv("TMPDIR", t.TempDir())
	o := options{workloads: toyWorkloads(), seed: 1, legs: -1, log: io.Discard}
	set, err := runSet(context.Background(), o)
	if err != nil {
		t.Fatal(err)
	}
	dir := t.TempDir()
	if err := writeSet(dir, set); err != nil {
		t.Fatal(err)
	}
	sets, err := readSets(filepath.Join(dir, "results.json"))
	if err != nil || len(sets) != 1 {
		t.Fatalf("results.json: %d sets, %v", len(sets), err)
	}
	for _, w := range sets[0].Workloads {
		for _, m := range allMetrics() {
			v, ok := w.Metrics[m.Name]
			switch {
			case !ok:
				t.Errorf("%s: metric %s missing", w.Name, m.Name)
			case v.Value == nil && !nullable[m.Name]:
				t.Errorf("%s: metric %s is null", w.Name, m.Name)
			case v.Value != nil && (math.IsNaN(*v.Value) || math.IsInf(*v.Value, 0)):
				t.Errorf("%s: metric %s = %v", w.Name, m.Name, *v.Value)
			case v.Unit != m.Unit:
				t.Errorf("%s: metric %s in %s, want %s", w.Name, m.Name, v.Unit, m.Unit)
			}
		}
		want := []string{"exit", "reps-agree", "mscplace-agree", "sigma-recount", "traced-agree"}
		if w.Name == "social-survive" {
			want = append(want, "knockout-min")
		}
		for _, name := range want {
			if c := w.Checks[name]; c == nil || c.Ran == 0 || c.Failed > 0 {
				t.Errorf("%s: check %s: %+v, problems %v", w.Name, name, c, w.Problems)
			}
		}
		if w.Failed > 0 || w.Attempted == 0 {
			t.Errorf("%s: %d of %d solves failed: %v", w.Name, w.Failed, w.Attempted, w.Problems)
		}
		if _, err := os.Stat(filepath.Join(dir, "trace-"+w.Name+".jsonl")); err != nil {
			t.Errorf("%s: no trace file: %v", w.Name, err)
		}
	}

	line, correct := resultLine(set, o)
	var res struct {
		Correct           bool
		Attempted, Failed int
		Metrics           map[string]struct{ Value *float64 }
	}
	if err := json.Unmarshal(line, &res); err != nil || !correct || !res.Correct {
		t.Fatalf("result line %s: %v", line, err)
	}
	b := readBenchmarkFile(t)
	if want := len(o.workloads) * (len(b.EndToEnd) + len(b.PerLayer)); len(res.Metrics) != want {
		t.Errorf("result line has %d metrics, want %d", len(res.Metrics), want)
	}
	for name, v := range res.Metrics {
		if v.Value == nil {
			t.Errorf("result line metric %s is null", name)
		}
	}
}
