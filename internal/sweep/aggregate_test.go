package sweep

import (
	"bytes"
	"flag"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"msc/internal/telemetry"
)

var update = flag.Bool("update", false, "rewrite golden files")

// fixtureResult ingests one testdata JSONL fixture exactly the way the
// process runner does — full-stream schema validation, then the single
// matching run record.
func fixtureResult(t *testing.T, name string, sc Scenario, pick func(telemetry.RunRecord) bool) Result {
	t.Helper()
	f, err := os.Open(filepath.Join("testdata", name))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	recs, err := telemetry.ReadRunRecords(f)
	if err != nil {
		t.Fatalf("%s: %v", name, err)
	}
	var picked []telemetry.RunRecord
	for _, r := range recs {
		if pick(r) {
			picked = append(picked, r)
		}
	}
	if len(picked) != 1 {
		t.Fatalf("%s: %d matching run records, want 1", name, len(picked))
	}
	return Result{Scenario: sc, Record: picked[0]}
}

// goldenResults are the fixed inputs of the golden aggregation: two seeds
// of one place scenario plus one bench scenario.
func goldenResults(t *testing.T) []Result {
	t.Helper()
	place := Scenario{
		Kind: KindPlace, Family: "rgg", N: 40, M: 8, Pt: 0.12, K: 2,
		Solver: "greedy", DistBackend: "auto", Par: 1, Quick: true,
	}
	isGreedy := func(r telemetry.RunRecord) bool { return r.Name == "greedy" }
	isExp := func(r telemetry.RunRecord) bool { return r.Algorithm == "experiment" && r.Name == "table1" }
	s1, s2 := place, place
	s1.Seed = 1
	s2.Seed = 2
	bench := Scenario{Kind: KindBench, Experiment: "table1", DistBackend: "auto", Par: 1, Quick: true, Seed: 1}
	return []Result{
		fixtureResult(t, "place_greedy_k2_seed1.jsonl", s1, isGreedy),
		fixtureResult(t, "place_greedy_k2_seed2.jsonl", s2, isGreedy),
		fixtureResult(t, "bench_table1_seed1.jsonl", bench, isExp),
	}
}

// TestAggregateGolden locks the trajectory format byte for byte: fixed
// JSONL fixtures must aggregate to exactly the committed golden file
// (sorted keys, fixed float formatting). Any intentional format change
// must regenerate the golden with -update and show up in review.
func TestAggregateGolden(t *testing.T) {
	traj, err := Aggregate("golden", goldenResults(t))
	if err != nil {
		t.Fatal(err)
	}
	got, err := traj.Encode()
	if err != nil {
		t.Fatal(err)
	}
	goldenPath := filepath.Join("testdata", "BENCH_golden.json")
	if *update {
		if err := os.WriteFile(goldenPath, got, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(goldenPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("trajectory drifted from golden (rerun with -update if intentional)\n--- got:\n%s\n--- want:\n%s", got, want)
	}

	// And the canonical encoding round-trips losslessly.
	decoded, err := DecodeTrajectory(got)
	if err != nil {
		t.Fatal(err)
	}
	again, err := decoded.Encode()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, again) {
		t.Fatal("encode → decode → encode is not byte-stable")
	}
}

func TestAggregateStatistics(t *testing.T) {
	traj, err := Aggregate("h", goldenResults(t))
	if err != nil {
		t.Fatal(err)
	}
	if len(traj.Scenarios) != 2 {
		t.Fatalf("%d scenarios, want 2", len(traj.Scenarios))
	}
	place := traj.Scenarios["place/rgg/n40/m8/pt0.12/k2/greedy/auto/par1"]
	if place.Runs != 2 || len(place.Seeds) != 2 || place.Seeds[0] != 1 || place.Seeds[1] != 2 {
		t.Fatalf("place scenario stats wrong: %+v", place)
	}
	sigma, ok := place.Metrics["sigma"]
	if !ok {
		t.Fatal("sigma metric missing")
	}
	if sigma.Median < sigma.Min || sigma.Median > sigma.Max {
		t.Fatalf("median outside [min,max]: %+v", sigma)
	}
	if _, ok := place.Metrics["counters.dijkstra_runs"]; !ok {
		t.Fatalf("counter metrics missing: %v", place.Metrics)
	}
	bench := traj.Scenarios["bench/table1/quick/auto/par1"]
	if bench.Runs != 1 || bench.Metrics["sigma"].Median != -1 {
		t.Fatalf("bench scenario stats wrong: %+v", bench)
	}
	// Two-seed IQR equals the full spread.
	wall := place.Metrics["wall_ms"]
	if wall.IQR != round3(wall.Max-wall.Min) {
		t.Fatalf("two-sample IQR should equal max-min: %+v", wall)
	}
}

func TestAggregateTypedErrors(t *testing.T) {
	results := goldenResults(t)
	for name, mutate := range map[string]func() []Result{
		"empty": func() []Result { return nil },
		"failed run": func() []Result {
			rs := append([]Result(nil), results...)
			rs[1].Err = os.ErrDeadlineExceeded
			return rs
		},
		"duplicate seed": func() []Result {
			rs := append([]Result(nil), results...)
			rs[1] = rs[0]
			return rs
		},
	} {
		_, err := Aggregate("h", mutate())
		if _, ok := err.(*AggregateError); !ok {
			t.Errorf("%s: got %v (%T), want *AggregateError", name, err, err)
		}
	}
}

func TestDecodeTrajectoryTypedErrors(t *testing.T) {
	good, err := Aggregate("h", goldenResults(t))
	if err != nil {
		t.Fatal(err)
	}
	data, err := good.Encode()
	if err != nil {
		t.Fatal(err)
	}
	cases := map[string]string{
		"not json":      "not json at all",
		"wrong version": strings.Replace(string(data), `"schema_version": 1`, `"schema_version": 99`, 1),
		"unknown field": strings.Replace(string(data), `"tool"`, `"tooool"`, 1),
		"trailing data": string(data) + "{}",
		"no scenarios":  `{"schema_version":1,"tool":"mscsweep","host":"h","scenarios":{}}`,
		"zero runs":     `{"schema_version":1,"tool":"mscsweep","host":"h","scenarios":{"x":{"runs":0,"seeds":[],"metrics":{"m":{"median":1,"iqr":0,"min":1,"max":1}}}}}`,
		"seed mismatch": `{"schema_version":1,"tool":"mscsweep","host":"h","scenarios":{"x":{"runs":2,"seeds":[1],"metrics":{"m":{"median":1,"iqr":0,"min":1,"max":1}}}}}`,
		"no metrics":    `{"schema_version":1,"tool":"mscsweep","host":"h","scenarios":{"x":{"runs":1,"seeds":[1],"metrics":{}}}}`,
	}
	for name, doc := range cases {
		if _, err := DecodeTrajectory([]byte(doc)); err == nil {
			t.Errorf("%s: accepted", name)
		} else if _, ok := err.(*TrajectoryError); !ok {
			t.Errorf("%s: got %T, want *TrajectoryError", name, err)
		}
	}
	if _, err := DecodeTrajectory(data); err != nil {
		t.Fatalf("canonical document rejected: %v", err)
	}
}
