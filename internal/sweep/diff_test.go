package sweep

import (
	"errors"
	"strings"
	"testing"
)

// synthTrajectory builds a two-scenario trajectory with known metric
// medians — the synthetic substrate of the regression-detector self-test.
func synthTrajectory(metrics map[string]map[string]float64) *Trajectory {
	t := &Trajectory{SchemaVersion: TrajectorySchemaVersion, Tool: "mscsweep", Host: "synth", Scenarios: map[string]ScenarioStats{}}
	for key, ms := range metrics {
		stats := ScenarioStats{Runs: 3, Seeds: []int64{1, 2, 3}, Metrics: map[string]MetricStats{}}
		for name, median := range ms {
			stats.Metrics[name] = MetricStats{Median: median, IQR: median / 100, Min: median * 0.9, Max: median * 1.1}
		}
		t.Scenarios[key] = stats
	}
	return t
}

// baseMetrics is a realistic gated-metric profile for one scenario.
func baseMetrics() map[string]float64 {
	return map[string]float64{
		"wall_ms":                  100,
		"sigma":                    10,
		"counters.dijkstra_runs":   4000,
		"counters.candidate_evals": 50000,
		"counters.pairs_rescanned": 8000,
		"counters.row_cache_hits":  12345, // recorded but never gated
	}
}

func synthPair(mutate func(map[string]map[string]float64)) (*Trajectory, *Trajectory) {
	mk := func() map[string]map[string]float64 {
		return map[string]map[string]float64{
			"place/rgg/n100/m17/k6/greedy/auto/par1":   baseMetrics(),
			"place/rgg/n100/m17/k6/sandwich/auto/par1": baseMetrics(),
		}
	}
	baseline := mk()
	candidate := mk()
	mutate(candidate)
	return synthTrajectory(baseline), synthTrajectory(candidate)
}

// flagged extracts "scenario|metric|kind" triples for exact-set asserts.
func flagged(report *DiffReport) map[string]bool {
	out := make(map[string]bool)
	for _, r := range report.Regressions {
		out[r.Scenario+"|"+r.Metric+"|"+r.Kind] = true
	}
	return out
}

const (
	scGreedy   = "place/rgg/n100/m17/k6/greedy/auto/par1"
	scSandwich = "place/rgg/n100/m17/k6/sandwich/auto/par1"
)

// TestDiffInjectedRegressions is the gate's own gate: synthetic
// trajectory pairs with injected faults must flag exactly the expected
// scenario/metric pairs — nothing more, nothing less.
func TestDiffInjectedRegressions(t *testing.T) {
	opts := DefaultDiffOptions() // 30%/5ms wall, 1%/16 counters+σ
	cases := []struct {
		name   string
		mutate func(map[string]map[string]float64)
		want   []string // scenario|metric|kind triples, empty = clean
		stale  bool     // a deterministic metric improved: the gate fails
	}{
		{
			name:   "identical trajectories are clean",
			mutate: func(map[string]map[string]float64) {},
		},
		{
			name: "+5% dijkstra on one scenario flags exactly that scenario",
			mutate: func(c map[string]map[string]float64) {
				c[scGreedy]["counters.dijkstra_runs"] *= 1.05
			},
			want: []string{scGreedy + "|counters.dijkstra_runs|" + KindMetric},
		},
		{
			name: "+50% on two metrics of two scenarios flags all four",
			mutate: func(c map[string]map[string]float64) {
				c[scGreedy]["counters.candidate_evals"] *= 1.5
				c[scGreedy]["counters.pairs_rescanned"] *= 1.5
				c[scSandwich]["counters.candidate_evals"] *= 1.5
				c[scSandwich]["counters.pairs_rescanned"] *= 1.5
			},
			want: []string{
				scGreedy + "|counters.candidate_evals|" + KindMetric,
				scGreedy + "|counters.pairs_rescanned|" + KindMetric,
				scSandwich + "|counters.candidate_evals|" + KindMetric,
				scSandwich + "|counters.pairs_rescanned|" + KindMetric,
			},
		},
		{
			name: "wall slowdown beyond threshold flags",
			mutate: func(c map[string]map[string]float64) {
				c[scSandwich]["wall_ms"] = 150 // +50% > 30%, +50ms > 5ms floor
			},
			want: []string{scSandwich + "|wall_ms|" + KindMetric},
		},
		{
			name: "wall noise below threshold is not flagged",
			mutate: func(c map[string]map[string]float64) {
				c[scGreedy]["wall_ms"] = 120 // +20% < 30%
			},
		},
		{
			name: "counter wiggle below the pct threshold is not flagged",
			mutate: func(c map[string]map[string]float64) {
				c[scGreedy]["counters.pairs_rescanned"] = 8010 // +0.125% < 1%
			},
		},
		{
			name: "sigma drop is a quality regression",
			mutate: func(c map[string]map[string]float64) {
				c[scGreedy]["sigma"] = 8 // −20%: fewer pairs maintained
			},
			want: []string{scGreedy + "|sigma|" + KindMetric},
		},
		{
			name: "sigma increase is an improvement, not a regression",
			mutate: func(c map[string]map[string]float64) {
				c[scGreedy]["sigma"] = 40
			},
			stale: true,
		},
		{
			name: "counter drop beyond threshold is a stale baseline",
			mutate: func(c map[string]map[string]float64) {
				c[scSandwich]["counters.candidate_evals"] = 40000 // −20%
			},
			stale: true,
		},
		{
			name: "counter drop below the floor keeps the baseline",
			mutate: func(c map[string]map[string]float64) {
				c[scSandwich]["counters.dijkstra_runs"] = 3990 // −10 ops < 16-op floor
			},
		},
		{
			name: "wall speedup is informational",
			mutate: func(c map[string]map[string]float64) {
				c[scGreedy]["wall_ms"] = 20 // −80%
			},
		},
		{
			name: "gated metric missing from candidate",
			mutate: func(c map[string]map[string]float64) {
				delete(c[scSandwich], "counters.dijkstra_runs")
			},
			want: []string{scSandwich + "|counters.dijkstra_runs|" + KindMetricMissing},
		},
		{
			name: "ungated metric may regress freely",
			mutate: func(c map[string]map[string]float64) {
				c[scGreedy]["counters.row_cache_hits"] *= 10
			},
		},
		{
			name: "scenario removed from candidate",
			mutate: func(c map[string]map[string]float64) {
				delete(c, scSandwich)
			},
			want: []string{scSandwich + "||" + KindScenarioRemoved},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			baseline, candidate := synthPair(tc.mutate)
			report, err := Diff(baseline, candidate, opts)
			if err != nil {
				t.Fatal(err)
			}
			got := flagged(report)
			want := make(map[string]bool)
			for _, w := range tc.want {
				want[w] = true
			}
			for w := range want {
				if !got[w] {
					t.Errorf("expected regression not flagged: %s\nreport:\n%s", w, report.Format())
				}
			}
			for g := range got {
				if !want[g] {
					t.Errorf("unexpected regression flagged: %s\nreport:\n%s", g, report.Format())
				}
			}
			if err := report.Gate(); (err == nil) != (len(tc.want) == 0 && !tc.stale) {
				t.Fatalf("gate outcome wrong: %v for %d expected findings (stale %v)", err, len(tc.want), tc.stale)
			}
		})
	}
}

func TestDiffScenarioAddedIsNotARegression(t *testing.T) {
	baseline, candidate := synthPair(func(c map[string]map[string]float64) {
		c["place/rgg/n200/m30/k8/greedy/auto/par1"] = baseMetrics()
	})
	report, err := Diff(baseline, candidate, DefaultDiffOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regressions) != 0 {
		t.Fatalf("added scenario flagged as regression:\n%s", report.Format())
	}
	if len(report.Added) != 1 || report.Added[0] != "place/rgg/n200/m30/k8/greedy/auto/par1" {
		t.Fatalf("added scenario not reported: %v", report.Added)
	}
}

func TestDiffSeedSetChange(t *testing.T) {
	baseline, candidate := synthPair(func(map[string]map[string]float64) {})
	sc := candidate.Scenarios[scGreedy]
	sc.Seeds = []int64{1, 2, 4}
	candidate.Scenarios[scGreedy] = sc
	report, err := Diff(baseline, candidate, DefaultDiffOptions())
	if err != nil {
		t.Fatal(err)
	}
	got := flagged(report)
	if !got[scGreedy+"||"+KindSeedsChanged] || len(got) != 1 {
		t.Fatalf("seed change not flagged exactly once:\n%s", report.Format())
	}
}

func TestDiffWallGatingDisabled(t *testing.T) {
	baseline, candidate := synthPair(func(c map[string]map[string]float64) {
		c[scGreedy]["wall_ms"] = 10000 // 100× slower
	})
	opts := DefaultDiffOptions()
	opts.WallPct = 0 // cross-host mode
	report, err := Diff(baseline, candidate, opts)
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regressions) != 0 {
		t.Fatalf("wall regression flagged with wall gating disabled:\n%s", report.Format())
	}
}

func TestDiffZeroBaselineUsesAbsoluteFloor(t *testing.T) {
	baseline, candidate := synthPair(func(c map[string]map[string]float64) {
		c[scGreedy]["counters.pairs_rescanned"] = 1000
	})
	sc := baseline.Scenarios[scGreedy]
	sc.Metrics["counters.pairs_rescanned"] = MetricStats{Median: 0}
	report, err := Diff(baseline, candidate, DefaultDiffOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !flagged(report)[scGreedy+"|counters.pairs_rescanned|"+KindMetric] {
		t.Fatalf("0 -> 1000 not flagged:\n%s", report.Format())
	}
	// But 0 -> 10 stays under the 16-op floor.
	cand2 := candidate.Scenarios[scGreedy]
	cand2.Metrics["counters.pairs_rescanned"] = MetricStats{Median: 10}
	candidate.Scenarios[scGreedy] = cand2
	report, err = Diff(baseline, candidate, DefaultDiffOptions())
	if err != nil {
		t.Fatal(err)
	}
	if flagged(report)[scGreedy+"|counters.pairs_rescanned|"+KindMetric] {
		t.Fatalf("0 -> 10 flagged despite the absolute floor:\n%s", report.Format())
	}
}

// TestDiffCounterAbsoluteFloor: a percentage breach alone is not enough —
// tiny scenarios need the absolute floor too.
func TestDiffCounterAbsoluteFloor(t *testing.T) {
	setRescanned := func(tr *Trajectory, v float64) {
		sc := tr.Scenarios[scGreedy]
		sc.Metrics["counters.pairs_rescanned"] = MetricStats{Median: v}
		tr.Scenarios[scGreedy] = sc
	}
	baseline, candidate := synthPair(func(map[string]map[string]float64) {})
	setRescanned(baseline, 500)
	setRescanned(candidate, 510) // +2% > 1%, but +10 ops < 16-op floor
	report, err := Diff(baseline, candidate, DefaultDiffOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regressions) != 0 {
		t.Fatalf("sub-floor counter delta flagged:\n%s", report.Format())
	}
	setRescanned(candidate, 530) // +6% and +30 ops: both thresholds cleared
	report, err = Diff(baseline, candidate, DefaultDiffOptions())
	if err != nil {
		t.Fatal(err)
	}
	if !flagged(report)[scGreedy+"|counters.pairs_rescanned|"+KindMetric] {
		t.Fatalf("above-floor counter regression not flagged:\n%s", report.Format())
	}
}

func TestDiffTypedErrors(t *testing.T) {
	good, _ := synthPair(func(map[string]map[string]float64) {})
	var te *TrajectoryError
	if _, err := Diff(nil, good, DefaultDiffOptions()); !errors.As(err, &te) {
		t.Fatalf("nil baseline: got %v", err)
	}
	other := synthTrajectory(map[string]map[string]float64{"x": baseMetrics()})
	other.SchemaVersion = 2
	if _, err := Diff(good, other, DefaultDiffOptions()); !errors.As(err, &te) {
		t.Fatalf("version mismatch: got %v", err)
	}
}

func TestRegressionErrorNamesFindings(t *testing.T) {
	baseline, candidate := synthPair(func(c map[string]map[string]float64) {
		c[scGreedy]["counters.dijkstra_runs"] *= 2
	})
	report, err := Diff(baseline, candidate, DefaultDiffOptions())
	if err != nil {
		t.Fatal(err)
	}
	gateErr := report.Gate()
	var re *RegressionError
	if !errors.As(gateErr, &re) {
		t.Fatalf("gate returned %T, want *RegressionError", gateErr)
	}
	msg := gateErr.Error()
	for _, frag := range []string{"REGRESSION", scGreedy, "counters.dijkstra_runs", "+100.0%"} {
		if !strings.Contains(msg, frag) {
			t.Errorf("gate error missing %q:\n%s", frag, msg)
		}
	}
}

// TestStaleBaselineNamesTheRefresh: a counter improvement alone fails the
// gate, and the error tells the author to regenerate the baseline.
func TestStaleBaselineNamesTheRefresh(t *testing.T) {
	baseline, candidate := synthPair(func(c map[string]map[string]float64) {
		c[scGreedy]["counters.pairs_rescanned"] = 4000
	})
	report, err := Diff(baseline, candidate, DefaultDiffOptions())
	if err != nil {
		t.Fatal(err)
	}
	if len(report.Regressions) != 0 || len(report.Improvements) != 1 || !report.Improvements[0].Stale {
		t.Fatalf("want one stale improvement and no regression:\n%s", report.Format())
	}
	gateErr := report.Gate()
	if gateErr == nil {
		t.Fatal("stale baseline passed the gate")
	}
	for _, frag := range []string{"1 stale improvement", "regenerate BENCH_ci.json", "STALE", scGreedy} {
		if !strings.Contains(gateErr.Error(), frag) {
			t.Errorf("gate error missing %q:\n%s", frag, gateErr)
		}
	}
}
