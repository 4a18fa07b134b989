package main

import (
	"strings"
	"testing"
)

func TestMedianAndHinges(t *testing.T) {
	for _, tc := range []struct {
		xs             []float64
		median, q1, q3 float64
	}{
		{[]float64{5}, 5, 5, 5},
		{[]float64{2, 1}, 1.5, 1, 2},
		{[]float64{3, 1, 2}, 2, 1.5, 2.5},
		{[]float64{4, 1, 3, 2}, 2.5, 1.5, 3.5},
		{[]float64{1, 2, 3, 4, 5}, 3, 2, 4},
		{[]float64{7, 1, 2, 3, 4, 5, 6, 8, 9, 10}, 5.5, 3, 8},
	} {
		s := summarize(tc.xs)
		if s.Median != tc.median || s.Q1 != tc.q1 || s.Q3 != tc.q3 || s.N != len(tc.xs) {
			t.Errorf("summarize(%v) = %+v, want median %v hinges %v %v", tc.xs, s, tc.median, tc.q1, tc.q3)
		}
	}
}

func TestHighestTail(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{0, 0}, {5, 0}, {99, 0}, {100, 90}, {999, 90}, {1000, 99}, {10000, 99.9}} {
		if got := highestTail(tc.n); got != tc.want {
			t.Errorf("highestTail(%d) = %v, want %v", tc.n, got, tc.want)
		}
	}
}

func TestPercentile(t *testing.T) {
	s := make([]float64, 100)
	for i := range s {
		s[i] = float64(i + 1)
	}
	for _, tc := range []struct{ p, want float64 }{{50, 50}, {90, 90}, {99, 99}, {100, 100}, {0.1, 1}} {
		if got := percentile(s, tc.p); got != tc.want {
			t.Errorf("percentile(1..100, %v) = %v, want %v", tc.p, got, tc.want)
		}
	}
}

func TestJudge(t *testing.T) {
	wall := metricDef{Name: "wall_s", Rel: 0.10, Floor: 0.025}
	sigma := metricDef{Name: "sigma", Higher: true}
	base := []float64{1.00, 1.01, 0.99, 1.00, 1.02, 0.98, 1.00, 1.01, 0.99, 1.00}
	scaled := func(xs []float64, f float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		m              metricDef
		parent, change []float64
		want           verdict
	}{
		{"faster in every pair", wall, base, scaled(base, 0.8), gain},
		{"same", wall, base, base, noRegression},
		{"slower within the bound", wall, base, scaled(base, 1.05), noRegression},
		{"slower beyond the bound", wall, base, scaled(base, 1.2), regression},
		{"slower beyond 10% but under the floor", wall, scaled(base, 0.1), scaled(base, 0.12), noRegression},
		{"noisy parent", wall, []float64{1, 1.5, 0.6, 1, 1.4, 0.7, 1, 1.3, 0.6, 1}, base, unresolved},
		{"noisy parent, change better throughout", wall,
			[]float64{1, 1.5, 0.6, 1, 1.4, 0.7, 1, 1.3, 0.6, 1}, scaled(base, 0.5), noRegression},
		{"noisy parent, change far better", wall,
			[]float64{1, 1.5, 0.6, 1, 1.4, 0.7, 1, 1.3, 0.6, 1}, scaled(base, 0.2), gain},
		{"exact metric unchanged", sigma, []float64{30, 30, 30, 30, 30, 30, 30, 30, 30, 30},
			[]float64{30, 30, 30, 30, 30, 30, 30, 30, 30, 30}, noRegression},
		{"exact metric one pair lower", sigma, []float64{30, 30, 30, 30, 30, 30, 30, 30, 30, 30},
			[]float64{29, 29, 29, 29, 29, 29, 29, 29, 29, 29}, regression},
		{"exact metric higher", sigma, []float64{30, 30, 30, 30, 30, 30, 30, 30, 30, 30},
			[]float64{31, 31, 31, 31, 31, 31, 31, 31, 31, 31}, gain},
		{"better median but wins 8 of 10", wall, base,
			[]float64{0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 0.8, 1.1, 1.1}, noRegression},
	} {
		if got, _ := judge(tc.m, tc.parent, tc.change); got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestCompareSetsRequirements(t *testing.T) {
	set := func(sha string, wall float64) setResult {
		return setResult{Workloads: []workloadResult{{Name: "w", Inputs: []input{{SHA256: sha}},
			Metrics: map[string]metricValue{"wall_s": single(wall, "s"), "sigma_worst": {Unit: "pairs"}}}}}
	}
	sets := func(n int, sha string, wall float64) []setResult {
		var out []setResult
		for i := 0; i < n; i++ {
			out = append(out, set(sha, wall))
		}
		return out
	}
	if _, err := compareSets(sets(9, "a", 1), sets(9, "a", 1)); err == nil || !strings.Contains(err.Error(), "at least 10") {
		t.Errorf("9 pairs accepted: %v", err)
	}
	if _, err := compareSets(sets(10, "a", 1), sets(10, "b", 1)); err == nil || !strings.Contains(err.Error(), "inputs differ") {
		t.Errorf("different inputs accepted: %v", err)
	}
	rows, err := compareSets(sets(10, "a", 1), sets(10, "a", 2))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 || rows[0].metric != "wall_s" || rows[0].verdict != regression {
		t.Errorf("rows %+v, want one wall_s regression (null metrics skipped)", rows)
	}
}
