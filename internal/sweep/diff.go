package sweep

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Metric classes drive which threshold applies when the differ compares
// two trajectories.
const (
	// classWall marks wall-clock metrics: real noise, generous threshold,
	// optionally disabled entirely for cross-host comparisons.
	classWall = "wall"
	// classCounter marks deterministic work counters (Dijkstra runs,
	// candidate evals, pairs rescanned, …): identical for identical code
	// and seeds, so even a small sustained increase is a real regression.
	classCounter = "counter"
	// classQuality marks solution quality (σ): higher is better, and a
	// drop is a regression even when the code got faster.
	classQuality = "quality"
)

// gatedMetrics lists every metric the regression gate inspects, with its
// class. Metrics outside this map (the row-cache traffic, whose totals
// legitimately vary with goroutine interleaving, and the data-dependent
// merge splits rows_merged/rows_unchanged/pairs_skipped) are recorded in
// trajectories but never gated.
var gatedMetrics = map[string]string{
	"wall_ms": classWall,
	"sigma":   classQuality,

	"counters.dijkstra_runs":    classCounter,
	"counters.edge_relaxations": classCounter,
	"counters.candidate_evals":  classCounter,
	"counters.sigma_evals":      classCounter,
	"counters.mu_evals":         classCounter,
	"counters.nu_evals":         classCounter,
	"counters.overlay_builds":   classCounter,
	"counters.overlay_queries":  classCounter,
	"counters.overlay_rows":     classCounter,
	"counters.pairs_rescanned":  classCounter,
}

// DiffOptions are the noise thresholds of the regression gate. A metric
// is flagged only when it worsens by more than the relative threshold
// AND by more than the absolute floor — the floor keeps tiny scenarios
// (a 2 ms run, a 30-op counter) from flapping on quantization noise.
type DiffOptions struct {
	// WallPct is the relative threshold (percent) for wall-clock metrics;
	// <= 0 disables wall gating entirely (the right setting when baseline
	// and candidate ran on different hosts). WallFloorMS is the absolute
	// floor in milliseconds.
	WallPct     float64
	WallFloorMS float64
	// CounterPct / CounterFloor gate the deterministic work counters.
	CounterPct   float64
	CounterFloor float64
	// QualityFloor is the absolute floor for σ, measured in maintained
	// pairs: σ is tiny compared to the counters, so it gets its own floor
	// (the relative threshold is shared with CounterPct).
	QualityFloor float64
}

// DefaultDiffOptions: 30%/5ms on wall clock, 1%/16 ops on deterministic
// counters, 1%/0.5 pairs on σ (any whole-pair drop beyond the relative
// threshold is flagged).
func DefaultDiffOptions() DiffOptions {
	return DiffOptions{WallPct: 30, WallFloorMS: 5, CounterPct: 1, CounterFloor: 16, QualityFloor: 0.5}
}

// Regression kinds.
const (
	// KindMetric: a gated metric worsened beyond threshold.
	KindMetric = "metric_regressed"
	// KindMetricMissing: the candidate dropped a gated metric the
	// baseline carried.
	KindMetricMissing = "metric_missing"
	// KindScenarioRemoved: the candidate no longer runs a baseline
	// scenario — coverage loss is a gate failure, not a silent shrink.
	KindScenarioRemoved = "scenario_removed"
	// KindSeedsChanged: same scenario, different seed set — the samples
	// are different populations and the comparison would be meaningless.
	KindSeedsChanged = "seeds_changed"
)

// Regression is one flagged finding of a trajectory diff.
type Regression struct {
	Kind     string  `json:"kind"`
	Scenario string  `json:"scenario"`
	Metric   string  `json:"metric,omitempty"`
	Old      float64 `json:"old,omitempty"`
	New      float64 `json:"new,omitempty"`
	// Pct is the relative worsening in percent (+Inf encoded as a very
	// large number never occurs: old==0 deltas are gated by the absolute
	// floor and reported with Pct 0).
	Pct float64 `json:"pct,omitempty"`
	// Threshold is the relative threshold that was exceeded.
	Threshold float64 `json:"threshold,omitempty"`
	// BaselineIQR is the baseline's noise estimate for the metric,
	// reported so a reader can judge a marginal flag.
	BaselineIQR float64 `json:"baseline_iqr,omitempty"`
}

func (r Regression) String() string {
	switch r.Kind {
	case KindMetric:
		return fmt.Sprintf("%s: %s worsened %.6g -> %.6g (%+.1f%%, threshold %.1f%%, baseline IQR %.6g)",
			r.Scenario, r.Metric, r.Old, r.New, r.Pct, r.Threshold, r.BaselineIQR)
	case KindMetricMissing:
		return fmt.Sprintf("%s: gated metric %s missing from candidate", r.Scenario, r.Metric)
	case KindScenarioRemoved:
		return fmt.Sprintf("%s: scenario removed from candidate", r.Scenario)
	case KindSeedsChanged:
		return fmt.Sprintf("%s: seed set changed; runs are not comparable", r.Scenario)
	default:
		return fmt.Sprintf("%s: %s", r.Scenario, r.Kind)
	}
}

// Improvement mirrors Regression for metrics that got better beyond the
// same thresholds. Stale marks a counter or σ improvement: those are
// deterministic, so the baseline no longer describes the code, and Gate
// fails until it is regenerated. Wall-clock improvements are
// informational.
type Improvement struct {
	Scenario string  `json:"scenario"`
	Metric   string  `json:"metric"`
	Old      float64 `json:"old"`
	New      float64 `json:"new"`
	Pct      float64 `json:"pct"`
	Stale    bool    `json:"stale,omitempty"`
}

// DiffReport is the typed outcome of comparing a candidate trajectory
// against a baseline.
type DiffReport struct {
	Regressions  []Regression  `json:"regressions"`
	Improvements []Improvement `json:"improvements"`
	// Added lists candidate scenarios the baseline lacks (informational:
	// growing coverage is not a regression).
	Added []string `json:"added"`
	// Compared counts scenario/metric pairs actually gated.
	Compared int `json:"compared"`
}

// RegressionError is the typed gate failure carrying the full report.
type RegressionError struct{ Report *DiffReport }

func (e *RegressionError) Error() string {
	msg := fmt.Sprintf("sweep: regression gate failed: %d regression(s), %d stale improvement(s)",
		len(e.Report.Regressions), e.Report.stale())
	if e.Report.stale() > 0 {
		msg += "; counters or σ improved beyond threshold, so the baseline is stale: " +
			"regenerate BENCH_ci.json (mscsweep -quick -host ci -out BENCH_ci.json) with the change"
	}
	return msg + "\n" + e.Report.Format()
}

// Gate returns nil for a clean report and a typed *RegressionError
// otherwise: on any regression, and on any stale improvement — a baseline
// left behind by a counter or σ gain would let a later change lose that
// gain again unflagged.
func (r *DiffReport) Gate() error {
	if len(r.Regressions) == 0 && r.stale() == 0 {
		return nil
	}
	return &RegressionError{Report: r}
}

// stale counts the report's stale improvements.
func (r *DiffReport) stale() int {
	n := 0
	for _, imp := range r.Improvements {
		if imp.Stale {
			n++
		}
	}
	return n
}

// Format renders the report for humans, regressions first.
func (r *DiffReport) Format() string {
	var b strings.Builder
	fmt.Fprintf(&b, "compared %d scenario-metric pairs: %d regression(s), %d improvement(s), %d scenario(s) added\n",
		r.Compared, len(r.Regressions), len(r.Improvements), len(r.Added))
	for _, reg := range r.Regressions {
		fmt.Fprintf(&b, "  REGRESSION %s\n", reg)
	}
	for _, imp := range r.Improvements {
		label := "improved  "
		if imp.Stale {
			label = "STALE     "
		}
		fmt.Fprintf(&b, "  %s %s: %s %.6g -> %.6g (%+.1f%%)\n", label, imp.Scenario, imp.Metric, imp.Old, imp.New, imp.Pct)
	}
	for _, key := range r.Added {
		fmt.Fprintf(&b, "  added      %s\n", key)
	}
	return strings.TrimRight(b.String(), "\n")
}

// Diff compares candidate against baseline. Both must be validated
// trajectories of the same schema version (DecodeTrajectory enforces
// this for documents read from disk; programmatic callers get a typed
// *TrajectoryError here for nil inputs).
//
// Per shared scenario it gates the median of every metric in
// gatedMetrics present in the baseline: worsenings beyond the class
// threshold (relative) and floor (absolute) become Regressions, matching
// improvements are reported (stale when deterministic), and a gated
// metric missing from the candidate is itself a regression. Scenarios
// only in the baseline are KindScenarioRemoved findings; scenarios with a
// changed seed set are KindSeedsChanged.
func Diff(baseline, candidate *Trajectory, opts DiffOptions) (*DiffReport, error) {
	if baseline == nil || candidate == nil {
		return nil, &TrajectoryError{Reason: "diff requires two non-nil trajectories"}
	}
	if baseline.SchemaVersion != candidate.SchemaVersion {
		return nil, &TrajectoryError{Reason: fmt.Sprintf("schema versions differ: baseline %d, candidate %d", baseline.SchemaVersion, candidate.SchemaVersion)}
	}
	report := &DiffReport{}
	for _, key := range sortedKeys(candidate.Scenarios) {
		if _, ok := baseline.Scenarios[key]; !ok {
			report.Added = append(report.Added, key)
		}
	}
	for _, key := range sortedKeys(baseline.Scenarios) {
		base := baseline.Scenarios[key]
		cand, ok := candidate.Scenarios[key]
		if !ok {
			report.Regressions = append(report.Regressions, Regression{Kind: KindScenarioRemoved, Scenario: key})
			continue
		}
		if !sameSeeds(base.Seeds, cand.Seeds) {
			report.Regressions = append(report.Regressions, Regression{Kind: KindSeedsChanged, Scenario: key})
			continue
		}
		for _, metric := range sortedKeys(base.Metrics) {
			class, gated := gatedMetrics[metric]
			if !gated {
				continue
			}
			pct, floor := opts.CounterPct, opts.CounterFloor
			switch class {
			case classWall:
				if opts.WallPct <= 0 {
					continue
				}
				pct, floor = opts.WallPct, opts.WallFloorMS
			case classQuality:
				floor = opts.QualityFloor
			}
			baseStats := base.Metrics[metric]
			candStats, ok := cand.Metrics[metric]
			if !ok {
				report.Regressions = append(report.Regressions, Regression{Kind: KindMetricMissing, Scenario: key, Metric: metric})
				continue
			}
			report.Compared++
			// delta > 0 means "worse": more work/time, or less σ.
			delta := candStats.Median - baseStats.Median
			if class == classQuality {
				delta = -delta
			}
			rel := relPct(delta, baseStats.Median)
			switch {
			case delta > 0 && exceeds(delta, rel, pct, floor):
				report.Regressions = append(report.Regressions, Regression{
					Kind: KindMetric, Scenario: key, Metric: metric,
					Old: baseStats.Median, New: candStats.Median,
					Pct: signedPct(baseStats.Median, candStats.Median), Threshold: pct,
					BaselineIQR: baseStats.IQR,
				})
			case delta < 0 && exceeds(-delta, -rel, pct, floor):
				report.Improvements = append(report.Improvements, Improvement{
					Scenario: key, Metric: metric,
					Old: baseStats.Median, New: candStats.Median,
					Pct:   signedPct(baseStats.Median, candStats.Median),
					Stale: class != classWall,
				})
			}
		}
	}
	return report, nil
}

// exceeds reports whether a worsening of absolute size delta (and
// relative size rel percent) clears both the relative threshold and the
// absolute floor.
func exceeds(delta, rel, pct, floor float64) bool {
	if delta <= floor {
		return false
	}
	// A zero baseline has no meaningful relative change; the absolute
	// floor alone decides.
	if math.IsInf(rel, 0) {
		return true
	}
	return rel > pct
}

// relPct is the relative worsening in percent against the baseline
// median; ±Inf when the baseline is zero.
func relPct(delta, base float64) float64 {
	if base == 0 {
		if delta == 0 {
			return 0
		}
		return math.Inf(int(math.Copysign(1, delta)))
	}
	return 100 * delta / math.Abs(base)
}

// signedPct is the plain relative change cur vs old for display (+ means
// the value went up).
func signedPct(old, cur float64) float64 {
	if old == 0 {
		return 0
	}
	return 100 * (cur - old) / math.Abs(old)
}

func sortedKeys[V any](m map[string]V) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}

func sameSeeds(a, b []int64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
