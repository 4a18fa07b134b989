package core

import (
	"math"
	"reflect"
	"strings"
	"testing"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// explicitInstance builds an instance from a literal edge list and pair
// list, for report tests that need exact distances (unreachable pairs,
// improved-but-short pairs).
func explicitInstance(t *testing.T, n int, edges [][3]float64, prs []pairs.Pair, dt float64, k int) *Instance {
	t.Helper()
	b := graph.NewBuilder(n)
	for _, e := range edges {
		b.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), e[2])
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := pairs.NewSet(n, prs)
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(g, ps, failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}, k,
		&Options{AllowTrivial: true})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

func TestReportConsistentWithSigma(t *testing.T) {
	rng := xrand.New(201)
	inst := testInstance(t, 16, 7, 3, 0.8, rng)
	sel := GreedySigma(inst).Selection
	statuses := inst.Report(sel)
	if len(statuses) != inst.Pairs().Len() {
		t.Fatalf("report length %d", len(statuses))
	}
	maintained := 0
	for _, st := range statuses {
		if st.Maintained {
			maintained++
		}
		if st.After > st.Before+1e-12 {
			t.Fatalf("pair %v got worse: %v -> %v", st.Pair, st.Before, st.After)
		}
		if st.UsesShortcut && st.After >= st.Before {
			t.Fatalf("pair %v claims shortcut without improvement", st.Pair)
		}
		if st.MaintainedBefore && !st.Maintained {
			t.Fatalf("pair %v lost maintenance by adding edges", st.Pair)
		}
	}
	if maintained != inst.Sigma(sel) {
		t.Fatalf("report maintained %d != σ %d", maintained, inst.Sigma(sel))
	}
}

func TestSummarize(t *testing.T) {
	rng := xrand.New(202)
	inst := testInstance(t, 16, 7, 3, 0.8, rng)
	sel := GreedySigma(inst).Selection
	statuses := inst.Report(sel)
	s := Summarize(statuses)
	if s.Total != len(statuses) {
		t.Fatalf("total %d", s.Total)
	}
	if s.Maintained != inst.Sigma(sel) {
		t.Fatalf("maintained %d != σ %d", s.Maintained, inst.Sigma(sel))
	}
	if s.NewlyMaintained != s.Maintained-inst.BaseSigma() {
		t.Fatalf("newly maintained %d, σ %d, base %d", s.NewlyMaintained, s.Maintained, inst.BaseSigma())
	}
	if s.WorstAfter < 0 || s.WorstAfter > 1 {
		t.Fatalf("worst after %v", s.WorstAfter)
	}
}

func TestFormatReport(t *testing.T) {
	rng := xrand.New(203)
	inst := testInstance(t, 12, 5, 2, 0.8, rng)
	out := FormatReport(inst.Report(GreedySigma(inst).Selection))
	if !strings.Contains(out, "p_before") || !strings.Contains(out, "maintained") {
		t.Fatalf("report header missing:\n%s", out)
	}
	if len(strings.Split(strings.TrimSpace(out), "\n")) != inst.Pairs().Len()+1 {
		t.Fatal("row count wrong")
	}
}

func TestGreedySigmaCurve(t *testing.T) {
	rng := xrand.New(204)
	inst := testInstance(t, 18, 8, 4, 0.8, rng)
	curve := GreedySigmaCurve(inst)
	if curve[0] != inst.BaseSigma() {
		t.Fatalf("curve[0] = %d, want baseline %d", curve[0], inst.BaseSigma())
	}
	if len(curve) > inst.K()+1 {
		t.Fatalf("curve length %d exceeds k+1", len(curve))
	}
	for i := 1; i < len(curve); i++ {
		if curve[i] <= curve[i-1] {
			t.Fatalf("curve not strictly increasing at %d: %v", i, curve)
		}
	}
	// The final point must match GreedySigma's result.
	if got := GreedySigma(inst).Sigma; curve[len(curve)-1] != got {
		t.Fatalf("curve end %d != greedy σ %d", curve[len(curve)-1], got)
	}
}

// TestReportUnreachablePairs: a pair split across graph components reports
// failure probability 1 on both sides until a shortcut bridges the gap.
func TestReportUnreachablePairs(t *testing.T) {
	// Two components: 0–1 and 2–3. Pair (0,2) is unreachable; pair (0,1)
	// is one short hop.
	inst := explicitInstance(t, 4,
		[][3]float64{{0, 1, 0.1}, {2, 3, 0.1}},
		[]pairs.Pair{pairs.New(0, 2), pairs.New(0, 1)},
		0.5, 2)

	statuses := inst.Report(nil)
	var cross, local PairStatus
	for _, st := range statuses {
		if st.Pair == pairs.New(0, 2) {
			cross = st
		} else {
			local = st
		}
	}
	if cross.Before != 1 || cross.After != 1 {
		t.Fatalf("unreachable pair must report probability 1: %+v", cross)
	}
	if cross.Maintained || cross.MaintainedBefore || cross.UsesShortcut {
		t.Fatalf("unreachable pair misflagged: %+v", cross)
	}
	if !local.Maintained || !local.MaintainedBefore {
		t.Fatalf("adjacent pair should be maintained at baseline: %+v", local)
	}
	if s := Summarize(statuses); s.WorstAfter != 1 {
		t.Fatalf("WorstAfter must be 1 with an unreachable pair, got %v", s.WorstAfter)
	}

	// A shortcut 1–3 bridges the components: 0→1→3→2 = 0.1+0+0.1.
	sel := []int{inst.CandidateIndex(graph.Edge{U: 1, V: 3})}
	statuses = inst.Report(sel)
	for _, st := range statuses {
		if st.Pair != pairs.New(0, 2) {
			continue
		}
		if st.Before != 1 {
			t.Fatalf("Before must stay 1: %+v", st)
		}
		if st.After >= 1 || !st.Maintained || !st.UsesShortcut {
			t.Fatalf("bridged pair not repaired: %+v", st)
		}
	}
	s := Summarize(statuses)
	if s.NewlyMaintained != 1 || s.Maintained != 2 {
		t.Fatalf("summary after bridging: %+v", s)
	}
	if s.WorstAfter >= 1 {
		t.Fatalf("WorstAfter should drop below 1 once bridged: %v", s.WorstAfter)
	}
}

// TestReportEmptySelection: with no shortcuts, After equals Before for
// every pair, nothing uses a shortcut, and Summarize reduces to the
// baseline σ.
func TestReportEmptySelection(t *testing.T) {
	rng := xrand.New(207)
	inst := testInstance(t, 16, 7, 3, 0.8, rng)
	statuses := inst.Report(nil)
	if len(statuses) != inst.Pairs().Len() {
		t.Fatalf("report length %d", len(statuses))
	}
	for _, st := range statuses {
		if st.After != st.Before {
			t.Fatalf("pair %v changed without shortcuts: %v -> %v", st.Pair, st.Before, st.After)
		}
		if st.UsesShortcut {
			t.Fatalf("pair %v claims a shortcut on empty selection", st.Pair)
		}
		if st.Maintained != st.MaintainedBefore {
			t.Fatalf("pair %v maintenance flags disagree: %+v", st.Pair, st)
		}
	}
	s := Summarize(statuses)
	if s.Maintained != inst.BaseSigma() {
		t.Fatalf("maintained %d != baseline σ %d", s.Maintained, inst.BaseSigma())
	}
	if s.NewlyMaintained != 0 || s.ImprovedButShort != 0 {
		t.Fatalf("empty selection improved something: %+v", s)
	}
}

// TestReportAllPairsAlreadyMaintained: when the raw network already meets
// the threshold for every pair, a placement changes nothing the report
// cares about — no newly maintained pairs, none improved-but-short.
func TestReportAllPairsAlreadyMaintained(t *testing.T) {
	// Triangle-free path 0–1–2 with short hops; both pairs well under d_t.
	inst := explicitInstance(t, 3,
		[][3]float64{{0, 1, 0.1}, {1, 2, 0.1}},
		[]pairs.Pair{pairs.New(0, 1), pairs.New(1, 2)},
		1.0, 1)
	sel := []int{inst.CandidateIndex(graph.Edge{U: 0, V: 2})}
	statuses := inst.Report(sel)
	for _, st := range statuses {
		if !st.Maintained || !st.MaintainedBefore {
			t.Fatalf("pair %v should be maintained before and after: %+v", st.Pair, st)
		}
	}
	s := Summarize(statuses)
	if s.Maintained != s.Total {
		t.Fatalf("all pairs should count as maintained: %+v", s)
	}
	if s.NewlyMaintained != 0 || s.ImprovedButShort != 0 {
		t.Fatalf("nothing should be newly maintained or improved-but-short: %+v", s)
	}
	if want := failprob.ProbFromLength(0.2); s.WorstAfter > want+1e-12 {
		t.Fatalf("WorstAfter %v exceeds worst baseline pair %v", s.WorstAfter, want)
	}
}

// TestSummarizeImprovedButShort pins the ImprovedButShort and WorstAfter
// semantics: a pair whose best path a shortcut shortens without reaching
// the threshold counts as improved-but-short, and WorstAfter tracks the
// maximum post-placement failure probability. Both distances lie beyond
// d_t, where the default bounded table reads +Inf, so the report must
// read exact full-range rows: the statuses equal those over a supplied
// dense table.
func TestSummarizeImprovedButShort(t *testing.T) {
	// Path 0–1–2–3 with hops of 2: pair (0,3) sits at distance 6.
	// Shortcut 0–2 cuts it to 2, still over d_t = 1.
	inst := explicitInstance(t, 4,
		[][3]float64{{0, 1, 2}, {1, 2, 2}, {2, 3, 2}},
		[]pairs.Pair{pairs.New(0, 3)},
		1.0, 1)
	sel := []int{inst.CandidateIndex(graph.Edge{U: 0, V: 2})}
	statuses := inst.Report(sel)
	dense, err := NewInstance(inst.Graph(), inst.Pairs(), inst.Threshold(), 1,
		&Options{AllowTrivial: true, Table: shortestpath.NewTable(inst.Graph(), 0)})
	if err != nil {
		t.Fatal(err)
	}
	if want := dense.Report(sel); !reflect.DeepEqual(statuses, want) {
		t.Fatalf("default-table report %+v, dense-table report %+v", statuses, want)
	}
	st := statuses[0]
	if !st.UsesShortcut || st.Maintained {
		t.Fatalf("pair should be improved but not maintained: %+v", st)
	}
	if want := failprob.ProbFromLength(2); math.Abs(st.After-want) > 1e-12 {
		t.Fatalf("After %v, want probability of the shortcut path %v", st.After, want)
	}
	s := Summarize(statuses)
	if s.ImprovedButShort != 1 || s.Maintained != 0 || s.NewlyMaintained != 0 {
		t.Fatalf("summary %+v", s)
	}
	if math.Abs(s.WorstAfter-st.After) > 1e-12 {
		t.Fatalf("WorstAfter %v != worst pair After %v", s.WorstAfter, st.After)
	}
}

func TestLocalSearchOnlyImproves(t *testing.T) {
	rng := xrand.New(205)
	inst := testInstance(t, 16, 8, 3, 0.9, rng)
	for trial := 0; trial < 5; trial++ {
		start := rng.SampleDistinct(inst.NumCandidates(), inst.K())
		before := inst.Sigma(start)
		refined := LocalSearch(inst, start, LocalSearchOptions{})
		if refined.Sigma < before {
			t.Fatalf("local search worsened: %d -> %d", before, refined.Sigma)
		}
		if len(refined.Edges) != len(start) {
			t.Fatalf("local search changed budget: %d -> %d", len(start), len(refined.Edges))
		}
	}
}

func TestLocalSearchReachesSwapOptimum(t *testing.T) {
	rng := xrand.New(206)
	inst := testInstance(t, 14, 6, 2, 0.9, rng)
	refined := LocalSearch(inst, rng.SampleDistinct(inst.NumCandidates(), 2), LocalSearchOptions{})
	// At a swap-local optimum, no single (drop, add) improves σ.
	sel := refined.Selection
	for pos := range sel {
		rest := make([]int, 0, len(sel)-1)
		rest = append(rest, sel[:pos]...)
		rest = append(rest, sel[pos+1:]...)
		sub := inst.NewSearch(rest)
		_, gain := sub.BestAdd()
		if sub.Sigma()+gain > refined.Sigma {
			t.Fatalf("swap improvement still available at pos %d", pos)
		}
	}
}
