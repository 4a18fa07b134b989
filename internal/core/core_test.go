package core

import (
	"math"
	"testing"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// testInstance builds a random instance on a connected random graph.
func testInstance(t *testing.T, n, m, k int, dt float64, rng *xrand.Rand) *Instance {
	t.Helper()
	g := randomConnectedGraph(t, n, 2*n, rng)
	table := shortestpath.NewTable(g, 0)
	ps, err := pairs.SampleViolating(table, dt, m, rng)
	if err != nil {
		t.Skipf("could not sample %d violating pairs: %v", m, err)
	}
	inst, err := NewInstance(g, ps, failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}, k,
		&Options{AllowTrivial: true, Table: table})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

func randomConnectedGraph(t *testing.T, n, extra int, rng *xrand.Rand) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), 0.1+rng.Float64())
	}
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.1+rng.Float64())
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// naiveSigma recomputes σ with fresh Dijkstras on the augmented graph.
func naiveSigma(inst *Instance, sel []int) int {
	edges := SelectionEdges(inst, sel)
	count := 0
	for _, p := range inst.Pairs().Pairs() {
		dist := shortestpath.AugmentedDistances(inst.Graph(), edges, p.U)
		if dist[p.W] <= inst.Threshold().D {
			count++
		}
	}
	return count
}

func TestCandidateIndexRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 5, 17, 64} {
		g := graph.NewBuilder(n).MustBuild()
		_ = g
		numCand := n * (n - 1) / 2
		seen := make(map[[2]graph.NodeID]bool, numCand)
		for i := 0; i < numCand; i++ {
			e := candidateEdge(n, i)
			if e.U >= e.V || e.U < 0 || int(e.V) >= n {
				t.Fatalf("n=%d: candidateEdge(%d) = %v invalid", n, i, e)
			}
			if back := candidateIndex(n, e); back != i {
				t.Fatalf("n=%d: index %d -> %v -> %d", n, i, e, back)
			}
			key := [2]graph.NodeID{e.U, e.V}
			if seen[key] {
				t.Fatalf("n=%d: duplicate edge %v", n, e)
			}
			seen[key] = true
		}
	}
}

func TestSigmaMatchesNaive(t *testing.T) {
	rng := xrand.New(101)
	for trial := 0; trial < 10; trial++ {
		inst := testInstance(t, 18, 8, 3, 0.8, rng)
		for rep := 0; rep < 10; rep++ {
			sel := rng.SampleDistinct(inst.NumCandidates(), rng.Intn(5))
			got := inst.Sigma(sel)
			want := naiveSigma(inst, sel)
			if got != want {
				t.Fatalf("trial %d: Sigma(%v) = %d, want %d", trial, sel, got, want)
			}
		}
	}
}

func TestSearchMatchesSigma(t *testing.T) {
	rng := xrand.New(303)
	inst := testInstance(t, 16, 7, 4, 0.9, rng)
	sel := rng.SampleDistinct(inst.NumCandidates(), 3)
	s := inst.NewSearch(sel)
	if s.Sigma() != inst.Sigma(sel) {
		t.Fatalf("search σ %d != instance σ %d", s.Sigma(), inst.Sigma(sel))
	}
	// GainAdd must equal the σ difference for every candidate.
	for c := 0; c < inst.NumCandidates(); c++ {
		want := inst.Sigma(append(append([]int(nil), sel...), c)) - inst.Sigma(sel)
		if got := s.GainAdd(c); got != want {
			t.Fatalf("GainAdd(%d) = %d, want %d", c, got, want)
		}
	}
	// SigmaDrop must match recomputation.
	for pos := range sel {
		rest := make([]int, 0, len(sel)-1)
		rest = append(rest, sel[:pos]...)
		rest = append(rest, sel[pos+1:]...)
		if got, want := s.SigmaDrop(pos), inst.Sigma(rest); got != want {
			t.Fatalf("SigmaDrop(%d) = %d, want %d", pos, got, want)
		}
	}
}

func TestSearchBestAddMatchesScan(t *testing.T) {
	rng := xrand.New(909)
	for trial := 0; trial < 5; trial++ {
		inst := testInstance(t, 14, 6, 3, 0.8, rng)
		sel := rng.SampleDistinct(inst.NumCandidates(), rng.Intn(3))
		s := inst.NewSearch(sel)
		bestCand, bestGain := s.BestAdd()
		// Reference: linear scan over GainAdd.
		wantCand, wantGain := 0, s.GainAdd(0)
		for c := 1; c < inst.NumCandidates(); c++ {
			if g := s.GainAdd(c); g > wantGain {
				wantCand, wantGain = c, g
			}
		}
		if bestCand != wantCand || bestGain != wantGain {
			t.Fatalf("trial %d: BestAdd = (%d, %d), want (%d, %d)",
				trial, bestCand, bestGain, wantCand, wantGain)
		}
	}
}

func TestSearchAddRemoveConsistency(t *testing.T) {
	rng := xrand.New(77)
	inst := testInstance(t, 15, 6, 4, 0.9, rng)
	s := inst.NewSearch(nil)
	var sel []int
	for i := 0; i < 4; i++ {
		c := rng.Intn(inst.NumCandidates())
		s.Add(c)
		sel = append(sel, c)
		if s.Sigma() != inst.Sigma(sel) {
			t.Fatalf("after add %d: σ %d != %d", c, s.Sigma(), inst.Sigma(sel))
		}
	}
	s.RemoveAt(1)
	sel = append(sel[:1], sel[2:]...)
	if s.Sigma() != inst.Sigma(sel) {
		t.Fatalf("after remove: σ %d != %d", s.Sigma(), inst.Sigma(sel))
	}
	if s.Len() != len(sel) {
		t.Fatalf("Len = %d, want %d", s.Len(), len(sel))
	}
}

func TestMuLowerBoundsNuUpperBoundsSigma(t *testing.T) {
	rng := xrand.New(404)
	for trial := 0; trial < 8; trial++ {
		inst := testInstance(t, 16, 8, 3, 0.8, rng)
		for rep := 0; rep < 20; rep++ {
			sel := rng.SampleDistinct(inst.NumCandidates(), rng.Intn(5))
			sigma := float64(inst.Sigma(sel))
			mu := inst.Mu(sel)
			nu := inst.Nu(sel)
			if mu > sigma+1e-9 {
				t.Fatalf("trial %d: μ=%v > σ=%v for %v", trial, mu, sigma, sel)
			}
			if nu < sigma-1e-9 {
				t.Fatalf("trial %d: ν=%v < σ=%v for %v", trial, nu, sigma, sel)
			}
		}
	}
}

func TestMuEmptyEqualsBaseSigma(t *testing.T) {
	rng := xrand.New(2024)
	inst := testInstance(t, 14, 6, 3, 0.9, rng)
	if inst.Mu(nil) != float64(inst.BaseSigma()) {
		t.Errorf("μ(∅)=%v, want %d", inst.Mu(nil), inst.BaseSigma())
	}
	if inst.Nu(nil) != float64(inst.BaseSigma()) {
		t.Errorf("ν(∅)=%v, want %d", inst.Nu(nil), inst.BaseSigma())
	}
	if inst.Sigma(nil) != inst.BaseSigma() {
		t.Errorf("σ(∅)=%d, want %d", inst.Sigma(nil), inst.BaseSigma())
	}
}

func TestGreedySigmaNeverWorseThanSingleBest(t *testing.T) {
	rng := xrand.New(555)
	inst := testInstance(t, 18, 8, 3, 0.8, rng)
	pl := GreedySigma(inst)
	if pl.Sigma < inst.BaseSigma() {
		t.Fatalf("greedy σ %d below baseline %d", pl.Sigma, inst.BaseSigma())
	}
	// Greedy with k ≥ 1 is at least as good as the best single shortcut.
	s := inst.NewSearch(nil)
	_, bestGain := s.BestAdd()
	if pl.Sigma < inst.BaseSigma()+bestGain {
		t.Fatalf("greedy σ %d below best single gain %d", pl.Sigma, inst.BaseSigma()+bestGain)
	}
	if len(pl.Edges) > inst.K() {
		t.Fatalf("greedy used %d > k=%d edges", len(pl.Edges), inst.K())
	}
}

func TestSandwichBestOfThree(t *testing.T) {
	rng := xrand.New(666)
	inst := testInstance(t, 20, 9, 3, 0.8, rng)
	res := Sandwich(inst)
	for _, arm := range []Placement{res.FMu, res.FSigma, res.FNu} {
		if res.Best.Sigma < arm.Sigma {
			t.Fatalf("best σ %d below arm σ %d", res.Best.Sigma, arm.Sigma)
		}
		if len(arm.Edges) > inst.K() {
			t.Fatalf("arm used %d > k=%d edges", len(arm.Edges), inst.K())
		}
	}
	if res.Ratio < 0 || res.Ratio > 1+1e-9 {
		t.Fatalf("ratio %v outside [0, 1]", res.Ratio)
	}
	if math.Abs(res.ApproxFactor-res.Ratio*(1-1/math.E)) > 1e-12 {
		t.Fatalf("approx factor inconsistent")
	}
}

func TestSandwichRatioBoundHolds(t *testing.T) {
	// On instances small enough for exhaustive search, AA must achieve at
	// least Ratio·(1−1/e)·OPT (Eq. 5's practical form).
	rng := xrand.New(888)
	for trial := 0; trial < 5; trial++ {
		inst := testInstance(t, 10, 5, 2, 0.8, rng)
		res := Sandwich(inst)
		opt, err := Exhaustive(inst, 1_000_000)
		if err != nil {
			t.Fatalf("exhaustive: %v", err)
		}
		bound := res.ApproxFactor * float64(opt.Sigma)
		if float64(res.Best.Sigma) < bound-1e-9 {
			t.Fatalf("trial %d: AA σ=%d below bound %v (opt %d, ratio %v)",
				trial, res.Best.Sigma, bound, opt.Sigma, res.Ratio)
		}
		if res.Best.Sigma > opt.Sigma {
			t.Fatalf("trial %d: AA σ=%d exceeds optimum %d", trial, res.Best.Sigma, opt.Sigma)
		}
	}
}

func TestExhaustiveTooLarge(t *testing.T) {
	rng := xrand.New(31)
	inst := testInstance(t, 20, 8, 6, 0.8, rng)
	if _, err := Exhaustive(inst, 1000); err == nil {
		t.Fatal("expected ErrTooLarge")
	}
}

func TestEAImprovesOverBaseline(t *testing.T) {
	rng := xrand.New(111)
	inst := testInstance(t, 16, 8, 3, 0.9, rng)
	res := EA(inst, EAOptions{Iterations: 300, RecordTrace: true}, rng)
	if res.Best.Sigma < inst.BaseSigma() {
		t.Fatalf("EA σ %d below baseline %d", res.Best.Sigma, inst.BaseSigma())
	}
	if len(res.Best.Edges) > inst.K() {
		t.Fatalf("EA returned infeasible |F|=%d > k=%d", len(res.Best.Edges), inst.K())
	}
	if len(res.Trace) != 300 {
		t.Fatalf("trace length %d, want 300", len(res.Trace))
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i] < res.Trace[i-1] {
			t.Fatalf("trace not monotone at %d", i)
		}
	}
	if res.Trace[len(res.Trace)-1] != res.Best.Sigma {
		t.Fatalf("trace end %d != best %d", res.Trace[len(res.Trace)-1], res.Best.Sigma)
	}
}

func TestAEAFeasibleAndMonotoneTrace(t *testing.T) {
	rng := xrand.New(222)
	inst := testInstance(t, 16, 8, 3, 0.9, rng)
	res := AEA(inst, AEAOptions{Iterations: 200, PopSize: 5, Delta: 0.1, RecordTrace: true}, rng)
	if got := len(res.Best.Edges); got != inst.K() {
		t.Fatalf("AEA |F| = %d, want exactly k=%d", got, inst.K())
	}
	for i := 1; i < len(res.Trace); i++ {
		if res.Trace[i] < res.Trace[i-1] {
			t.Fatalf("trace not monotone at %d", i)
		}
	}
	if res.Best.Sigma != inst.Sigma(res.Best.Selection) {
		t.Fatalf("reported σ inconsistent")
	}
}

func TestRandomPlacementFeasible(t *testing.T) {
	rng := xrand.New(333)
	inst := testInstance(t, 16, 8, 3, 0.9, rng)
	pl, err := RandomPlacement(inst, 50, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(pl.Edges) != inst.K() {
		t.Fatalf("|F| = %d, want %d", len(pl.Edges), inst.K())
	}
	seen := map[int]bool{}
	for _, c := range pl.Selection {
		if seen[c] {
			t.Fatalf("duplicate candidate %d", c)
		}
		seen[c] = true
	}
}

func TestDeterministicWithSameSeed(t *testing.T) {
	build := func() (Placement, Placement) {
		rng := xrand.New(4242)
		inst := testInstance(t, 16, 8, 3, 0.9, xrand.New(99))
		ea := EA(inst, EAOptions{Iterations: 100}, xrand.New(rng.Int63()))
		aea := AEA(inst, AEAOptions{Iterations: 100, PopSize: 4, Delta: 0.05}, xrand.New(rng.Int63()))
		return ea.Best, aea.Best
	}
	ea1, aea1 := build()
	ea2, aea2 := build()
	if ea1.String() != ea2.String() || aea1.String() != aea2.String() {
		t.Fatalf("same seed produced different results:\n%v vs %v\n%v vs %v", ea1, ea2, aea1, aea2)
	}
}
