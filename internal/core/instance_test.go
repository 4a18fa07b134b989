package core

import (
	"errors"
	"math"
	"strings"
	"testing"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/maxcover"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

func TestNewInstanceValidation(t *testing.T) {
	g := graph.NewBuilder(4).AddEdge(0, 1, 1).MustBuild()
	ps := pairs.MustNewSet(4, []pairs.Pair{{U: 0, W: 2}, {U: 1, W: 3}})
	thr := failprob.NewThreshold(0.2)

	if _, err := NewInstance(g, ps, thr, 0, nil); !errors.Is(err, ErrBudget) {
		t.Fatalf("err = %v, want ErrBudget", err)
	}
	// m=2 ≤ k=2 is trivial (§III-C) unless allowed.
	if _, err := NewInstance(g, ps, thr, 2, nil); !errors.Is(err, ErrTrivial) {
		t.Fatalf("err = %v, want ErrTrivial", err)
	}
	if _, err := NewInstance(g, ps, thr, 2, &Options{AllowTrivial: true}); err != nil {
		t.Fatalf("AllowTrivial failed: %v", err)
	}
	psBig := pairs.MustNewSet(9, []pairs.Pair{{U: 0, W: 8}, {U: 1, W: 7}})
	if _, err := NewInstance(g, psBig, thr, 1, nil); !errors.Is(err, ErrPairGraph) {
		t.Fatalf("err = %v, want ErrPairGraph", err)
	}
}

func TestSuppliedTableSizeChecked(t *testing.T) {
	g := graph.NewBuilder(4).AddEdge(0, 1, 1).MustBuild()
	g2 := graph.NewBuilder(5).AddEdge(0, 1, 1).MustBuild()
	ps := pairs.MustNewSet(4, []pairs.Pair{{U: 0, W: 2}, {U: 1, W: 3}})
	wrongTable := shortestpathTable(g2)
	if _, err := NewInstance(g, ps, failprob.NewThreshold(0.2), 1,
		&Options{AllowTrivial: true, Table: wrongTable}); err == nil {
		t.Fatal("expected table-size error")
	}
}

func TestSigmaEdgesMatchesSelection(t *testing.T) {
	rng := xrand.New(61)
	inst := testInstance(t, 14, 6, 3, 0.8, rng)
	sel := rng.SampleDistinct(inst.NumCandidates(), 3)
	edges := SelectionEdges(inst, sel)
	if inst.SigmaEdges(edges) != inst.Sigma(sel) {
		t.Fatal("SigmaEdges disagrees with Sigma")
	}
	back := EdgeSelection(inst, edges)
	for i := range back {
		if back[i] != sel[i] {
			t.Fatal("EdgeSelection not inverse of SelectionEdges")
		}
	}
}

func TestRestrictedUniverseExcludesPairNodes(t *testing.T) {
	rng := xrand.New(71)
	g := randomConnectedGraph(t, 16, 24, rng)
	table := shortestpathTable(g)
	ps, err := pairs.SampleViolating(table, 0.8, 5, rng)
	if err != nil {
		t.Skip("no violating pairs")
	}
	inst, err := NewInstance(g, ps, thrD(0.8), 3,
		&Options{AllowTrivial: true, Table: table, ExcludePairEndpoints: true})
	if err != nil {
		t.Fatal(err)
	}
	pairNodes := map[graph.NodeID]bool{}
	for _, v := range ps.Nodes() {
		pairNodes[v] = true
	}
	wantNodes := 16 - len(ps.Nodes())
	if got := len(inst.CandidateNodes()); got != wantNodes {
		t.Fatalf("candidate nodes = %d, want %d", got, wantNodes)
	}
	if inst.NumCandidates() != wantNodes*(wantNodes-1)/2 {
		t.Fatalf("NumCandidates = %d", inst.NumCandidates())
	}
	for i := 0; i < inst.NumCandidates(); i++ {
		e := inst.CandidateEdge(i)
		if pairNodes[e.U] || pairNodes[e.V] {
			t.Fatalf("candidate %d = %v touches a pair node", i, e)
		}
		if back := inst.CandidateIndex(e); back != i {
			t.Fatalf("roundtrip %d -> %v -> %d", i, e, back)
		}
	}
	// Asking for an excluded edge panics.
	func() {
		defer func() {
			if recover() == nil {
				t.Fatal("expected panic for out-of-universe edge")
			}
		}()
		p := ps.At(0)
		inst.CandidateIndex(graph.Edge{U: p.U, V: p.W})
	}()
	// MSC-CN refuses restricted universes.
	if _, err := SolveCommonNode(inst); !errors.Is(err, ErrRestrictedUniverse) && !errors.Is(err, ErrNoCommonNode) {
		t.Fatalf("err = %v", err)
	}
	// σ and the bounds still behave: μ ≤ σ ≤ ν on random selections.
	for rep := 0; rep < 10; rep++ {
		sel := rng.SampleDistinct(inst.NumCandidates(), rng.Intn(4))
		sigma := float64(inst.Sigma(sel))
		if inst.Mu(sel) > sigma+1e-9 || inst.Nu(sel) < sigma-1e-9 {
			t.Fatal("bound violated under restricted universe")
		}
	}
	// Search machinery agrees with direct evaluation too.
	s := inst.NewSearch(nil)
	cand, gain := s.BestAdd()
	if want := inst.Sigma([]int{cand}) - inst.BaseSigma(); gain != want {
		t.Fatalf("restricted BestAdd gain %d, want %d", gain, want)
	}
}

func TestMuProblemGreedyMatchesMuEvaluator(t *testing.T) {
	rng := xrand.New(81)
	inst := testInstance(t, 16, 7, 3, 0.8, rng)
	res := maxcover.Greedy(inst.MuProblem())
	// The coverage value of the greedy run must equal μ of the selection.
	if got := inst.Mu(res.Chosen); got != res.Value+float64(inst.BaseSigma()) {
		t.Fatalf("μ(%v) = %v, coverage gain %v + base %d", res.Chosen, got, res.Value, inst.BaseSigma())
	}
}

func TestNuProblemGreedyMatchesNuEvaluator(t *testing.T) {
	rng := xrand.New(91)
	inst := testInstance(t, 16, 7, 3, 0.8, rng)
	res := maxcover.Greedy(inst.NuProblem())
	if got := inst.Nu(res.Chosen); got != res.Value+float64(inst.BaseSigma()) {
		t.Fatalf("ν(%v) = %v, coverage gain %v + base %d", res.Chosen, got, res.Value, inst.BaseSigma())
	}
}

func TestPlacementString(t *testing.T) {
	rng := xrand.New(95)
	inst := testInstance(t, 12, 5, 2, 0.8, rng)
	pl := newPlacement(inst, []int{0, 1})
	s := pl.String()
	if !strings.HasPrefix(s, "σ=") || !strings.Contains(s, "F={") {
		t.Fatalf("String = %q", s)
	}
}

// Helpers shared with other test files.

func shortestpathTable(g *graph.Graph) *shortestpath.Table {
	return shortestpath.NewTable(g, 0)
}

func thrD(d float64) failprob.Threshold {
	return failprob.Threshold{P: 1 - math.Exp(-d), D: d}
}
