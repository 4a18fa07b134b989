package core

import (
	"fmt"
	"math"
	"testing"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/submodular"
	"msc/internal/xrand"
)

// TestSigmaNotSubmodularCounterexample reproduces the counterexample of
// §V-A: three isolated nodes, S = all three pairs, d_t such that only a
// direct shortcut satisfies a pair. Adding f_{1,2} to ∅ gains 1 pair, but
// adding it to {f_{2,3}} gains 2 (the chained zero-length path also
// satisfies {v1, v3}) — violating diminishing returns.
func TestSigmaNotSubmodularCounterexample(t *testing.T) {
	g := graph.NewBuilder(3).MustBuild()
	ps := pairs.MustNewSet(3, []pairs.Pair{{U: 0, W: 1}, {U: 0, W: 2}, {U: 1, W: 2}})
	inst := MustNewInstance(g, ps, failprob.NewThreshold(0.5), 1, &Options{AllowTrivial: true})

	f12 := inst.CandidateIndex(graph.Edge{U: 0, V: 1})
	f23 := inst.CandidateIndex(graph.Edge{U: 1, V: 2})

	gainEmpty := inst.Sigma([]int{f12}) - inst.Sigma(nil)
	gainSuper := inst.Sigma([]int{f23, f12}) - inst.Sigma([]int{f23})
	if gainEmpty != 1 || gainSuper != 2 {
		t.Fatalf("counterexample gains = (%d, %d), want (1, 2)", gainEmpty, gainSuper)
	}
	if gainEmpty >= gainSuper {
		t.Fatal("expected a submodularity violation")
	}
}

// restrictedValue turns a set function over a small candidate subset into
// the submodular.Value form for the exhaustive checkers.
func restrictedValue(cands []int, f func(sel []int) float64) submodular.Value {
	return func(selection []int) float64 {
		sel := make([]int, len(selection))
		for i, s := range selection {
			sel[i] = cands[s]
		}
		return f(sel)
	}
}

// TestMuNuSubmodularExhaustive verifies §V-B's structural claims on random
// instances by exhaustive check over a small candidate subset: μ and ν are
// monotone submodular.
func TestMuNuSubmodularExhaustive(t *testing.T) {
	rng := xrand.New(515)
	for trial := 0; trial < 6; trial++ {
		inst := testInstance(t, 12, 6, 3, 0.8, rng)
		cands := rng.SampleDistinct(inst.NumCandidates(), 7)

		mu := restrictedValue(cands, inst.Mu)
		if !submodular.IsMonotone(len(cands), mu) {
			t.Fatalf("trial %d: μ not monotone", trial)
		}
		if ok, w := submodular.IsSubmodular(len(cands), mu); !ok {
			t.Fatalf("trial %d: μ not submodular: %+v", trial, w)
		}

		nu := restrictedValue(cands, inst.Nu)
		if !submodular.IsMonotone(len(cands), nu) {
			t.Fatalf("trial %d: ν not monotone", trial)
		}
		if ok, w := submodular.IsSubmodular(len(cands), nu); !ok {
			t.Fatalf("trial %d: ν not submodular: %+v", trial, w)
		}
	}
}

// TestSigmaMonotone verifies that σ itself is monotone (adding shortcuts
// never disconnects anyone), even though it is not submodular.
func TestSigmaMonotone(t *testing.T) {
	rng := xrand.New(717)
	for trial := 0; trial < 4; trial++ {
		inst := testInstance(t, 12, 6, 3, 0.8, rng)
		cands := rng.SampleDistinct(inst.NumCandidates(), 7)
		sigma := restrictedValue(cands, func(sel []int) float64 {
			return float64(inst.Sigma(sel))
		})
		if !submodular.IsMonotone(len(cands), sigma) {
			t.Fatalf("trial %d: σ not monotone", trial)
		}
	}
}

// TestCommonNodeReduction verifies Theorem 1's reduction on randomized
// MSC-CN instances: the greedy max-coverage value equals the exact σ of
// the produced placement.
func TestCommonNodeReduction(t *testing.T) {
	rng := xrand.New(919)
	for trial := 0; trial < 8; trial++ {
		g := randomConnectedGraph(t, 20, 30, rng)
		inst := commonNodeInstance(t, g, 0, 8, 3, 0.9, rng)
		if inst == nil {
			continue
		}
		if err := VerifyCommonNodeReduction(inst); err != nil {
			t.Fatalf("trial %d: %v", trial, err)
		}
	}
}

// VerifyCommonNodeReduction cross-checks Theorem 1's reduction on an
// instance: the coverage value of the greedy max-coverage run must equal
// the exact σ of the produced placement. It returns an error describing any
// mismatch.
func VerifyCommonNodeReduction(inst *Instance) error {
	res, err := SolveCommonNode(inst)
	if err != nil {
		return err
	}
	if res.Coverage != res.Placement.Sigma {
		return fmt.Errorf("core: coverage %d != σ %d for common-node placement %v",
			res.Coverage, res.Placement.Sigma, res.Placement.Edges)
	}
	return nil
}

func commonNodeInstance(t *testing.T, g *graph.Graph, u graph.NodeID, m, k int, dt float64, rng *xrand.Rand) *Instance {
	t.Helper()
	table := shortestpath.NewTable(g, 0)
	ps, err := pairs.SampleViolatingWithCommonNode(table, dt, m, u, rng)
	if err != nil {
		return nil
	}
	thr := failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}
	inst, err := NewInstance(g, ps, thr, k, &Options{AllowTrivial: true, Table: table})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inst
}

// TestCommonNodeGreedyBeatsRandomArm sanity-checks that the specialized
// MSC-CN greedy is at least as good as a random placement restricted to
// the same budget.
func TestCommonNodeGreedyBeatsRandomArm(t *testing.T) {
	rng := xrand.New(121)
	g := randomConnectedGraph(t, 24, 36, rng)
	inst := commonNodeInstance(t, g, 0, 10, 3, 0.9, rng)
	if inst == nil {
		t.Skip("no common-node instance available")
	}
	res, err := SolveCommonNode(inst)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := RandomPlacement(inst, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if res.Placement.Sigma < rnd.Sigma-2 {
		// Greedy with the (1−1/e) guarantee should essentially never lose
		// to 20 random draws; small slack guards against freak instances.
		t.Fatalf("common-node greedy σ=%d far below random σ=%d", res.Placement.Sigma, rnd.Sigma)
	}
}

// TestCommonNodeErrNoCommon checks the error path.
func TestCommonNodeErrNoCommon(t *testing.T) {
	rng := xrand.New(131)
	inst := testInstance(t, 14, 6, 2, 0.8, rng)
	if _, hasCommon := inst.Pairs().CommonNode(); hasCommon {
		t.Skip("sampled pairs coincidentally share a node")
	}
	if _, err := SolveCommonNode(inst); err == nil {
		t.Fatal("expected ErrNoCommonNode")
	}
}

// TestCommonNodeOptimality: on tiny instances, MSC-CN greedy must reach at
// least (1 − 1/e) of the exhaustive optimum (Theorem 5).
func TestCommonNodeApproxRatio(t *testing.T) {
	rng := xrand.New(141)
	for trial := 0; trial < 5; trial++ {
		g := randomConnectedGraph(t, 10, 14, rng)
		inst := commonNodeInstance(t, g, 0, 5, 2, 0.9, rng)
		if inst == nil {
			continue
		}
		res, err := SolveCommonNode(inst)
		if err != nil {
			t.Fatal(err)
		}
		opt, err := Exhaustive(inst, 1_000_000)
		if err != nil {
			t.Fatal(err)
		}
		if float64(res.Placement.Sigma) < (1-1/eConst)*float64(opt.Sigma)-1e-9 {
			t.Fatalf("trial %d: CN greedy σ=%d below (1-1/e)·opt=%v",
				trial, res.Placement.Sigma, (1-1/eConst)*float64(opt.Sigma))
		}
	}
}

const eConst = 2.718281828459045
