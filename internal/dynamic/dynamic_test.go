package dynamic

import (
	"errors"
	"math"
	"testing"

	"msc/internal/core"
	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/xrand"
)

// seriesInstances builds T random instances over a shared node universe.
func seriesInstances(t testing.TB, n, m, k, T int, dt float64, seed int64) []*core.Instance {
	t.Helper()
	rng := xrand.New(seed)
	insts := make([]*core.Instance, 0, T)
	for i := 0; i < T; i++ {
		b := graph.NewBuilder(n)
		perm := rng.Perm(n)
		for j := 1; j < n; j++ {
			b.AddEdge(graph.NodeID(perm[j]), graph.NodeID(perm[rng.Intn(j)]), 0.1+rng.Float64())
		}
		for e := 0; e < 2*n; e++ {
			u, v := rng.Intn(n), rng.Intn(n)
			if u != v {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.1+rng.Float64())
			}
		}
		g, err := b.Build()
		if err != nil {
			t.Fatal(err)
		}
		var ps []pairs.Pair
		seen := map[pairs.Pair]bool{}
		for len(ps) < m {
			p := pairs.New(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
			if p.U == p.W || seen[p] {
				continue
			}
			seen[p] = true
			ps = append(ps, p)
		}
		pset, err := pairs.NewSet(n, ps)
		if err != nil {
			t.Fatal(err)
		}
		thr := failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}
		inst, err := core.NewInstance(g, pset, thr, k, &core.Options{AllowTrivial: true})
		if err != nil {
			t.Fatal(err)
		}
		insts = append(insts, inst)
	}
	return insts
}

func TestNewProblemValidation(t *testing.T) {
	if _, err := NewProblem(nil); !errors.Is(err, ErrNoInstances) {
		t.Fatalf("err = %v", err)
	}
	a := seriesInstances(t, 10, 4, 2, 1, 0.7, 1)
	b := seriesInstances(t, 12, 4, 2, 1, 0.7, 2)
	if _, err := NewProblem([]*core.Instance{a[0], b[0]}); !errors.Is(err, ErrNodeUniv) {
		t.Fatalf("err = %v", err)
	}
	c := seriesInstances(t, 10, 4, 3, 1, 0.7, 3)
	if _, err := NewProblem([]*core.Instance{a[0], c[0]}); !errors.Is(err, ErrBudgets) {
		t.Fatalf("err = %v", err)
	}
	// The dynamic σ sums fault-free cardinality σ_i: a survivable or
	// budgeted time instance, at any position, is refused.
	variant := func(opts core.Options) *core.Instance {
		opts.AllowTrivial = true
		inst, err := core.NewInstance(a[0].Graph(), a[0].Pairs(), a[0].Threshold(), a[0].K(), &opts)
		if err != nil {
			t.Fatal(err)
		}
		return inst
	}
	for _, tc := range []struct {
		opts core.Options
		want error
	}{
		{core.Options{Survive: core.SurviveShortcut}, ErrSurvivable},
		{core.Options{Survive: core.SurviveNode}, ErrSurvivable},
		{core.Options{Budget: 2}, ErrBudgeted},
		{core.Options{Budget: 2, CostModel: core.CostLength}, ErrBudgeted},
	} {
		v := variant(tc.opts)
		for _, insts := range [][]*core.Instance{{v}, {a[0], v}} {
			if _, err := NewProblem(insts); !errors.Is(err, tc.want) {
				t.Fatalf("%+v at position %d: err = %v, want %v", tc.opts, len(insts)-1, err, tc.want)
			}
		}
	}
	if _, err := NewProblem([]*core.Instance{a[0], variant(core.Options{Survive: core.SurviveNone})}); err != nil {
		t.Fatalf("fault-free cardinality instances refused: %v", err)
	}
}

func TestSigmaSumsPerInstance(t *testing.T) {
	insts := seriesInstances(t, 12, 5, 2, 4, 0.8, 5)
	prob, err := NewProblem(insts)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(9)
	for rep := 0; rep < 20; rep++ {
		sel := rng.SampleDistinct(prob.NumCandidates(), rng.Intn(4))
		want := 0
		for _, inst := range insts {
			want += inst.Sigma(sel)
		}
		if got := prob.Sigma(sel); got != want {
			t.Fatalf("Sigma(%v) = %d, want %d", sel, got, want)
		}
		per := prob.SigmaPerInstance(sel)
		sum := 0
		for _, s := range per {
			sum += s
		}
		if sum != want {
			t.Fatalf("per-instance sum %d != %d", sum, want)
		}
	}
}

func TestBoundsSandwichSigma(t *testing.T) {
	insts := seriesInstances(t, 12, 5, 2, 3, 0.8, 7)
	prob, err := NewProblem(insts)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(11)
	for rep := 0; rep < 20; rep++ {
		sel := rng.SampleDistinct(prob.NumCandidates(), rng.Intn(4))
		sigma := float64(prob.Sigma(sel))
		if mu := prob.Mu(sel); mu > sigma+1e-9 {
			t.Fatalf("μ=%v > σ=%v", mu, sigma)
		}
		if nu := prob.Nu(sel); nu < sigma-1e-9 {
			t.Fatalf("ν=%v < σ=%v", nu, sigma)
		}
	}
}

func TestSearchMatchesDirectEvaluation(t *testing.T) {
	insts := seriesInstances(t, 11, 4, 3, 3, 0.8, 13)
	prob, err := NewProblem(insts)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(17)
	sel := rng.SampleDistinct(prob.NumCandidates(), 2)
	s := prob.NewSearch(sel)
	if s.Sigma() != prob.Sigma(sel) {
		t.Fatalf("search σ %d != %d", s.Sigma(), prob.Sigma(sel))
	}
	// GainAdd and GainsAdd agree with direct evaluation.
	gains := s.GainsAdd()
	for c := 0; c < prob.NumCandidates(); c += 5 {
		want := prob.Sigma(append(append([]int(nil), sel...), c)) - prob.Sigma(sel)
		if got := s.GainAdd(c); got != want {
			t.Fatalf("GainAdd(%d) = %d, want %d", c, got, want)
		}
		if gains[c] != want {
			t.Fatalf("GainsAdd[%d] = %d, want %d", c, gains[c], want)
		}
	}
	// BestAdd matches argmax over GainsAdd.
	cand, gain := s.BestAdd()
	bestC, bestG := 0, gains[0]
	for c := 1; c < len(gains); c++ {
		if gains[c] > bestG {
			bestC, bestG = c, gains[c]
		}
	}
	if cand != bestC || gain != bestG {
		t.Fatalf("BestAdd = (%d, %d), want (%d, %d)", cand, gain, bestC, bestG)
	}
	// Mutations keep the state consistent.
	s.Add(cand)
	if s.Sigma() != prob.Sigma(s.Selection()) {
		t.Fatal("state inconsistent after Add")
	}
	pos, want := s.BestDrop()
	if got := s.SigmaDrop(pos); got != want {
		t.Fatalf("BestDrop σ=%d, SigmaDrop=%d", want, got)
	}
	s.RemoveAt(pos)
	if s.Sigma() != prob.Sigma(s.Selection()) {
		t.Fatal("state inconsistent after RemoveAt")
	}
}

func TestAlgorithmsRunOnDynamicProblem(t *testing.T) {
	insts := seriesInstances(t, 12, 5, 2, 3, 0.9, 23)
	prob, err := NewProblem(insts)
	if err != nil {
		t.Fatal(err)
	}
	rng := xrand.New(31)
	res := core.Sandwich(prob)
	if res.Best.Sigma < prob.Sigma(nil) {
		t.Fatal("sandwich below baseline")
	}
	if len(res.Best.Edges) > prob.K() {
		t.Fatal("budget violated")
	}
	ea := core.EA(prob, core.EAOptions{Iterations: 100}, rng)
	if len(ea.Best.Edges) > prob.K() {
		t.Fatal("EA budget violated")
	}
	aea := core.AEA(prob, core.AEAOptions{Iterations: 60, PopSize: 4, Delta: 0.1}, rng)
	if len(aea.Best.Edges) != prob.K() {
		t.Fatal("AEA must return exactly k edges")
	}
	// Monotone in T: adding an instance cannot reduce the same
	// placement's total σ.
	sub, err := NewProblem(insts[:2])
	if err != nil {
		t.Fatal(err)
	}
	if prob.Sigma(res.Best.Selection) < sub.Sigma(res.Best.Selection) {
		t.Fatal("total σ decreased when adding a time instance")
	}
}

func TestCandidateMappingSharedAcrossInstances(t *testing.T) {
	insts := seriesInstances(t, 10, 4, 2, 2, 0.8, 37)
	prob, err := NewProblem(insts)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < prob.NumCandidates(); i += 7 {
		e := prob.CandidateEdge(i)
		if back := prob.CandidateIndex(e); back != i {
			t.Fatalf("mapping roundtrip %d -> %v -> %d", i, e, back)
		}
	}
	if prob.T() != 2 || prob.N() != 10 || prob.K() != 2 {
		t.Fatal("metadata wrong")
	}
	if prob.MaxSigma() != 8 {
		t.Fatalf("MaxSigma = %d, want 8", prob.MaxSigma())
	}
}
