package core_test

import (
	"testing"

	"msc/internal/core"
	"msc/internal/dynamic"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// TestObjectiveMatchesSearch holds the one objective every solver ranks
// whole selections by to the value the problem's Search reports, at every
// worker count, and its split to the fault-free σ and — on survivable
// problems only — σ⁻. The selections include the empty one and a
// duplicated shortcut, which survivable placements may use.
func TestObjectiveMatchesSearch(t *testing.T) {
	const dt = 1.2
	rng := xrand.New(2900)
	g, ps, table := diffWorld(t, 16, 6, dt, true, false, rng)
	var series [3]struct {
		g     *graph.Graph
		ps    *pairs.Set
		table *shortestpath.Table
	}
	for i := range series {
		series[i].g, series[i].ps, series[i].table = diffWorld(t, 16, 5, dt, i%2 == 0, false, rng)
	}
	withOpts := func(opts core.Options) core.Problem {
		opts.Table = table
		return diffInstance(t, g, ps, dt, 3, opts)
	}
	var insts []*core.Instance
	for _, s := range series {
		insts = append(insts, diffInstance(t, s.g, s.ps, dt, 3, core.Options{Table: s.table}))
	}
	dp, err := dynamic.NewProblem(insts)
	if err != nil {
		t.Fatal(err)
	}
	problems := []struct {
		name       string
		p          core.Problem
		survivable bool
	}{
		{"plain", withOpts(core.Options{}), false},
		{"budget-unit", withOpts(core.Options{Budget: 3, CostModel: core.CostUnit}), false},
		{"budget-length", withOpts(core.Options{Budget: 4, CostModel: core.CostLength}), false},
		{"survive-shortcut", withOpts(core.Options{Survive: core.SurviveShortcut}), true},
		{"survive-node", withOpts(core.Options{Survive: core.SurviveNode}), true},
		{"dynamic", dp, false},
	}
	for _, pc := range problems {
		p := pc.p
		n := p.NumCandidates()
		c := rng.Intn(n)
		sels := [][]int{
			nil,
			{c},
			{c, c},
			append(rng.SampleDistinct(n, 2), c, c),
			rng.SampleDistinct(n, 3),
			rng.SampleDistinct(n, 5),
		}
		for _, sel := range sels {
			want := p.NewSearch(sel).Sigma()
			for _, workers := range []int{1, 2, 8} {
				v := core.Objective(p, sel, workers)
				if v != want {
					t.Fatalf("%s %v par%d: objective %d, Search.Sigma %d", pc.name, sel, workers, v, want)
				}
				sigma, worst := core.SplitObjective(p, v)
				if s := p.Sigma(sel); sigma != s {
					t.Fatalf("%s %v par%d: split σ %d, Sigma %d", pc.name, sel, workers, sigma, s)
				}
				switch {
				case !pc.survivable && worst != nil:
					t.Fatalf("%s %v: fault-free split carries σ⁻ = %d", pc.name, sel, *worst)
				case pc.survivable && worst == nil:
					t.Fatalf("%s %v: survivable split carries no σ⁻", pc.name, sel)
				case pc.survivable:
					if w := p.(core.WorstCaseProblem).SigmaWorst(sel); *worst != w {
						t.Fatalf("%s %v par%d: split σ⁻ %d, SigmaWorst %d", pc.name, sel, workers, *worst, w)
					}
				}
			}
		}
	}
}
