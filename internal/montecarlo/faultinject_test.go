package montecarlo

import (
	"math"
	"reflect"
	"testing"

	"msc/internal/core"
	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// injectFixture builds a survivable instance and a greedy placement on a
// random connected graph, retrying the pair sample deterministically so a
// seed sweep never silently skips.
func injectFixture(t *testing.T, seed int64, mode core.Survivability) (*core.Instance, []int) {
	t.Helper()
	const n, m, k, dt = 14, 6, 4, 0.9
	for off := int64(0); off < 20; off++ {
		rng := xrand.New(seed*1000 + off)
		b := graph.NewBuilder(n)
		perm := rng.Perm(n)
		for i := 1; i < n; i++ {
			b.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), 0.1+rng.Float64())
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
		table := shortestpath.NewTable(g, 0)
		ps, err := pairs.SampleViolating(table, dt, m, rng)
		if err != nil {
			continue
		}
		inst, err := core.NewInstance(g, ps, failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}, k,
			&core.Options{AllowTrivial: true, Table: table, Survive: mode})
		if err != nil {
			t.Fatalf("NewInstance: %v", err)
		}
		return inst, core.GreedySigma(inst, core.Parallelism(1)).Selection
	}
	t.Fatalf("seed %d: no violating pair sample in 20 attempts", seed)
	return nil, nil
}

// TestInjectNeverBelowDeclaredSigmaWorst is the acceptance check for the
// survivable solvers: fault injection — which recomputes every degraded σ
// from first principles, independent of the solvers' overlay machinery —
// must find no failure scenario whose measured σ falls below the declared
// σ⁻, and the worst measured scenario must equal it exactly.
func TestInjectNeverBelowDeclaredSigmaWorst(t *testing.T) {
	for _, mode := range []core.Survivability{core.SurviveShortcut, core.SurviveNode} {
		for seed := int64(1); seed <= 8; seed++ {
			inst, sel := injectFixture(t, seed, mode)
			declared := inst.SigmaWorst(sel)
			rep, err := Inject(inst.Graph(), inst.Pairs(), inst.Threshold(),
				core.SelectionEdges(inst, sel),
				InjectOptions{Nodes: mode == core.SurviveNode}, nil)
			if err != nil {
				t.Fatalf("mode=%s seed=%d: Inject: %v", mode, seed, err)
			}
			if rep.SigmaNominal != inst.Sigma(sel) {
				t.Fatalf("mode=%s seed=%d: nominal σ %d != instance σ %d",
					mode, seed, rep.SigmaNominal, inst.Sigma(sel))
			}
			if len(rep.ShortcutKnockouts) != len(sel) {
				t.Fatalf("mode=%s seed=%d: %d shortcut knockouts for %d shortcuts",
					mode, seed, len(rep.ShortcutKnockouts), len(sel))
			}
			for _, ko := range append(append([]Knockout(nil), rep.ShortcutKnockouts...), rep.NodeKnockouts...) {
				if ko.Sigma < declared {
					t.Fatalf("mode=%s seed=%d: knockout %d measured σ %d below declared σ⁻ %d",
						mode, seed, ko.Failed, ko.Sigma, declared)
				}
			}
			if rep.MinSigma != declared {
				t.Fatalf("mode=%s seed=%d: measured worst σ %d, declared σ⁻ %d (sel=%v)",
					mode, seed, rep.MinSigma, declared, sel)
			}
		}
	}
}

// TestInjectSamplingDeterministic pins the multi-failure sampler: same
// seed, same report; and killing every shortcut with certainty and nothing
// else must reproduce the analytic no-shortcut σ in every trial.
func TestInjectSamplingDeterministic(t *testing.T) {
	inst, sel := injectFixture(t, 3, core.SurviveShortcut)
	shortcuts := core.SelectionEdges(inst, sel)
	opts := InjectOptions{
		Nodes:         true,
		Trials:        200,
		IntrinsicBase: true,
		ShortcutFail:  0.3,
		NodeFail:      0.05,
	}
	a, err := Inject(inst.Graph(), inst.Pairs(), inst.Threshold(), shortcuts, opts, xrand.New(77))
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	b, err := Inject(inst.Graph(), inst.Pairs(), inst.Threshold(), shortcuts, opts, xrand.New(77))
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed, different reports:\n%+v\n%+v", a, b)
	}
	if a.Samples.Trials != opts.Trials || a.Samples.MeanFailures <= 0 {
		t.Fatalf("sampling stats not populated: %+v", a.Samples)
	}
	if a.Samples.MinSigma < 0 || a.Samples.MeanSigma < float64(a.Samples.MinSigma) {
		t.Fatalf("inconsistent sampling stats: %+v", a.Samples)
	}

	// Certain failure of all shortcuts, nothing else → every trial is the
	// bare-graph placement.
	base := inst.Sigma(nil)
	all, err := Inject(inst.Graph(), inst.Pairs(), inst.Threshold(), shortcuts,
		InjectOptions{Trials: 50, ShortcutFail: 1}, xrand.New(9))
	if err != nil {
		t.Fatalf("Inject: %v", err)
	}
	if all.Samples.MinSigma != base || all.Samples.MeanSigma != float64(base) {
		t.Fatalf("all-shortcuts-dead sampling: min=%d mean=%v, want both %d",
			all.Samples.MinSigma, all.Samples.MeanSigma, base)
	}
}

func TestInjectValidation(t *testing.T) {
	inst, sel := injectFixture(t, 5, core.SurviveShortcut)
	g, ps, thr := inst.Graph(), inst.Pairs(), inst.Threshold()
	shortcuts := core.SelectionEdges(inst, sel)
	if _, err := Inject(g, ps, thr, shortcuts, InjectOptions{Weights: []int{1}}, nil); err == nil {
		t.Fatal("want error for short weights slice")
	}
	if _, err := Inject(g, ps, thr, shortcuts, InjectOptions{Trials: 5}, nil); err == nil {
		t.Fatal("want error for trials without rng")
	}
	if _, err := Inject(g, ps, thr, shortcuts,
		InjectOptions{Trials: 5, ShortcutFail: 1.5}, xrand.New(1)); err == nil {
		t.Fatal("want error for failure probability > 1")
	}
	small := graph.NewBuilder(ps.N() + 1).MustBuild()
	if _, err := Inject(small, ps, thr, nil, InjectOptions{}, nil); err == nil {
		t.Fatal("want error for pair/graph universe mismatch")
	}
}
