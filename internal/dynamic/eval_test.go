package dynamic

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"msc/internal/core"
	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// evalSeries builds a T-instance series from one RNG stream.
func evalSeries(t *testing.T, n, m, k, T int, dt float64, seed int64) (insts []*core.Instance) {
	t.Helper()
	rng := xrand.New(seed)
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

// evalSink collects RoundEvents so the test can check the multi-instance
// LastEvalStats aggregation reaches the trace layer.
type evalSink struct{ rounds []telemetry.RoundEvent }

func (s *evalSink) Emit(e telemetry.Event) {
	if r, ok := e.(telemetry.RoundEvent); ok {
		s.rounds = append(s.rounds, r)
	}
}

// TestDynamicEvalDifferential runs every solver on the dynamic problem and
// on its rebuild reference (rebuildProblem) across 24 seeds, serial and
// parallel: identical placements, per-instance σ breakdowns, sandwich
// bounds, EA evaluation counts and AEA traces. It also checks that the
// per-round eval stats summed over the per-instance sub-searches reach
// GreedySigma's trace.
func TestDynamicEvalDifferential(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			iprob, err := NewProblem(evalSeries(t, 12, 5, 3, 3, 0.8, 9850+seed))
			if err != nil {
				t.Fatal(err)
			}
			rprob := rebuildProblem{iprob}
			same := func(workers int, what string, ipl, rpl core.Placement) {
				t.Helper()
				if ipl.Sigma != rpl.Sigma || !reflect.DeepEqual(ipl.Selection, rpl.Selection) {
					t.Errorf("par %d: %s differs: incremental (σ=%d, %v), rebuild (σ=%d, %v)",
						workers, what, ipl.Sigma, ipl.Selection, rpl.Sigma, rpl.Selection)
				}
			}

			for _, workers := range []int{1, 8} {
				ipl := core.GreedySigma(iprob, core.Parallelism(workers))
				rpl := core.GreedySigma(rprob, core.Parallelism(workers))
				same(workers, "GreedySigma", ipl, rpl)
				if !reflect.DeepEqual(iprob.SigmaPerInstance(ipl.Selection), iprob.SigmaPerInstance(rpl.Selection)) {
					t.Errorf("par %d: per-instance σ breakdown differs", workers)
				}

				ires := core.Sandwich(iprob, core.Parallelism(workers))
				rres := core.Sandwich(rprob, core.Parallelism(workers))
				same(workers, "Sandwich.Best", ires.Best, rres.Best)
				if ires.Ratio != rres.Ratio {
					t.Errorf("par %d: sandwich ratio differs: incremental %v, rebuild %v", workers, ires.Ratio, rres.Ratio)
				}

				iea := core.EA(iprob, core.EAOptions{Iterations: 20, Parallelism: workers}, xrand.New(seed))
				rea := core.EA(rprob, core.EAOptions{Iterations: 20, Parallelism: workers}, xrand.New(seed))
				same(workers, "EA.Best", iea.Best, rea.Best)
				if iea.Evaluations != rea.Evaluations {
					t.Errorf("par %d: EA evaluations differ: incremental %d, rebuild %d", workers, iea.Evaluations, rea.Evaluations)
				}

				opts := core.AEAOptions{Iterations: 20, PopSize: 4, Delta: 0.05, RecordTrace: true, Parallelism: workers}
				iaea := core.AEA(iprob, opts, xrand.New(seed))
				raea := core.AEA(rprob, opts, xrand.New(seed))
				same(workers, "AEA.Best", iaea.Best, raea.Best)
				if !reflect.DeepEqual(iaea.Trace, raea.Trace) {
					t.Errorf("par %d: AEA trace differs from the rebuild reference", workers)
				}

				irp, ierr := core.RandomPlacement(iprob, 15, xrand.New(seed), core.Parallelism(workers))
				rrp, rerr := core.RandomPlacement(rprob, 15, xrand.New(seed), core.Parallelism(workers))
				if ierr != nil || rerr != nil {
					t.Fatalf("RandomPlacement: incremental err %v, rebuild err %v", ierr, rerr)
				}
				same(workers, "RandomPlacement", irp, rrp)

				start := xrand.New(seed).SampleDistinct(iprob.NumCandidates(), iprob.K())
				ils := core.LocalSearch(iprob, start, core.LocalSearchOptions{Parallelism: workers})
				rls := core.LocalSearch(rprob, start, core.LocalSearchOptions{Parallelism: workers})
				same(workers, "LocalSearch", ils, rls)
			}

			sink := &evalSink{}
			pl := core.GreedySigma(iprob, core.WithSink(sink))
			if len(pl.Selection) > 0 {
				var merged int64
				for _, ev := range sink.rounds {
					merged += ev.RowsMerged + ev.RowsUnchanged
				}
				if merged == 0 {
					t.Error("dynamic greedy rounds report no merged/unchanged rows despite incremental subs")
				}
			}
		})
	}
}
