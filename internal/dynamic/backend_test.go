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
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// backendSeries builds the same T-instance series twice — once on the dense
// backend, once on the lazy backend — from one RNG stream, so both series
// share graphs, pairs, and budgets exactly.
func backendSeries(t *testing.T, n, m, k, T int, dt float64, seed int64) (dense, lazy []*core.Instance) {
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
		di, err := core.NewInstance(g, pset, thr, k, &core.Options{AllowTrivial: true, Table: shortestpath.NewTable(g, 0)})
		if err != nil {
			t.Fatal(err)
		}
		li, err := core.NewInstance(g, pset, thr, k, &core.Options{AllowTrivial: true, Table: shortestpath.NewLazyTable(g, shortestpath.LazyOptions{})})
		if err != nil {
			t.Fatal(err)
		}
		dense = append(dense, di)
		lazy = append(lazy, li)
	}
	return dense, lazy
}

// TestDynamicBackendDifferential runs the dynamic problem's solvers over
// dense- and lazy-backed instance series: identical placements, per-instance
// σ breakdowns, and sandwich bounds, serial and parallel.
func TestDynamicBackendDifferential(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			denseInsts, lazyInsts := backendSeries(t, 12, 5, 3, 3, 0.8, 9600+seed)
			dprob, err := NewProblem(denseInsts)
			if err != nil {
				t.Fatal(err)
			}
			lprob, err := NewProblem(lazyInsts)
			if err != nil {
				t.Fatal(err)
			}

			for _, workers := range []int{1, 8} {
				dpl := core.GreedySigma(dprob, core.Parallelism(workers))
				lpl := core.GreedySigma(lprob, core.Parallelism(workers))
				if dpl.Sigma != lpl.Sigma || !reflect.DeepEqual(dpl.Selection, lpl.Selection) {
					t.Errorf("par %d: GreedySigma differs: dense (σ=%d, %v), lazy (σ=%d, %v)",
						workers, dpl.Sigma, dpl.Selection, lpl.Sigma, lpl.Selection)
				}
				if !reflect.DeepEqual(dprob.SigmaPerInstance(dpl.Selection), lprob.SigmaPerInstance(lpl.Selection)) {
					t.Errorf("par %d: per-instance σ breakdown differs", workers)
				}

				dres := core.Sandwich(dprob, core.Parallelism(workers))
				lres := core.Sandwich(lprob, core.Parallelism(workers))
				if dres.Best.Sigma != lres.Best.Sigma || !reflect.DeepEqual(dres.Best.Selection, lres.Best.Selection) {
					t.Errorf("par %d: Sandwich.Best differs", workers)
				}
				if dres.Ratio != lres.Ratio {
					t.Errorf("par %d: sandwich ratio differs: dense %v, lazy %v", workers, dres.Ratio, lres.Ratio)
				}
			}

			r := xrand.New(9700 + seed)
			for rep := 0; rep < 6; rep++ {
				sel := r.SampleDistinct(dprob.NumCandidates(), 1+r.Intn(3))
				if ds, ls := dprob.Sigma(sel), lprob.Sigma(sel); ds != ls {
					t.Fatalf("dynamic σ(%v): dense %d, lazy %d", sel, ds, ls)
				}
				if dm, lm := dprob.Mu(sel), lprob.Mu(sel); dm != lm {
					t.Fatalf("dynamic μ(%v): dense %v, lazy %v", sel, dm, lm)
				}
				if dn, ln := dprob.Nu(sel), lprob.Nu(sel); dn != ln {
					t.Fatalf("dynamic ν(%v): dense %v, lazy %v", sel, dn, ln)
				}
			}
		})
	}
}
