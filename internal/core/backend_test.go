package core

import (
	"fmt"
	"math"
	"reflect"
	"strings"
	"testing"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// This file is the backend-differential suite: for every placement
// algorithm, an instance built on the dense table and one built on the lazy
// row cache must produce byte-identical placements, identical σ/μ/ν values,
// and identical work counters: every counter but the Dijkstra and
// row-cache ones the backends are allowed to differ in
// (CounterSnapshot.BackendInvariant). Ball merges and pruned scan cells
// are compared too — every backend merges and scans the same d_t-balls.
// Run under -race it also certifies the lazy cache against the solvers'
// concurrent row access.

// backendLazy and backendDense name the full-row legs of the differential
// suites. Neither is a backend NewInstance builds; withBackend supplies
// them through Options.Table.
const (
	backendLazy  DistBackend = "lazy"
	backendDense DistBackend = "dense"
)

// withBackend returns opts on backend b over g: backendLazy supplies a
// fresh shortestpath.LazyTable as Options.Table, backendDense a fresh
// dense shortestpath.Table, and every other value sets
// Options.DistBackend.
func withBackend(g *graph.Graph, b DistBackend, opts Options) *Options {
	switch b {
	case backendLazy:
		opts.Table = shortestpath.NewLazyTable(g, shortestpath.LazyOptions{})
	case backendDense:
		opts.Table = shortestpath.NewTable(g, 0)
	default:
		opts.DistBackend = b
	}
	return &opts
}

// backendPair builds a dense-backed and a lazy-backed instance over the
// same graph, pair set, threshold, and budget.
func backendPair(t *testing.T, n, m, k int, dt float64, rng *xrand.Rand) (dense, lazy *Instance) {
	t.Helper()
	g := randomConnectedGraph(t, n, 2*n, rng)
	sampler := shortestpath.NewTable(g, 0)
	ps, err := pairs.SampleViolating(sampler, dt, m, rng)
	if err != nil {
		t.Skipf("could not sample %d violating pairs: %v", m, err)
	}
	thr := failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}
	dense, err = NewInstance(g, ps, thr, k, withBackend(g, backendDense, Options{AllowTrivial: true}))
	if err != nil {
		t.Fatalf("NewInstance(dense): %v", err)
	}
	lazy, err = NewInstance(g, ps, thr, k, &Options{AllowTrivial: true, Table: shortestpath.NewLazyTable(g, shortestpath.LazyOptions{})})
	if err != nil {
		t.Fatalf("NewInstance(lazy): %v", err)
	}
	return dense, lazy
}

// runCounted runs fn and returns the global-counter delta it caused, with
// the backend-variant counters zeroed for cross-backend comparison.
func runCounted(fn func()) telemetry.CounterSnapshot {
	before := telemetry.Global().Snapshot()
	fn()
	return telemetry.Global().Snapshot().Sub(before).BackendInvariant()
}

// TestBackendDifferentialSolvers runs every solver on dense and lazy
// instances across ≥24 seeds, serial and parallel, and requires identical
// placements and identical backend-invariant counters.
func TestBackendDifferentialSolvers(t *testing.T) {
	const seeds = 24
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := xrand.New(9100 + seed)
			n := 13 + int(seed%5)
			dense, lazy := backendPair(t, n, 6, 3, 0.8, rng)

			for _, workers := range []int{1, 8} {
				workers := workers
				t.Run(fmt.Sprintf("par%d", workers), func(t *testing.T) {
					t.Run("greedy_sigma", func(t *testing.T) {
						var dpl, lpl Placement
						dc := runCounted(func() { dpl = GreedySigma(dense, Parallelism(workers)) })
						lc := runCounted(func() { lpl = GreedySigma(lazy, Parallelism(workers)) })
						comparePlacements(t, "GreedySigma", dpl, lpl)
						if dc != lc {
							t.Errorf("GreedySigma counters differ beyond backend-variant set:\ndense %+v\nlazy  %+v", dc, lc)
						}
					})

					t.Run("sandwich", func(t *testing.T) {
						var dres, lres SandwichResult
						dc := runCounted(func() { dres = Sandwich(dense, Parallelism(workers)) })
						lc := runCounted(func() { lres = Sandwich(lazy, Parallelism(workers)) })
						comparePlacements(t, "Sandwich.Best", dres.Best, lres.Best)
						comparePlacements(t, "Sandwich.FMu", dres.FMu, lres.FMu)
						comparePlacements(t, "Sandwich.FSigma", dres.FSigma, lres.FSigma)
						comparePlacements(t, "Sandwich.FNu", dres.FNu, lres.FNu)
						if dres.Ratio != lres.Ratio || dres.ApproxFactor != lres.ApproxFactor {
							t.Errorf("sandwich guarantee differs: dense (%v, %v), lazy (%v, %v)",
								dres.Ratio, dres.ApproxFactor, lres.Ratio, lres.ApproxFactor)
						}
						if dc != lc {
							t.Errorf("Sandwich counters differ beyond backend-variant set:\ndense %+v\nlazy  %+v", dc, lc)
						}
					})

					t.Run("ea", func(t *testing.T) {
						dres := EA(dense, EAOptions{Iterations: 30, RunOptions: RunOptions{Parallelism: workers}}, xrand.New(seed))
						lres := EA(lazy, EAOptions{Iterations: 30, RunOptions: RunOptions{Parallelism: workers}}, xrand.New(seed))
						comparePlacements(t, "EA.Best", dres.Best, lres.Best)
						if dres.Evaluations != lres.Evaluations {
							t.Errorf("EA evaluations differ: dense %d, lazy %d", dres.Evaluations, lres.Evaluations)
						}
					})

					t.Run("aea", func(t *testing.T) {
						opts := AEAOptions{Iterations: 30, PopSize: 5, Delta: 0.05, RecordTrace: true, RunOptions: RunOptions{Parallelism: workers}}
						dres := AEA(dense, opts, xrand.New(seed))
						lres := AEA(lazy, opts, xrand.New(seed))
						comparePlacements(t, "AEA.Best", dres.Best, lres.Best)
						if !reflect.DeepEqual(dres.Trace, lres.Trace) {
							t.Errorf("AEA trace differs between backends")
						}
					})

					t.Run("random_placement", func(t *testing.T) {
						dpl, derr := RandomPlacement(dense, 25, xrand.New(seed), Parallelism(workers))
						lpl, lerr := RandomPlacement(lazy, 25, xrand.New(seed), Parallelism(workers))
						if derr != nil || lerr != nil {
							t.Fatalf("RandomPlacement: dense err %v, lazy err %v", derr, lerr)
						}
						comparePlacements(t, "RandomPlacement", dpl, lpl)
					})

					t.Run("local_search", func(t *testing.T) {
						start := xrand.New(seed).SampleDistinct(dense.NumCandidates(), dense.K())
						dpl := LocalSearch(dense, start, LocalSearchOptions{RunOptions: RunOptions{Parallelism: workers}})
						lpl := LocalSearch(lazy, start, LocalSearchOptions{RunOptions: RunOptions{Parallelism: workers}})
						comparePlacements(t, "LocalSearch", dpl, lpl)
					})
				})
			}

			t.Run("sigma_mu_nu", func(t *testing.T) {
				r := xrand.New(9200 + seed)
				for rep := 0; rep < 10; rep++ {
					sel := r.SampleDistinct(dense.NumCandidates(), 1+r.Intn(3))
					if ds, ls := dense.Sigma(sel), lazy.Sigma(sel); ds != ls {
						t.Fatalf("σ(%v): dense %d, lazy %d", sel, ds, ls)
					}
					if dm, lm := dense.Mu(sel), lazy.Mu(sel); dm != lm {
						t.Fatalf("μ(%v): dense %v, lazy %v", sel, dm, lm)
					}
					if dn, ln := dense.Nu(sel), lazy.Nu(sel); dn != ln {
						t.Fatalf("ν(%v): dense %v, lazy %v", sel, dn, ln)
					}
					for _, w := range []int{2, 8} {
						if ds, ls := dense.SigmaPar(sel, w), lazy.SigmaPar(sel, w); ds != ls {
							t.Fatalf("σ_par(%v, %d): dense %d, lazy %d", sel, w, ds, ls)
						}
					}
				}
			})
		})
	}
}

// TestBackendDifferentialCommonNode runs the MSC-CN reduction on both
// backends over common-node instances.
func TestBackendDifferentialCommonNode(t *testing.T) {
	for seed := int64(0); seed < 8; seed++ {
		rng := xrand.New(9300 + seed)
		n := 14 + int(seed%4)
		g := randomConnectedGraph(t, n, 2*n, rng)
		sampler := shortestpath.NewTable(g, 0)
		u := graph.NodeID(rng.Intn(n))
		ps, err := pairs.SampleViolatingWithCommonNode(sampler, 0.8, 5, u, rng)
		if err != nil {
			continue // this graph has too few violating pairs through u
		}
		thr := failprob.Threshold{P: 1 - math.Exp(-0.8), D: 0.8}
		dense, err := NewInstance(g, ps, thr, 2, withBackend(g, backendDense, Options{AllowTrivial: true}))
		if err != nil {
			t.Fatalf("seed %d: NewInstance(dense): %v", seed, err)
		}
		lazy, err := NewInstance(g, ps, thr, 2, &Options{AllowTrivial: true, Table: shortestpath.NewLazyTable(g, shortestpath.LazyOptions{})})
		if err != nil {
			t.Fatalf("seed %d: NewInstance(lazy): %v", seed, err)
		}
		dres, derr := SolveCommonNode(dense)
		lres, lerr := SolveCommonNode(lazy)
		if derr != nil || lerr != nil {
			t.Fatalf("seed %d: SolveCommonNode: dense err %v, lazy err %v", seed, derr, lerr)
		}
		comparePlacements(t, "SolveCommonNode", dres.Placement, lres.Placement)
		if dres.Common != lres.Common || dres.Coverage != lres.Coverage {
			t.Errorf("seed %d: common/coverage differ: dense (%d, %d), lazy (%d, %d)",
				seed, dres.Common, dres.Coverage, lres.Common, lres.Coverage)
		}
	}
}

// pathGraph builds a path graph of n nodes with unit edges.
func pathGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pathInstance builds an instance over a path graph of n nodes with two
// far-apart pairs; cheap at any n on the bounded backend, so auto-selection
// can be tested at the thresholds.
func pathInstance(t *testing.T, n int, opts *Options) *Instance {
	t.Helper()
	return pathInstanceOn(t, pathGraph(t, n), opts)
}

func pathInstanceOn(t *testing.T, g *graph.Graph, opts *Options) *Instance {
	t.Helper()
	n := g.N()
	ps := pairs.MustNewSet(n, []pairs.Pair{
		{U: 0, W: graph.NodeID(n - 1)},
		{U: 1, W: graph.NodeID(n - 2)},
	})
	thr := failprob.Threshold{P: 1 - math.Exp(-2), D: 2}
	inst, err := NewInstance(g, ps, thr, 1, opts)
	if err != nil {
		t.Fatal(err)
	}
	return inst
}

// TestBackendAutoSelection pins the resolution chain: a supplied table
// is used verbatim, and every other instance runs on the bounded d_t-ball
// table at every n, whichever compatibility name DistBackend carries.
func TestBackendAutoSelection(t *testing.T) {
	kind := func(src shortestpath.DistanceSource) string {
		switch src.(type) {
		case *shortestpath.Table:
			return "dense"
		case *shortestpath.BoundedTable:
			return "bounded"
		}
		return fmt.Sprintf("%T", src)
	}
	for _, n := range []int{32, 511, 512, 100_000} {
		for _, b := range []DistBackend{BackendAuto, BackendBounded} {
			inst := pathInstance(t, n, &Options{AllowTrivial: true, DistBackend: b})
			if got := kind(inst.Table()); got != "bounded" {
				t.Errorf("%q at n=%d: got %s, want bounded", b, n, got)
			}
			if reach := inst.Table().(*shortestpath.BoundedTable).Reach(); reach != inst.Threshold().D {
				t.Errorf("%q at n=%d: reach %v, want d_t = %v", b, n, reach, inst.Threshold().D)
			}
		}
	}

	// A supplied table beats the option.
	g := pathGraph(t, 512)
	for _, table := range []shortestpath.DistanceSource{
		shortestpath.NewTable(g, 0),
		shortestpath.NewLazyTable(g, shortestpath.LazyOptions{}),
	} {
		if src := pathInstanceOn(t, g, &Options{AllowTrivial: true, Table: table, DistBackend: BackendBounded}).Table(); src != table {
			t.Errorf("supplied %T: instance built %T instead", table, src)
		}
	}
}

// TestParseDistBackend: auto and bounded parse; dense is refused with a
// message that says the backend was removed, and unknown values are
// refused by name.
func TestParseDistBackend(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want DistBackend
	}{
		{"", BackendAuto},
		{"auto", BackendAuto},
		{"bounded", BackendBounded},
	} {
		got, err := ParseDistBackend(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseDistBackend(%q) = (%q, %v), want (%q, nil)", tc.in, got, err, tc.want)
		}
	}
	if _, err := ParseDistBackend("dense"); err == nil || !strings.Contains(err.Error(), "dense distance backend was removed") {
		t.Errorf("ParseDistBackend(dense) = %v, want an error saying the dense backend was removed", err)
	}
	for _, bad := range []string{"eager", "lazy"} {
		if _, err := ParseDistBackend(bad); err == nil || !strings.Contains(err.Error(), fmt.Sprintf("unknown distance backend %q", bad)) {
			t.Errorf("ParseDistBackend(%q) = %v, want an unknown-backend error", bad, err)
		}
	}
}

// TestBackendOptionValidation covers the supplied-table path and its size
// check, plus the rejection of an unknown backend value smuggled past
// ParseDistBackend.
func TestBackendOptionValidation(t *testing.T) {
	rng := xrand.New(9400)
	g := randomConnectedGraph(t, 12, 24, rng)
	table := shortestpath.NewTable(g, 0)
	ps, err := pairs.SampleViolating(table, 0.8, 4, rng)
	if err != nil {
		t.Skipf("could not sample pairs: %v", err)
	}
	thr := failprob.Threshold{P: 1 - math.Exp(-0.8), D: 0.8}

	inst, err := NewInstance(g, ps, thr, 2, &Options{AllowTrivial: true, Table: table})
	if err != nil {
		t.Fatalf("NewInstance with supplied table: %v", err)
	}
	if inst.Table() != shortestpath.DistanceSource(table) {
		t.Error("supplied table was not used verbatim")
	}

	other := randomConnectedGraph(t, 13, 26, rng)
	wrong := shortestpath.NewTable(other, 0)
	if _, err := NewInstance(g, ps, thr, 2, &Options{AllowTrivial: true, Table: wrong}); err == nil {
		t.Error("mismatched supplied table accepted, want error")
	}

	for _, bogus := range []DistBackend{"bogus", "dense"} {
		if _, err := newDistanceSource(g, thr, &Options{DistBackend: bogus}); err == nil {
			t.Errorf("backend %q accepted, want error", bogus)
		}
	}
}
