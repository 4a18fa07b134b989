package core

import (
	"errors"
	"fmt"
	"math"
	"reflect"
	"testing"
	"testing/quick"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// This file extends the backend-differential suite to the bounded sparse
// backend. Its rows are the dense rows' exact float64 d_t-balls, so the
// bounded metric differs from dense/lazy in exactly one declared way —
// distances beyond d_t read +Inf — and the solver only ever compares
// distances against d_t, so placements must still be byte-identical on any
// edge lengths. The suites run every seed on two generators: raw
// randomConnectedGraph lengths, whose path sums round, and DYADIC lengths
// (integer multiples of 2⁻¹⁰, magnitudes far below 2¹⁴), whose path sums
// are exact, so distinct paths often tie and the tie-breaking of gains and
// argmaxes is exercised too. The declared contract lives in
// shortestpath.SparseSource.

// dyadicConnectedGraph is randomConnectedGraph with every edge length
// snapped to max(1, round(l·1024))/1024.
func dyadicConnectedGraph(t *testing.T, n, extra int, rng *xrand.Rand) *graph.Graph {
	t.Helper()
	dyadic := func(l float64) float64 {
		q := math.Round(l * 1024)
		if q < 1 {
			q = 1
		}
		return q / 1024
	}
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), dyadic(0.1+rng.Float64()))
	}
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v), dyadic(0.1+rng.Float64()))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// boundedGens are the graph generators of the bounded suites, each with
// the prefix its subtests carry.
var boundedGens = []struct {
	prefix string
	graph  func(t *testing.T, n, extra int, rng *xrand.Rand) *graph.Graph
}{
	{"", dyadicConnectedGraph},
	{"raw-", randomConnectedGraph},
}

// boundedPair builds a dense-backed and a bounded-backed instance over
// the same graph from gen, pair set, threshold, and budget.
func boundedPair(t *testing.T, n, m, k int, dt float64, rng *xrand.Rand, gen func(*testing.T, int, int, *xrand.Rand) *graph.Graph) (dense, bounded *Instance) {
	t.Helper()
	g := gen(t, n, 2*n, rng)
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
	bounded, err = NewInstance(g, ps, thr, k, &Options{AllowTrivial: true, DistBackend: BackendBounded})
	if err != nil {
		t.Fatalf("NewInstance(bounded): %v", err)
	}
	return dense, bounded
}

// TestBackendDifferentialBoundedSolvers runs every solver on dense and
// bounded instances across 24 seeds, serial and parallel, and requires
// identical placements and identical backend-invariant counters. For the
// bounded backend it additionally requires the CandidatesPruned total of
// each solver run to be identical at every worker count (the counter is
// accumulated serially while the near-candidate lists are built).
func TestBackendDifferentialBoundedSolvers(t *testing.T) {
	const seeds = 24
	for _, gen := range boundedGens {
		for seed := int64(0); seed < seeds; seed++ {
			t.Run(fmt.Sprintf("%sseed%d", gen.prefix, seed), func(t *testing.T) {
				rng := xrand.New(9700 + seed)
				n := 13 + int(seed%5)
				dense, bounded := boundedPair(t, n, 6, 3, 0.8, rng, gen.graph)

				// prunedBy[solver][workers] collects the bounded backend's
				// CandidatesPruned delta per worker count.
				prunedBy := map[string]map[int]int64{}
				notePruned := func(solver string, workers int, v int64) {
					if prunedBy[solver] == nil {
						prunedBy[solver] = map[int]int64{}
					}
					prunedBy[solver][workers] = v
				}

				for _, workers := range []int{1, 8} {
					workers := workers
					t.Run(fmt.Sprintf("par%d", workers), func(t *testing.T) {
						t.Run("greedy_sigma", func(t *testing.T) {
							var dpl, bpl Placement
							dc := runCounted(func() { dpl = GreedySigma(dense, Parallelism(workers)) })
							before := telemetry.Global().Snapshot()
							bc := runCounted(func() { bpl = GreedySigma(bounded, Parallelism(workers)) })
							notePruned("greedy_sigma", workers, telemetry.Global().Snapshot().Sub(before).CandidatesPruned)
							comparePlacements(t, "GreedySigma", dpl, bpl)
							if dc != bc {
								t.Errorf("GreedySigma counters differ beyond backend-variant set:\ndense   %+v\nbounded %+v", dc, bc)
							}
						})

						t.Run("sandwich", func(t *testing.T) {
							var dres, bres SandwichResult
							dc := runCounted(func() { dres = Sandwich(dense, Parallelism(workers)) })
							bc := runCounted(func() { bres = Sandwich(bounded, Parallelism(workers)) })
							comparePlacements(t, "Sandwich.Best", dres.Best, bres.Best)
							comparePlacements(t, "Sandwich.FMu", dres.FMu, bres.FMu)
							comparePlacements(t, "Sandwich.FSigma", dres.FSigma, bres.FSigma)
							comparePlacements(t, "Sandwich.FNu", dres.FNu, bres.FNu)
							if dres.Ratio != bres.Ratio || dres.ApproxFactor != bres.ApproxFactor {
								t.Errorf("sandwich guarantee differs: dense (%v, %v), bounded (%v, %v)",
									dres.Ratio, dres.ApproxFactor, bres.Ratio, bres.ApproxFactor)
							}
							if dc != bc {
								t.Errorf("Sandwich counters differ beyond backend-variant set:\ndense   %+v\nbounded %+v", dc, bc)
							}
						})

						t.Run("ea", func(t *testing.T) {
							dres := EA(dense, EAOptions{Iterations: 30, Parallelism: workers}, xrand.New(seed))
							bres := EA(bounded, EAOptions{Iterations: 30, Parallelism: workers}, xrand.New(seed))
							comparePlacements(t, "EA.Best", dres.Best, bres.Best)
							if dres.Evaluations != bres.Evaluations {
								t.Errorf("EA evaluations differ: dense %d, bounded %d", dres.Evaluations, bres.Evaluations)
							}
						})

						t.Run("aea", func(t *testing.T) {
							opts := AEAOptions{Iterations: 30, PopSize: 5, Delta: 0.05, RecordTrace: true, Parallelism: workers}
							dres := AEA(dense, opts, xrand.New(seed))
							bres := AEA(bounded, opts, xrand.New(seed))
							comparePlacements(t, "AEA.Best", dres.Best, bres.Best)
							if !reflect.DeepEqual(dres.Trace, bres.Trace) {
								t.Errorf("AEA trace differs between backends")
							}
						})

						t.Run("random_placement", func(t *testing.T) {
							dpl, derr := RandomPlacement(dense, 25, xrand.New(seed), Parallelism(workers))
							bpl, berr := RandomPlacement(bounded, 25, xrand.New(seed), Parallelism(workers))
							if derr != nil || berr != nil {
								t.Fatalf("RandomPlacement: dense err %v, bounded err %v", derr, berr)
							}
							comparePlacements(t, "RandomPlacement", dpl, bpl)
						})

						t.Run("local_search", func(t *testing.T) {
							start := xrand.New(seed).SampleDistinct(dense.NumCandidates(), dense.K())
							dpl := LocalSearch(dense, start, LocalSearchOptions{Parallelism: workers})
							bpl := LocalSearch(bounded, start, LocalSearchOptions{Parallelism: workers})
							comparePlacements(t, "LocalSearch", dpl, bpl)
						})
					})
				}

				for solver, byWorkers := range prunedBy {
					if byWorkers[1] != byWorkers[8] {
						t.Errorf("%s: CandidatesPruned depends on worker count: par1 %d, par8 %d",
							solver, byWorkers[1], byWorkers[8])
					}
				}

				t.Run("sigma_mu_nu", func(t *testing.T) {
					r := xrand.New(9800 + seed)
					for rep := 0; rep < 10; rep++ {
						sel := r.SampleDistinct(dense.NumCandidates(), 1+r.Intn(3))
						if ds, bs := dense.Sigma(sel), bounded.Sigma(sel); ds != bs {
							t.Fatalf("σ(%v): dense %d, bounded %d", sel, ds, bs)
						}
						if dm, bm := dense.Mu(sel), bounded.Mu(sel); dm != bm {
							t.Fatalf("μ(%v): dense %v, bounded %v", sel, dm, bm)
						}
						if dn, bn := dense.Nu(sel), bounded.Nu(sel); dn != bn {
							t.Fatalf("ν(%v): dense %v, bounded %v", sel, dn, bn)
						}
						for _, w := range []int{2, 8} {
							if ds, bs := dense.SigmaPar(sel, w), bounded.SigmaPar(sel, w); ds != bs {
								t.Fatalf("σ_par(%v, %d): dense %d, bounded %d", sel, w, ds, bs)
							}
						}
					}
				})
			})
		}
	}
}

// TestBackendDifferentialBoundedCommonNode runs the MSC-CN reduction on
// dense, lazy and bounded backends over common-node instances from both
// graph generators. The placements must be identical, and the bounded
// solve must materialize no dense row: the coverage sets come from
// d_t-balls.
func TestBackendDifferentialBoundedCommonNode(t *testing.T) {
	solved := 0
	for _, gen := range boundedGens {
		for seed := int64(0); seed < 8; seed++ {
			name := fmt.Sprintf("%sseed%d", gen.prefix, seed)
			rng := xrand.New(9900 + seed)
			n := 14 + int(seed%4)
			g := gen.graph(t, n, 2*n, rng)
			sampler := shortestpath.NewTable(g, 0)
			u := graph.NodeID(rng.Intn(n))
			ps, err := pairs.SampleViolatingWithCommonNode(sampler, 0.8, 5, u, rng)
			if err != nil {
				continue // this graph has too few violating pairs through u
			}
			thr := failprob.Threshold{P: 1 - math.Exp(-0.8), D: 0.8}
			var res [3]CommonNodeResult
			var bounded *Instance
			for i, backend := range []DistBackend{backendDense, backendLazy, BackendBounded} {
				inst, err := NewInstance(g, ps, thr, 2, withBackend(g, backend, Options{AllowTrivial: true}))
				if err != nil {
					t.Fatalf("%s: NewInstance(%s): %v", name, backend, err)
				}
				if res[i], err = SolveCommonNode(inst); err != nil {
					t.Fatalf("%s: SolveCommonNode(%s): %v", name, backend, err)
				}
				bounded = inst
			}
			for i, backend := range []string{"lazy", "bounded"} {
				comparePlacements(t, "SolveCommonNode "+backend, res[0].Placement, res[i+1].Placement)
				if res[0].Common != res[i+1].Common || res[0].Coverage != res[i+1].Coverage {
					t.Errorf("%s: common/coverage differ: dense (%d, %d), %s (%d, %d)",
						name, res[0].Common, res[0].Coverage, backend, res[i+1].Common, res[i+1].Coverage)
				}
			}
			if s := bounded.Table().(*shortestpath.BoundedTable).Stats(); s.DenseRows != 0 {
				t.Errorf("%s: bounded common-node solve materialized %d dense rows", name, s.DenseRows)
			}
			solved++
		}
	}
	if solved == 0 {
		t.Fatal("no seed produced a common-node instance")
	}
}

// TestBoundedExactAtThreshold is the regression test of the bounded
// backend's float32 rows: on the path 0 –L1– 1 –10– 2 –L2– 3 with pair
// {0,3}, shortcut (1,2) leaves d(0,3) = L1 + L2, which exceeds d_t by one
// rounding step while float32(L1) + float32(L2) does not. Exact rows keep
// σ at 0 on every backend; quantized rows satisfied the pair.
func TestBoundedExactAtThreshold(t *testing.T) {
	thr := failprob.NewThreshold(0.11)
	d := thr.D
	var l1, l2 float64
	found := false
	for i := 1; i <= 1000 && !found; i++ {
		l1 = d * (0.3 + float64(i)/4096)
		l2 = d - l1
		for l1+l2 <= d {
			l2 = math.Nextafter(l2, math.Inf(1))
		}
		found = float64(float32(l1))+float64(float32(l2)) <= d
	}
	if !found {
		t.Fatal("no length pair rounds across d_t in float32")
	}
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, l1)
	b.AddEdge(1, 2, 10)
	b.AddEdge(2, 3, l2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ps := pairs.MustNewSet(4, []pairs.Pair{{U: 0, W: 3}})
	for _, backend := range []DistBackend{backendDense, backendLazy, BackendBounded} {
		inst, err := NewInstance(g, ps, thr, 1, withBackend(g, backend, Options{AllowTrivial: true}))
		if err != nil {
			t.Fatalf("%s: %v", backend, err)
		}
		c := inst.CandidateIndex(graph.Edge{U: 1, V: 2})
		if got := inst.NewSearch(nil).GainAdd(c); got != 0 {
			t.Errorf("%s: GainAdd(1,2) = %d, want 0 (L1 + L2 = d_t + %g)", backend, got, l1+l2-d)
		}
		if got := inst.Sigma([]int{c}); got != 0 {
			t.Errorf("%s: σ({(1,2)}) = %d, want 0", backend, got)
		}
	}
}

// TestBoundedQuickProperty is the testing/quick property of the bounded
// backend: for random graphs (dyadic on even seeds, raw on odd) and
// random thresholds, an instance on the bounded backend reports the same
// σ values and the same per-candidate gains arrays as one on the dense
// table.
func TestBoundedQuickProperty(t *testing.T) {
	prop := func(seed int64, nRaw, mRaw uint8, dtRaw uint16) bool {
		rng := xrand.New(int64(7000) + seed)
		n := 8 + int(nRaw%10)
		m := 3 + int(mRaw%4)
		dt := 0.3 + float64(dtRaw%1024)/1024 // [0.3, 1.3): spans ball sizes from tiny to most-of-graph
		g := boundedGens[seed&1].graph(t, n, 2*n, rng)
		sampler := shortestpath.NewTable(g, 0)
		ps, err := pairs.SampleViolating(sampler, dt, m, rng)
		if err != nil {
			return true // too few violating pairs at this threshold — vacuous
		}
		thr := failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}
		dense, err := NewInstance(g, ps, thr, 2, withBackend(g, backendDense, Options{AllowTrivial: true}))
		if err != nil {
			t.Fatalf("NewInstance(dense): %v", err)
		}
		bounded, err := NewInstance(g, ps, thr, 2, &Options{AllowTrivial: true, DistBackend: BackendBounded})
		if err != nil {
			t.Fatalf("NewInstance(bounded): %v", err)
		}
		ds, bs := dense.NewSearch(nil), bounded.NewSearch(nil)
		for round := 0; ; round++ {
			dg := append([]int(nil), ds.GainsAdd()...)
			bg := bs.GainsAdd()
			if !reflect.DeepEqual(dg, bg) {
				t.Logf("gains diverge (n=%d m=%d dt=%v round=%d)", n, m, dt, round)
				return false
			}
			if ds.Sigma() != bs.Sigma() {
				t.Logf("σ diverges: dense %d, bounded %d", ds.Sigma(), bs.Sigma())
				return false
			}
			cand, gain := ds.BestAdd()
			bcand, bgain := bs.BestAdd()
			if cand != bcand || gain != bgain {
				t.Logf("BestAdd diverges: dense (%d,%d), bounded (%d,%d)", cand, gain, bcand, bgain)
				return false
			}
			if round == 2 || gain <= 0 {
				return true
			}
			ds.Add(cand)
			bs.Add(cand)
		}
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

// TestSparseBestAddMatchesDense switches small instances to the sparse
// BestAdd aggregation (their sparseBest field), and differential-checks
// full GreedySigma runs (and the counter invariant) against the dense
// argmax path on the same bounded instance.
func TestSparseBestAddMatchesDense(t *testing.T) {
	for seed := int64(0); seed < 10; seed++ {
		rng := xrand.New(8800 + seed)
		dense, bounded := boundedPair(t, 14+int(seed%4), 6, 3, 0.8, rng, boundedGens[seed&1].graph)
		densePl := GreedySigma(dense, Parallelism(1)) // dense argmax path first
		refPl := GreedySigma(bounded, Parallelism(1))

		bounded.sparseBest = true // every later search runs bestAddSparse
		probe := bounded.newInstSearch(nil)
		probe.BestAdd()
		if probe.gains != nil {
			t.Fatalf("seed %d: BestAdd built the dense gains array on a sparse instance", seed)
		}
		for _, workers := range []int{1, 8} {
			var pl Placement
			before := telemetry.Global().Snapshot()
			pl = GreedySigma(bounded, Parallelism(workers))
			delta := telemetry.Global().Snapshot().Sub(before)
			comparePlacements(t, "GreedySigma sparse-vs-dense-argmax", refPl, pl)
			comparePlacements(t, "GreedySigma sparse-vs-dense-backend", densePl, pl)
			if delta.CandidateEvals == 0 || delta.PairsRescanned == 0 {
				t.Errorf("seed %d: sparse BestAdd did not account its scan work: %+v", seed, delta)
			}
		}
		// The sparse path must also hold on the lazy backend (it is how
		// the full-universe lazy baseline stays runnable at n=10⁵).
		g := dense.Graph()
		lazy, err := NewInstance(g, dense.Pairs(), dense.Threshold(), dense.K(),
			&Options{AllowTrivial: true, Table: shortestpath.NewLazyTable(g, shortestpath.LazyOptions{})})
		if err != nil {
			t.Fatal(err)
		}
		lazy.sparseBest = true
		pl := GreedySigma(lazy, Parallelism(1))
		comparePlacements(t, "GreedySigma lazy sparse", densePl, pl)
	}
}

// TestBoundedRejectsNaNThreshold pins that a NaN d_t is a typed input
// error at instance construction on every backend and survivability mode:
// never a silent full-graph exploration on the bounded backend, and never a
// panic when node mode builds its bounded scenario instances mid-solve.
func TestBoundedRejectsNaNThreshold(t *testing.T) {
	rng := xrand.New(41)
	g := dyadicConnectedGraph(t, 12, 24, rng)
	ps := pairs.MustNewSet(12, []pairs.Pair{{U: 0, W: 11}, {U: 1, W: 10}, {U: 2, W: 9}})
	thr := failprob.Threshold{P: 0.5, D: math.NaN()}
	for _, backend := range []DistBackend{backendDense, BackendBounded} {
		for _, survive := range []Survivability{SurviveNone, SurviveNode} {
			_, err := NewInstance(g, ps, thr, 1, withBackend(g, backend, Options{AllowTrivial: true, Survive: survive}))
			var ie *InputError
			if !errors.As(err, &ie) || ie.Param != "threshold" {
				t.Errorf("%s/%s: NaN threshold: got %v, want *InputError on threshold", backend, survive, err)
			}
		}
	}
}

// TestBoundedLengthCostModelMatchesDense: length prices need full-range
// distances, which the bounded table truncates at d_t, so the bounded
// backend prices from plain Dijkstra rows of the raw graph. The prices
// equal the dense table's bit for bit — also for candidates farther apart
// than d_t, which the bounded table itself reads as +Inf — and budgeted
// greedy and AEA place the same shortcuts on both backends.
func TestBoundedLengthCostModelMatchesDense(t *testing.T) {
	solved := 0
	for seed := int64(0); seed < 6; seed++ {
		rng := xrand.New(4200 + seed)
		g := dyadicConnectedGraph(t, 14, 28, rng)
		ps, err := pairs.SampleViolating(shortestpath.NewTable(g, 0), 0.8, 5, rng)
		if err != nil {
			continue
		}
		var insts [2]*Instance
		for i, backend := range []DistBackend{backendDense, BackendBounded} {
			insts[i], err = NewInstance(g, ps, thrD(0.8), 2, withBackend(g, backend, Options{
				AllowTrivial: true, Budget: 3, CostModel: CostLength,
			}))
			if err != nil {
				t.Fatalf("seed %d: NewInstance(%s): %v", seed, backend, err)
			}
		}
		dense, bounded := insts[0], insts[1]
		beyond := 0
		for c := 0; c < dense.NumCandidates(); c++ {
			if got, want := bounded.Cost(c), dense.Cost(c); got != want {
				t.Fatalf("seed %d: Cost(%d) = %v on bounded, %v on dense", seed, c, got, want)
			}
			if e := dense.CandidateEdge(c); math.IsInf(bounded.Table().Dist(e.U, e.V), 1) && !math.IsInf(dense.Cost(c), 1) {
				beyond++
			}
		}
		if beyond == 0 {
			t.Fatalf("seed %d: no candidate lies beyond d_t, so the truncation went untested", seed)
		}
		name := fmt.Sprintf("seed %d", seed)
		comparePlacements(t, name+" budgeted GreedySigma", GreedySigma(dense, Parallelism(1)), GreedySigma(bounded, Parallelism(1)))
		aea := func(p Problem) Placement {
			return AEA(p, AEAOptions{Iterations: 30, PopSize: 4, Delta: 0.05, Parallelism: 1}, xrand.New(seed)).Best
		}
		comparePlacements(t, name+" budgeted AEA", aea(dense), aea(bounded))
		solved++
	}
	if solved == 0 {
		t.Fatal("no seed produced a solvable instance")
	}
}
