package core

import (
	"fmt"
	"reflect"
	"slices"
	"testing"

	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// This file checks the near-list gains scan against a dense reference and
// pins the lazy-ball contract of instSearch: balls are built once, on the
// first read, and every read after any mutation sequence matches a search
// built fresh on the same selection.

// gainsRowsDense is the reference gains scan: for every unsatisfied pair
// it visits every cell of the full triangular candidate grid with the same
// two-compare test the search uses, reading each distance from the
// endpoint balls (+Inf outside). It reads only the search's balls and
// pair distances, so it checks the near-list pruning from outside.
func gainsRowsDense(s *instSearch) []int {
	s.sync()
	nodes := s.inst.candNodes
	t := len(nodes)
	dt := s.inst.thr.D
	gains := make([]int, s.inst.numCand)
	for i := range s.pairDist {
		if s.pairDist[i] <= dt {
			continue
		}
		w := int(s.inst.weights[i])
		ru := s.balls[s.inst.pairU[i]]
		rw := s.balls[s.inst.pairW[i]]
		idx := rowStart(t, 0)
		for ai := 0; ai < t; ai++ {
			a := nodes[ai]
			ca := dt - ru.At(a)
			cb := dt - rw.At(a)
			for bi := ai + 1; bi < t; bi++ {
				b := nodes[bi]
				if rw.At(b) <= ca || ru.At(b) <= cb {
					gains[idx] += w
				}
				idx++
			}
		}
	}
	return gains
}

// integerConnectedGraph is randomConnectedGraph with integer edge lengths
// in [1, 3]: path sums are exact and land on an integer d_t often, so the
// ≤ d_t boundary of the gains test is exercised, not just approached.
func integerConnectedGraph(t *testing.T, n, extra int, rng *xrand.Rand) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), float64(1+rng.Intn(3)))
	}
	for e := 0; e < extra; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v), float64(1+rng.Intn(3)))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// scanPairs samples m violating pairs and adds up to two pairs already
// within d_t of each other, so the pair set mixes both kinds.
func scanPairs(t *testing.T, g *graph.Graph, dt float64, m int, rng *xrand.Rand) *pairs.Set {
	t.Helper()
	table := shortestpath.NewTable(g, 0)
	viol, err := pairs.SampleViolating(table, dt, m, rng)
	if err != nil {
		t.Skipf("could not sample %d violating pairs: %v", m, err)
	}
	ps := append([]pairs.Pair(nil), viol.Pairs()...)
	sat := 0
	for u := 0; u < g.N() && sat < 2; u++ {
		for w := u + 1; w < g.N() && sat < 2; w++ {
			if table.Dist(graph.NodeID(u), graph.NodeID(w)) <= dt && rng.Intn(4) == 0 {
				ps = append(ps, pairs.Pair{U: graph.NodeID(u), W: graph.NodeID(w)})
				sat++
			}
		}
	}
	return pairs.MustNewSet(g.N(), ps)
}

// scanInstance builds an instance on backend with random pair weights in
// [1, 5].
func scanInstance(t *testing.T, g *graph.Graph, ps *pairs.Set, dt float64, backend DistBackend, rng *xrand.Rand) *Instance {
	t.Helper()
	weights := make([]int, ps.Len())
	for i := range weights {
		weights[i] = 1 + rng.Intn(5)
	}
	inst, err := NewInstance(g, ps, thrD(dt), 4, withBackend(g, backend, Options{
		AllowTrivial: true, PairWeights: weights,
	}))
	if err != nil {
		t.Fatalf("NewInstance(%s): %v", backend, err)
	}
	return inst
}

// TestGainsScanDifferential checks that the near-list cold scan equals
// the dense reference cell for cell, after random Add/RemoveAt sequences,
// on the dense, lazy and bounded backends, at 1, 2 and 8 workers, for
// weighted pairs mixing satisfied and violating ones — with real (dyadic
// on bounded) lengths, with integer lengths putting sums exactly on d_t,
// and on a path where every candidate is near each pair, so the near list
// is the whole universe.
func TestGainsScanDifferential(t *testing.T) {
	type gen struct {
		name  string
		dt    float64
		graph func(t *testing.T, backend DistBackend, rng *xrand.Rand) *graph.Graph
		pairs func(t *testing.T, g *graph.Graph, dt float64, rng *xrand.Rand) *pairs.Set
	}
	gens := []gen{
		{"real", 0.8, func(t *testing.T, backend DistBackend, rng *xrand.Rand) *graph.Graph {
			n := 14 + rng.Intn(5)
			if backend == BackendBounded {
				return dyadicConnectedGraph(t, n, 2*n, rng)
			}
			return randomConnectedGraph(t, n, 2*n, rng)
		}, func(t *testing.T, g *graph.Graph, dt float64, rng *xrand.Rand) *pairs.Set {
			return scanPairs(t, g, dt, 6, rng)
		}},
		{"integer", 4, func(t *testing.T, _ DistBackend, rng *xrand.Rand) *graph.Graph {
			n := 14 + rng.Intn(5)
			return integerConnectedGraph(t, n, n, rng)
		}, func(t *testing.T, g *graph.Graph, dt float64, rng *xrand.Rand) *pairs.Set {
			return scanPairs(t, g, dt, 6, rng)
		}},
		// A unit path 0…n−1 with d_t = n−2: the end pair is violated and
		// every node lies within d_t of one of its endpoints.
		{"all-near", 12, func(t *testing.T, _ DistBackend, _ *xrand.Rand) *graph.Graph {
			b := graph.NewBuilder(14)
			for i := 0; i < 13; i++ {
				b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
			}
			return b.MustBuild()
		}, func(t *testing.T, g *graph.Graph, _ float64, _ *xrand.Rand) *pairs.Set {
			return pairs.MustNewSet(g.N(), []pairs.Pair{{U: 0, W: 13}, {U: 0, W: 1}})
		}},
	}
	for _, gn := range gens {
		for _, backend := range []DistBackend{backendDense, backendLazy, BackendBounded} {
			for seed := int64(0); seed < 4; seed++ {
				t.Run(fmt.Sprintf("%s/%s/seed%d", gn.name, backend, seed), func(t *testing.T) {
					rng := xrand.New(7100 + seed)
					g := gn.graph(t, backend, rng)
					ps := gn.pairs(t, g, gn.dt, rng)
					inst := scanInstance(t, g, ps, gn.dt, backend, rng)
					s := inst.newInstSearch(nil)
					check := func(step string) {
						want := gainsRowsDense(s)
						for _, w := range []int{1, 2, 8} {
							s.SetWorkers(w)
							s.gainsValid = false
							got := s.GainsAdd()
							if !reflect.DeepEqual(got, want) {
								t.Fatalf("%s, workers=%d: near-list gains differ from the dense reference\nnear  %v\ndense %v", step, w, got, want)
							}
						}
					}
					check("initial")
					if gn.name == "all-near" {
						tc := len(inst.candNodes)
						if got := s.candUOff[1] - s.candUOff[0]; got != tc {
							t.Fatalf("all-near: near list holds %d of %d candidates", got, tc)
						}
					}
					for step := 0; step < 8; step++ {
						if s.Len() > 0 && rng.Intn(3) == 0 {
							s.RemoveAt(rng.Intn(s.Len()))
						} else {
							s.Add(rng.Intn(inst.NumCandidates()))
						}
						check(fmt.Sprintf("step %d sel=%v", step, s.sel))
					}
				})
			}
		}
	}
}

// TestEvalSearchMatchesFreshBuild drives random interleavings of
// NewSearch, position, Add, RemoveAt and clone, on the product path and
// on the rebuild reference, and requires, after every operation, that
// Sigma, GainsAdd and the endpoint balls equal those of a search built
// fresh on the same selection. Lengths are dyadic, so merged and rebuilt
// balls agree bit for bit, not just up to rounding.
func TestEvalSearchMatchesFreshBuild(t *testing.T) {
	for _, path := range searchPaths {
		for seed := int64(0); seed < 10; seed++ {
			t.Run(fmt.Sprintf("%s/seed%d", path.name, seed), func(t *testing.T) {
				rng := xrand.New(7300 + seed)
				n := 14 + int(seed%4)
				g := dyadicConnectedGraph(t, n, 2*n, rng)
				ps := scanPairs(t, g, 0.8, 7, rng)
				inst := scanInstance(t, g, ps, 0.8, backendDense, rng)
				srch := path.newSearch(inst, nil)
				for op := 0; op < 24; op++ {
					switch k := rng.Intn(7); {
					case k == 0:
						srch = path.newSearch(inst, srch.Selection())
					case k == 6:
						// AEA's reuse: the same search moved to another selection.
						sel := rng.SampleDistinct(inst.NumCandidates(), rng.Intn(4))
						if r, ok := srch.(*rebuildSearch); ok {
							r.replace(sel)
						} else {
							plainSearch(srch).position(sel)
						}
					case k == 1:
						if r, ok := srch.(*rebuildSearch); ok {
							r.Search = plainSearch(r).clone()
						} else {
							srch = plainSearch(srch).clone()
						}
					case k == 2 && srch.Len() > 0:
						srch.RemoveAt(rng.Intn(srch.Len()))
					case k == 3:
						srch.GainsAdd() // a warm array must still be dropped by the next mutation
					default:
						srch.Add(rng.Intn(inst.NumCandidates()))
					}
					srch.SetWorkers([]int{1, 2, 8}[rng.Intn(3)])
					if rng.Intn(2) == 0 {
						continue // leave the state unread: reads must catch up later
					}
					s := plainSearch(srch)
					fresh := inst.newInstSearch(s.sel)
					if got, want := s.Sigma(), fresh.Sigma(); got != want {
						t.Fatalf("op %d sel=%v: σ %d, fresh %d", op, s.sel, got, want)
					}
					if oracle := inst.Sigma(s.sel); s.Sigma() != oracle {
						t.Fatalf("op %d: σ %d, overlay oracle %d", op, s.Sigma(), oracle)
					}
					if err := ballsBitEqual(s.balls, fresh.balls); err != nil {
						t.Fatalf("op %d sel=%v: balls differ from a fresh build: %v", op, s.sel, err)
					}
					got := append([]int(nil), s.GainsAdd()...)
					if want := fresh.GainsAdd(); !reflect.DeepEqual(got, want) {
						t.Fatalf("op %d sel=%v: gains differ from a fresh build\ngot   %v\nfresh %v", op, s.sel, got, want)
					}
				}
			})
		}
	}
}

// TestLazyRowsAEASwapOneRebuild pins AEA's greedy swap cost: NewSearch
// and RemoveAt compute no rows, and the GainsAdd after them issues exactly
// one batch of endpoint overlay rows.
func TestLazyRowsAEASwapOneRebuild(t *testing.T) {
	rng := xrand.New(7400)
	inst := testInstance(t, 18, 7, 4, 0.8, rng)
	sel := rng.SampleDistinct(inst.NumCandidates(), 4)
	endpoints := int64(len(inst.Pairs().Nodes()))
	for _, path := range searchPaths {
		before := telemetry.Global().Snapshot()
		s := path.newSearch(inst, sel)
		s.SetWorkers(2)
		if d := telemetry.Global().Snapshot().Sub(before); d.OverlayRows != 0 {
			t.Fatalf("%s: NewSearch issued %d overlay rows", path.name, d.OverlayRows)
		}
		s.SigmaDrops()
		before = telemetry.Global().Snapshot()
		s.RemoveAt(1)
		s.GainsAdd()
		if d := telemetry.Global().Snapshot().Sub(before); d.OverlayRows != endpoints {
			t.Errorf("%s: RemoveAt+GainsAdd issued %d overlay rows, want one batch of %d", path.name, d.OverlayRows, endpoints)
		}
	}
}

// TestLazyRowsUnreadSearchComputesNothing pins that a search which is
// only positioned, mutated and asked about its selection never computes
// (or allocates) endpoint balls. The survivable search is held to the
// same on both failure modes; its SigmaDrops evaluates every drop from
// scratch on the instance, so it may cost exactly what those evaluations
// cost and nothing more.
func TestLazyRowsUnreadSearchComputesNothing(t *testing.T) {
	rng := xrand.New(7500)
	inst := testInstance(t, 18, 7, 4, 0.8, rng)
	sel := rng.SampleDistinct(inst.NumCandidates(), 4)
	before := telemetry.Global().Snapshot()
	s := inst.newInstSearch(sel)
	s.SetWorkers(2)
	s.RemoveAt(0)
	_ = s.Len()
	_ = s.Contains(sel[1])
	_ = s.Selection()
	if d := telemetry.Global().Snapshot().Sub(before); d.OverlayRows != 0 || d.DijkstraRuns != 0 {
		t.Errorf("unread search computed rows: %d overlay rows, %d Dijkstra runs", d.OverlayRows, d.DijkstraRuns)
	}
	if s.balls != nil {
		t.Error("unread search allocated its balls")
	}
	for _, mode := range []Survivability{SurviveShortcut, SurviveNode} {
		inst := surviveInstanceRetry(t, 12, 5, 3, 0.8, mode, 3)
		sel := []int{4, 9, 4, 30}
		rest := slices.Delete(slices.Clone(sel), 1, 2)
		// The drop evaluations, from scratch; the first pass also warms
		// the instance's memos (the G−v instances and their balls).
		reference := func() []int {
			want := make([]int, len(rest))
			for pos := range rest {
				want[pos] = objective(inst, slices.Delete(slices.Clone(rest), pos, pos+1), 1)
			}
			return want
		}
		want := reference()
		before := telemetry.Global().Snapshot()
		s := inst.NewSearch(sel).(*composite)
		s.SetWorkers(2)
		s.RemoveAt(1)
		_ = s.Len()
		_ = s.Selection()
		drops := s.SigmaDrops()
		got := telemetry.Global().Snapshot().Sub(before)
		before = telemetry.Global().Snapshot()
		reference()
		if ref := telemetry.Global().Snapshot().Sub(before); got != ref {
			t.Errorf("mode=%s: unread search did more than its drop evaluations:\n got  %+v\n want %+v", mode, got, ref)
		}
		if !slices.Equal(drops, want) {
			t.Errorf("mode=%s: SigmaDrops = %v, want %v", mode, drops, want)
		}
		if s.free.balls != nil {
			t.Errorf("mode=%s: unread search built its free balls", mode)
		}
		for j, sc := range s.members {
			if sc.balls != nil {
				t.Errorf("mode=%s: unread search built the balls of scenario %d", mode, j)
			}
		}
	}
}

// TestLazyRowsCountersWorkerInvariance runs the same AEA and the same
// hand-written search sequence at 1, 2 and 8 workers and requires
// identical counter totals: the deferred rebuild may run at any worker
// count, but the work it does is the same.
func TestLazyRowsCountersWorkerInvariance(t *testing.T) {
	rng := xrand.New(7600)
	inst := testInstance(t, 20, 8, 4, 0.8, rng)
	sel := rng.SampleDistinct(inst.NumCandidates(), 4)
	run := func(workers int) telemetry.CounterSnapshot {
		before := telemetry.Global().Snapshot()
		opts := AEAOptions{Iterations: 20, PopSize: 4, Delta: 0.05, RunOptions: RunOptions{Parallelism: workers}}
		AEA(inst, opts, xrand.New(7))
		s := inst.NewSearch(sel).(*instSearch)
		s.SetWorkers(workers)
		s.SigmaDrops()
		s.RemoveAt(2)
		s.GainsAdd()
		c, _ := s.BestAdd()
		s.Add(c)
		s.Sigma()
		s.clone().GainsAdd()
		return telemetry.Global().Snapshot().Sub(before)
	}
	serial := run(1)
	for _, w := range []int{2, 8} {
		if got := run(w); got != serial {
			t.Errorf("workers=%d: counters differ\n serial: %+v\n got:    %+v", w, serial, got)
		}
	}
	if serial.OverlayRows == 0 || serial.CandidatesPruned == 0 {
		t.Errorf("run did not exercise rows or pruning: %+v", serial)
	}
}
