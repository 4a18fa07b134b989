package core

import (
	"fmt"
	"math"
	"reflect"
	"runtime"
	"testing"

	"msc/internal/gen/rgg"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// ballsBitEqual reports the first difference between two sets of endpoint
// balls: ids and the IEEE-754 bits of every distance must match.
func ballsBitEqual(got, want []shortestpath.Ball) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d balls, want %d", len(got), len(want))
	}
	for r := range got {
		g, w := got[r], want[r]
		if g.Len() != w.Len() || len(g.Dist) != len(g.IDs) {
			return fmt.Errorf("ball %d: %d entries, want %d", r, g.Len(), w.Len())
		}
		for x := range g.IDs {
			if g.IDs[x] != w.IDs[x] || math.Float64bits(g.Dist[x]) != math.Float64bits(w.Dist[x]) {
				return fmt.Errorf("ball %d entry %d: (%d, %v), want (%d, %v)", r, x, g.IDs[x], g.Dist[x], w.IDs[x], w.Dist[x])
			}
		}
	}
	return nil
}

// wantBalls is the reference for a search's endpoint balls: every node
// whose Overlay.DistRow distance from the endpoint is ≤ d_t, in id order,
// from a dense row over the search's current selection.
func wantBalls(s *instSearch) []shortestpath.Ball {
	inst := s.inst
	ov := shortestpath.NewOverlay(inst.Table(), SelectionEdges(inst, s.sel))
	row := make([]float64, inst.N())
	out := make([]shortestpath.Ball, len(s.inst.endpoints))
	for i, e := range s.inst.endpoints {
		ov.DistRow(e, row)
		for x, d := range row {
			if d <= inst.thr.D {
				out[i].IDs = append(out[i].IDs, int32(x))
				out[i].Dist = append(out[i].Dist, d)
			}
		}
	}
	return out
}

// TestSearchBallsMatchDistRow is the ball property test: after every step
// of random Add/RemoveAt sequences, at 1, 2 and 8 workers, on the product
// path and on the rebuild reference, on the dense, lazy and bounded backends, every endpoint ball
// equals {x : DistRow(e)[x] ≤ d_t} bit for bit. The integer generator puts
// path sums exactly on d_t, so the ≤ boundary of the merge and of the
// rebuild is hit, not just approached. The restricted-universe variant
// also holds the near lists (read off the balls through the candidate
// position index) to the dense gains reference and the sparse BestAdd to
// its argmax.
func TestSearchBallsMatchDistRow(t *testing.T) {
	type gen struct {
		name    string
		dt      float64
		exclude bool
		paths   int // the last paths of searchPaths: 1 = rebuild reference only, 2 = both
		graph   func(t *testing.T, rng *xrand.Rand) *graph.Graph
	}
	real := func(t *testing.T, rng *xrand.Rand) *graph.Graph {
		n := 14 + rng.Intn(5)
		return randomConnectedGraph(t, n, 2*n, rng)
	}
	dyadic := func(t *testing.T, rng *xrand.Rand) *graph.Graph {
		n := 14 + rng.Intn(5)
		return dyadicConnectedGraph(t, n, 2*n, rng)
	}
	integer := func(t *testing.T, rng *xrand.Rand) *graph.Graph {
		n := 14 + rng.Intn(5)
		return integerConnectedGraph(t, n, n, rng)
	}
	gens := []gen{
		// A merge adds d(e,a) + d(b,x) where DistRow adds c + d(t,x): equal
		// reals, but bit-equal sums only on exact (dyadic, integer)
		// lengths. The rebuild runs DistRow's own arithmetic, so it is
		// held to bit equality on arbitrary lengths too.
		{"real", 0.8, false, 1, real},
		{"dyadic", 0.8, false, 2, dyadic},
		{"integer", 4, false, 2, integer},
		{"integer-exclude", 4, true, 2, integer},
	}
	for _, gn := range gens {
		for _, backend := range []DistBackend{BackendDense, backendLazy, BackendBounded} {
			for _, path := range searchPaths[2-gn.paths:] {
				for seed := int64(0); seed < 3; seed++ {
					t.Run(fmt.Sprintf("%s/%s/%s/seed%d", gn.name, backend, path.name, seed), func(t *testing.T) {
						rng := xrand.New(7700 + seed)
						g := gn.graph(t, rng)
						ps := scanPairs(t, g, gn.dt, 6, rng)
						inst, err := NewInstance(g, ps, thrD(gn.dt), 4, withBackend(g, backend, Options{
							AllowTrivial:         true,
							ExcludePairEndpoints: gn.exclude,
						}))
						if err != nil {
							t.Fatal(err)
						}
						srch := path.newSearch(inst, nil)
						for step := 0; step < 10; step++ {
							setSearchWorkers(srch, []int{1, 2, 8}[rng.Intn(3)])
							if srch.Len() > 0 && rng.Intn(3) == 0 {
								srch.RemoveAt(rng.Intn(srch.Len()))
							} else {
								srch.Add(rng.Intn(inst.NumCandidates()))
							}
							s := plainSearch(srch)
							s.sync()
							if err := ballsBitEqual(s.balls, wantBalls(s)); err != nil {
								t.Fatalf("step %d sel=%v: %v", step, s.sel, err)
							}
							if !gn.exclude {
								continue
							}
							want := gainsRowsDense(s)
							s.gainsValid = false
							if got := s.GainsAdd(); !reflect.DeepEqual(got, want) {
								t.Fatalf("step %d: near-list gains differ from the dense reference", step)
							}
							wc, wg := argmax(want)
							if c, g := s.bestAddSparse(); c != wc || g != wg {
								t.Fatalf("step %d: sparse BestAdd (%d, %d), dense argmax (%d, %d)", step, c, g, wc, wg)
							}
						}
					})
				}
			}
		}
	}
}

// argmax returns the first index of the largest gain and that gain.
func argmax(gains []int) (int, int) {
	best := 0
	for i, g := range gains {
		if g > gains[best] {
			best = i
		}
	}
	return best, gains[best]
}

// TestScaleSearchAllocatesBalls pins the memory shape of the search on
// the bounded backend at n = 10⁵: building the endpoint balls, one sparse
// BestAdd and one incremental commit allocate bytes proportional to the
// balls (Σ ball entries), far below the endpoints·n·8 bytes dense endpoint
// rows would take.
func TestScaleSearchAllocatesBalls(t *testing.T) {
	if testing.Short() {
		t.Skip("builds a 10⁵-node graph")
	}
	if raceEnabled {
		t.Skip("the race detector inflates allocation counts")
	}
	const (
		n  = 100_000
		m  = 64
		dt = 0.8
	)
	rng := xrand.New(3)
	radius := 1.6 * math.Sqrt(math.Log(n)/(math.Pi*n))
	g, err := rgg.Generate(rgg.Config{N: n, Radius: radius, FailureAtRadius: 0.08}, rng)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[pairs.Pair]bool{}
	var ps []pairs.Pair
	for len(ps) < m {
		p := pairs.New(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		if p.U != p.W && !seen[p] {
			seen[p] = true
			ps = append(ps, p)
		}
	}
	inst, err := NewInstance(g, pairs.MustNewSet(n, ps), thrD(dt), 4,
		&Options{AllowTrivial: true, DistBackend: BackendBounded})
	if err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	s := inst.newInstSearch(nil)
	s.Sigma()
	c, _ := s.BestAdd()
	s.Add(c)
	runtime.ReadMemStats(&after)
	alloc := int64(after.TotalAlloc - before.TotalAlloc)

	entries := int64(0)
	for _, b := range s.balls {
		entries += int64(b.Len())
	}
	dense := int64(len(s.inst.endpoints)) * n * 8
	t.Logf("%d endpoints, Σ ball = %d entries, allocated %d bytes (dense rows: %d)", len(s.inst.endpoints), entries, alloc, dense)
	// 12 bytes per stored entry, a few copies of it in the memo, the near
	// lists and the sparse BestAdd index, plus the pooled n-length
	// Dijkstra scratch the bounded table may rebuild after the GC.
	if limit := 128*entries + 64*n; alloc > limit {
		t.Errorf("search allocated %d bytes, over the O(Σ ball) budget %d", alloc, limit)
	}
	if alloc > dense/2 {
		t.Errorf("search allocated %d bytes, over half of what dense endpoint rows take (%d)", alloc, dense)
	}
}
