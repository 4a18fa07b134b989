package core

import (
	"fmt"
	"math"
	"slices"
	"testing"

	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// dropCounters is the part of the counter delta SigmaDrops must share with
// the per-position evaluation it replaces.
type dropCounters struct{ sigmaEvals, overlayBuilds, overlayQueries int64 }

func countDrops(fn func()) dropCounters {
	before := telemetry.Global().Snapshot()
	fn()
	d := telemetry.Global().Snapshot().Sub(before)
	return dropCounters{d.SigmaEvals, d.OverlayBuilds, d.OverlayQueries}
}

// checkSigmaDrops requires SigmaDrops on a fresh search at sel to equal
// [SigmaDrop(pos)] and to count the same σ evaluations, overlay builds
// and overlay queries.
func checkSigmaDrops(t *testing.T, name string, inst *Instance, sel []int, workers int) {
	t.Helper()
	s := inst.NewSearch(sel)
	s.SetWorkers(workers)
	var got []int
	gotC := countDrops(func() { got = slices.Clone(s.SigmaDrops()) })
	want := make([]int, len(sel))
	wantC := countDrops(func() {
		for pos := range sel {
			want[pos] = s.SigmaDrop(pos)
		}
	})
	if !slices.Equal(got, want) {
		t.Errorf("%s sel=%v: SigmaDrops = %v, per-position SigmaDrop = %v", name, sel, got, want)
	}
	if gotC != wantC {
		t.Errorf("%s sel=%v: SigmaDrops counted %+v, per-position SigmaDrop %+v", name, sel, gotC, wantC)
	}
}

// TestSigmaDropsMatchesSigmaDrop pins the one-pass SigmaDrops to the
// per-position reference SigmaDrop on 24 seeds, on the default bounded
// table and on a supplied dense one, at 1, 3, 4 and 8 workers. Some selections
// share endpoints, so dropping a shortcut changes the first-seen endpoint
// order the rest's overlay is built in; the pairs mix weights and include
// pairs satisfied at baseline; and selections of one shortcut hit the
// σ(∅) case.
func TestSigmaDropsMatchesSigmaDrop(t *testing.T) {
	for seed := int64(0); seed < 24; seed++ {
		rng := xrand.New(8800 + seed)
		n := 10 + int(seed%6)
		g := randomConnectedGraph(t, n, 2*n, rng)
		ps := scanPairs(t, g, 0.8, 6, rng)
		k := 1 + int(seed%6)
		var sels [][]int
		for i := 0; i < 3; i++ {
			sels = append(sels, rng.SampleDistinct(n*(n-1)/2, k))
		}
		// Endpoints first seen in an early shortcut and seen again later:
		// dropping the early one moves them behind the endpoints between.
		var reorder []int
		for _, e := range []graph.Edge{{U: 0, V: 1}, {U: 2, V: 3}, {U: 1, V: 4}, {U: 3, V: 5}, {U: 0, V: 5}, {U: 4, V: 6}}[:min(k+1, 6)] {
			reorder = append(reorder, candidateIndex(n, e))
		}
		sels = append(sels, reorder)
		for _, backend := range []DistBackend{BackendAuto, backendDense} {
			inst := scanInstance(t, g, ps, 0.8, backend, rng)
			for _, workers := range []int{1, 3, 4, 8} {
				for _, sel := range sels {
					checkSigmaDrops(t, fmt.Sprintf("seed %d %q par%d", seed, backend, workers), inst, sel, workers)
				}
			}
		}
	}
}

// TestSigmaDropsInUlpBand runs the SigmaDrops check on the ulpPath graphs
// of TestBoundsExactInUlpBand, where d_t sits between D[x][a] and
// D[a][x] of the shortcut's leg: the one-pass drops must read each leg
// from the pair endpoint's side, as Overlay.Dist does. Every selection
// pairs the band shortcut with one other candidate, in both orders, so
// some position's rest is the band shortcut alone.
func TestSigmaDropsInUlpBand(t *testing.T) {
	legs := []struct {
		side     string
		x, a     graph.NodeID
		shortcut graph.Edge
	}{
		{"u-side", 0, 3, graph.Edge{U: 3, V: 4}},
		{"w-side", 4, 1, graph.Edge{U: 0, V: 1}},
	}
	ps := pairs.MustNewSet(5, []pairs.Pair{pairs.New(0, 4)})
	for _, leg := range legs {
		for _, endpointSmaller := range []bool{true, false} {
			g := ulpPath(t, leg.x, leg.a, endpointSmaller, 1)
			dxa, dax := shortestpath.Dijkstra(g, leg.x)[leg.a], shortestpath.Dijkstra(g, leg.a)[leg.x]
			dt := math.Min(dxa, dax)
			for _, backend := range []DistBackend{BackendAuto, backendDense} {
				inst, err := NewInstance(g, ps, thrD(dt), 2, withBackend(g, backend, Options{AllowTrivial: true}))
				if err != nil {
					t.Fatal(err)
				}
				c := inst.CandidateIndex(leg.shortcut)
				for other := 0; other < inst.NumCandidates(); other++ {
					if other == c {
						continue
					}
					for _, workers := range []int{1, 4} {
						name := fmt.Sprintf("%s/endpoint-smaller=%v/%q/par%d", leg.side, endpointSmaller, backend, workers)
						checkSigmaDrops(t, name, inst, []int{c, other}, workers)
						checkSigmaDrops(t, name, inst, []int{other, c}, workers)
					}
				}
			}
		}
	}
}
