package core

import (
	"fmt"
	"math"
	"testing"

	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// ulpPath draws 5-node paths 0–1–2–3–4 with raw lengths in [0.1, 0.5]
// until the two directions of the leg between a and b differ bitwise with
// the requested sign: D[a][b] < D[b][a] when aSmaller, else the reverse.
// Dijkstra sums a path's lengths in the order it walks them, so the two
// directions round differently on some draws.
func ulpPath(t *testing.T, a, b graph.NodeID, aSmaller bool, seed int64) *graph.Graph {
	t.Helper()
	rng := xrand.New(seed)
	for attempt := 0; attempt < 10_000; attempt++ {
		bld := graph.NewBuilder(5)
		for v := 0; v < 4; v++ {
			bld.AddEdge(graph.NodeID(v), graph.NodeID(v+1), 0.1+0.4*rng.Float64())
		}
		g, err := bld.Build()
		if err != nil {
			t.Fatal(err)
		}
		ab, ba := shortestpath.Dijkstra(g, a)[b], shortestpath.Dijkstra(g, b)[a]
		if ab != ba && (ab < ba) == aSmaller {
			return g
		}
	}
	t.Fatalf("no path drawn with D[%d][%d] and D[%d][%d] apart", a, b, b, a)
	return nil
}

// TestBoundsExactInUlpBand puts d_t inside the rounding band of one leg of
// a one-shortcut path, where D[x][a] and D[a][x] straddle the threshold.
// The pair is {0, 4}; the shortcut c is (3, 4), whose leg is D(0, 3) on
// u's side, or (0, 1), whose leg is D(4, 1) on w's side. d_t is the
// smaller direction's sum, taken in both orientations. σ reads each leg
// from the pair endpoint's side, so the bounds must read it there too:
// on every backend μ ≤ σ ≤ ν on ∅ and {c}, the sandwich ratio is at most
// 1, and the MSC-CN coverage (common node 0) equals σ of its placement.
// The pair's own D(0, 4) exceeds d_t by at least one 0.1 edge, so the
// baseline is outside the band.
func TestBoundsExactInUlpBand(t *testing.T) {
	legs := []struct {
		side     string
		x, a     graph.NodeID // leg from pair endpoint x to shortcut endpoint a
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
			for _, backend := range []DistBackend{backendDense, backendLazy, BackendBounded} {
				name := fmt.Sprintf("%s/endpoint-smaller=%v/%s", leg.side, endpointSmaller, backend)
				inst, err := NewInstance(g, ps, thrD(dt), 1, withBackend(g, backend, Options{AllowTrivial: true}))
				if err != nil {
					t.Fatal(err)
				}
				c := inst.CandidateIndex(leg.shortcut)
				for _, sel := range [][]int{nil, {c}} {
					mu, sigma, nu := inst.Mu(sel), inst.Sigma(sel), inst.Nu(sel)
					if mu > float64(sigma) || float64(sigma) > nu {
						t.Errorf("%s sel=%v: μ=%v σ=%d ν=%v, want μ ≤ σ ≤ ν (D[%d][%d]=%v, D[%d][%d]=%v)",
							name, sel, mu, sigma, nu, leg.x, leg.a, dxa, leg.a, leg.x, dax)
					}
				}
				if r := Sandwich(inst).Ratio; r > 1 {
					t.Errorf("%s: sandwich ratio %v > 1", name, r)
				}
				if err := VerifyCommonNodeReduction(inst); err != nil {
					t.Errorf("%s: %v", name, err)
				}
			}
		}
	}
}
