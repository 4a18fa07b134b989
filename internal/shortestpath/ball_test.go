package shortestpath

import (
	"math"
	"sync"
	"testing"

	"msc/internal/graph"
	"msc/internal/xrand"
)

// integerGraph builds a random connected graph with edge lengths 1–3, so
// many shortest-path distances land exactly on an integer bound.
func integerGraph(t *testing.T, n, extraEdges int, rng *xrand.Rand) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), float64(1+rng.Intn(3)))
	}
	for e := 0; e < extraEdges; e++ {
		if u, v := rng.Intn(n), rng.Intn(n); u != v {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v), float64(1+rng.Intn(3)))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build integer graph: %v", err)
	}
	return g
}

// filteredRow is the reference ball: the full Dijkstra row's entries
// ≤ bound, ascending by node id.
func filteredRow(g *graph.Graph, src graph.NodeID, bound float64) ([]int32, []float64) {
	var ids []int32
	var dist []float64
	for v, d := range Dijkstra(g, src) {
		if d <= bound {
			ids = append(ids, int32(v))
			dist = append(dist, d)
		}
	}
	return ids, dist
}

// TestBallMatchesDijkstra pins the ball kernel to the full Dijkstra: for
// every source, on raw and integer lengths, the ball holds exactly the
// row's entries ≤ bound with the same float64 bits, ties at the bound
// included. The balls are computed from four goroutines sharing one
// finder, so the pooled scratch is exercised under -race. The same
// sources' cached BoundedTable.SparseRow must agree as well.
func TestBallMatchesDijkstra(t *testing.T) {
	ties := 0
	for seed := int64(1); seed <= 6; seed++ {
		rng := xrand.New(seed)
		worlds := []struct {
			name  string
			g     *graph.Graph
			bound float64
		}{
			{"raw", randomGraph(t, 40, 60, rng), 0.6 + rng.Float64()},
			{"integer", integerGraph(t, 40, 60, rng), float64(2 + rng.Intn(3))},
		}
		for _, w := range worlds {
			balls := newBallFinder(w.g)
			bt, err := NewBoundedTable(w.g, BoundedOptions{Reach: w.bound})
			if err != nil {
				t.Fatal(err)
			}
			n := w.g.N()
			gotIDs := make([][]int32, n)
			gotDist := make([][]float64, n)
			var wg sync.WaitGroup
			for worker := 0; worker < 4; worker++ {
				wg.Add(1)
				go func(worker int) {
					defer wg.Done()
					for src := worker; src < n; src += 4 {
						gotIDs[src], gotDist[src] = balls.ball(graph.NodeID(src), w.bound, nil, nil)
					}
				}(worker)
			}
			wg.Wait()
			for src := 0; src < n; src++ {
				wantIDs, wantDist := filteredRow(w.g, graph.NodeID(src), w.bound)
				checkBall(t, w.name, seed, src, gotIDs[src], gotDist[src], wantIDs, wantDist)
				for _, d := range wantDist {
					if d == w.bound {
						ties++
					}
				}
				r := bt.SparseRow(graph.NodeID(src))
				checkBall(t, w.name+"/sparse-row", seed, src, r.IDs, r.Dist, wantIDs, wantDist)
			}
			if s := bt.Stats(); s.Computes != int64(n) {
				t.Fatalf("%s seed %d: BoundedTable cached %d balls, want one per SparseRow source (%d)", w.name, seed, s.Computes, n)
			}
		}
	}
	if ties == 0 {
		t.Fatal("no ball entry landed exactly on the bound")
	}
}

func checkBall(t *testing.T, name string, seed int64, src int, ids []int32, dist []float64, wantIDs []int32, wantDist []float64) {
	t.Helper()
	if len(ids) != len(wantIDs) || len(dist) != len(ids) {
		t.Fatalf("%s seed %d src %d: ball has %d ids / %d distances, want %d", name, seed, src, len(ids), len(dist), len(wantIDs))
	}
	for i := range ids {
		if ids[i] != wantIDs[i] || math.Float64bits(dist[i]) != math.Float64bits(wantDist[i]) {
			t.Fatalf("%s seed %d src %d: entry %d = (%d, %v), want (%d, %v)", name, seed, src, i, ids[i], dist[i], wantIDs[i], wantDist[i])
		}
	}
}

// TestBallAppendsAndDisconnected checks that a ball appends to the caller's
// slices and never reports a node of another component.
func TestBallAppendsAndDisconnected(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	ids, dist := newBallFinder(g).ball(3, math.Inf(1), []int32{9}, []float64{-1})
	if want := []int32{9, 3, 4}; len(ids) != 3 || ids[0] != want[0] || ids[1] != want[1] || ids[2] != want[2] {
		t.Fatalf("ids = %v, want %v", ids, want)
	}
	if dist[0] != -1 || dist[1] != 0 || dist[2] != 1 {
		t.Fatalf("dist = %v, want [-1 0 1]", dist)
	}
}
