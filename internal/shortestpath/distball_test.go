package shortestpath

import (
	"math"
	"testing"

	"msc/internal/graph"
	"msc/internal/xrand"
)

// readBalls is a BallSource reading every ball straight from a source.
type readBalls struct {
	src   DistanceSource
	bound float64
}

func (r readBalls) Ball(u graph.NodeID) Ball { return ReadBall(r.src, u, r.bound) }

// TestDistBallMatchesDistRow pins Overlay.DistBall to DistRow: on the
// dense, lazy and bounded sources, for random shortcut sets on raw and
// integer lengths (the latter put sums exactly on the bound), the ball of
// every source node holds exactly DistRow's entries ≤ bound, bit for bit.
// DistBalls must return the same balls at every worker count.
func TestDistBallMatchesDistRow(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := xrand.New(2600 + seed)
		bound := 0.9
		g := randomGraph(t, 22, 30, rng)
		if seed%2 == 1 {
			bound = 4
			g = integerGraph(t, 22, 12, rng)
		}
		bt, err := NewBoundedTable(g, BoundedOptions{Reach: bound})
		if err != nil {
			t.Fatal(err)
		}
		srcs := []DistanceSource{NewTable(g, 0), NewLazyTable(g, LazyOptions{}), bt}
		var shortcuts []graph.Edge
		for len(shortcuts) < 1+int(seed%4) {
			if u, v := rng.Intn(g.N()), rng.Intn(g.N()); u != v {
				shortcuts = append(shortcuts, graph.Edge{U: graph.NodeID(u), V: graph.NodeID(v)})
			}
		}
		nodes := make([]graph.NodeID, g.N())
		for i := range nodes {
			nodes[i] = graph.NodeID(i)
		}
		mergers := NewMergers(g.N())
		m := newMerger(g.N())
		for _, src := range srcs {
			ov := NewOverlay(src, shortcuts)
			base := readBalls{src, bound}
			row := make([]float64, g.N())
			want := make([]Ball, g.N())
			for u := range nodes {
				ov.DistRow(graph.NodeID(u), row)
				for x, d := range row {
					if d <= bound {
						want[u].IDs = append(want[u].IDs, int32(x))
						want[u].Dist = append(want[u].Dist, d)
					}
				}
				got := ov.DistBall(base, m, graph.NodeID(u), bound, Ball{})
				checkBallBits(t, seed, u, got, want[u])
			}
			for _, workers := range []int{1, 3} {
				got := make([]Ball, g.N())
				NewEvaluator(ov, workers).DistBalls(base, mergers, bound, nodes, got)
				for u := range got {
					checkBallBits(t, seed, u, got[u], want[u])
				}
			}
		}
	}
}

func checkBallBits(t *testing.T, seed int64, u int, got, want Ball) {
	t.Helper()
	if got.Len() != want.Len() {
		t.Fatalf("seed %d: ball(%d) has %d entries, want %d", seed, u, got.Len(), want.Len())
	}
	for i := range got.IDs {
		if got.IDs[i] != want.IDs[i] || math.Float64bits(got.Dist[i]) != math.Float64bits(want.Dist[i]) {
			t.Fatalf("seed %d: ball(%d)[%d] = (%d, %v), want (%d, %v)", seed, u, i, got.IDs[i], got.Dist[i], want.IDs[i], want.Dist[i])
		}
	}
}

// TestAppendMinMerge checks the merge on a hand-made case: the union in id
// order, the minimum at shared ids, the bound (inclusive) on shifted
// entries, and the improved flag.
func TestAppendMinMerge(t *testing.T) {
	m := newMerger(10)
	a := Ball{IDs: []int32{1, 4, 6}, Dist: []float64{1, 2, 3}}
	b := Ball{IDs: []int32{0, 4, 6, 9}, Dist: []float64{0, 0.5, 2, 0}}
	got, improved := m.AppendMinMerge(Ball{}, 3, []float64{0, 1}, []Ball{a, b})
	want := Ball{IDs: []int32{0, 1, 4, 6, 9}, Dist: []float64{1, 1, 1.5, 3, 1}}
	checkBallBits(t, 0, 0, got, want)
	if !improved {
		t.Error("merge adding nodes reported no improvement")
	}
	if _, improved := m.AppendMinMerge(Ball{}, 3, []float64{0, 2.5}, []Ball{a, b}); !improved {
		t.Error("merge adding node 0 at the bound reported no improvement")
	}
	same, improved := m.AppendMinMerge(Ball{}, 3, []float64{0, 2.9}, []Ball{a, Ball{IDs: []int32{4}, Dist: []float64{0}}})
	checkBallBits(t, 0, 0, same, a)
	if improved {
		t.Error("merge that changes nothing reported an improvement")
	}
	if a.At(4) != 2 || !math.IsInf(a.At(5), 1) || !math.IsInf(a.At(7), 1) {
		t.Error("Ball.At misreads present or absent ids")
	}
}
