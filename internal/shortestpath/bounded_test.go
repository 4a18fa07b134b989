package shortestpath

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"msc/internal/graph"
	"msc/internal/xrand"
)

// --- BoundedDijkstra edge cases -------------------------------------------

func TestBoundedDijkstraZeroBound(t *testing.T) {
	rng := xrand.New(1)
	g := randomGraph(t, 20, 30, rng)
	dist := BoundedDijkstra(g, 7, 0)
	for v, d := range dist {
		if v == 7 {
			if d != 0 {
				t.Errorf("dist[src] = %v, want 0", d)
			}
		} else if !math.IsInf(d, 1) {
			// All edge lengths are ≥ 0.1, so a zero bound settles only src.
			t.Errorf("dist[%d] = %v, want +Inf under bound 0", v, d)
		}
	}
}

func TestBoundedDijkstraInfBoundMatchesDijkstra(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := xrand.New(100 + seed)
		g := randomGraph(t, 25, 40, rng)
		for src := 0; src < g.N(); src += 5 {
			got := BoundedDijkstra(g, graph.NodeID(src), math.Inf(1))
			want := Dijkstra(g, graph.NodeID(src))
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("seed %d src %d: BoundedDijkstra(+Inf) differs from Dijkstra", seed, src)
			}
		}
	}
}

// TestBoundedDijkstraNaNBoundExploresFully pins the raw primitive's NaN
// behavior: every `du > NaN` comparison is false, so a NaN bound silently
// degenerates to full exploration. That is exactly why NewBoundedTable
// (and core's backend resolution) reject NaN before it gets here.
func TestBoundedDijkstraNaNBoundExploresFully(t *testing.T) {
	rng := xrand.New(3)
	g := randomGraph(t, 20, 30, rng)
	got := BoundedDijkstra(g, 0, math.NaN())
	want := Dijkstra(g, 0)
	if !reflect.DeepEqual(got, want) {
		t.Fatal("BoundedDijkstra(NaN) should degenerate to full exploration")
	}
}

func TestBoundedDijkstraDisconnectedSource(t *testing.T) {
	// Two components: a 0-1-2 path and a 3-4 edge.
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dist := BoundedDijkstra(g, 3, 10)
	want := []float64{Inf, Inf, Inf, 0, 1}
	if !reflect.DeepEqual(dist, want) {
		t.Fatalf("disconnected source: got %v, want %v", dist, want)
	}
}

// --- Ball ------------------------------------------------------------------

func TestSparseRowAccessors(t *testing.T) {
	r := Ball{IDs: []int32{2, 5, 9}, Dist: []float64{0, 1.5, 2.25}}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	if r.Bytes() != 36 {
		t.Errorf("Bytes = %d, want 36", r.Bytes())
	}
	for v, want := range map[graph.NodeID]float64{2: 0, 5: 1.5, 9: 2.25} {
		if got := r.At(v); got != want {
			t.Errorf("At(%d) = %v, want %v", v, got, want)
		}
	}
	for _, v := range []graph.NodeID{0, 1, 3, 8, 10, 1000} {
		if got := r.At(v); !math.IsInf(got, 1) {
			t.Errorf("At(%d) = %v, want +Inf", v, got)
		}
	}
	empty := Ball{}
	if got := empty.At(0); !math.IsInf(got, 1) {
		t.Errorf("empty row At(0) = %v, want +Inf", got)
	}
}

// --- BoundedTable ----------------------------------------------------------

func TestBoundedTableMatchesDenseWithinReach(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := xrand.New(500 + seed)
		g := randomGraph(t, 30, 50, rng)
		dense := NewTable(g, 0)
		const reach = 0.9
		bt, err := NewBoundedTable(g, BoundedOptions{Reach: reach})
		if err != nil {
			t.Fatal(err)
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				want := dense.Dist(graph.NodeID(u), graph.NodeID(v))
				got := bt.Dist(graph.NodeID(u), graph.NodeID(v))
				if want <= reach {
					// Within the reach a ball entry is the dense distance,
					// bit for bit, on any edge lengths.
					if math.Float64bits(got) != math.Float64bits(want) {
						t.Fatalf("seed %d: Dist(%d,%d) = %v, want %v", seed, u, v, got, want)
					}
				} else if !math.IsInf(got, 1) {
					t.Fatalf("seed %d: Dist(%d,%d) = %v beyond reach, want +Inf", seed, u, v, got)
				}
			}
		}
	}
}

func TestBoundedTableRowMatchesSparse(t *testing.T) {
	rng := xrand.New(600)
	g := randomGraph(t, 25, 40, rng)
	bt, err := NewBoundedTable(g, BoundedOptions{Reach: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	row := bt.Row(4)
	if again := bt.Row(4); &again[0] != &row[0] {
		t.Error("Row(4) returned a different slice on the second call")
	}
	sr := bt.SparseRow(4)
	for v := 0; v < g.N(); v++ {
		if row[v] != sr.At(graph.NodeID(v)) {
			t.Fatalf("dense row[%d] = %v, sparse At = %v", v, row[v], sr.At(graph.NodeID(v)))
		}
	}
	st := bt.Stats()
	if st.DenseRows != 1 {
		t.Errorf("DenseRows = %d, want 1", st.DenseRows)
	}
	if want := sr.Bytes() + int64(g.N())*8; st.RowBytes != want {
		t.Errorf("RowBytes = %d, want %d (sparse + one dense row)", st.RowBytes, want)
	}
}

func TestBoundedTableRejectsBadReach(t *testing.T) {
	rng := xrand.New(7)
	g := randomGraph(t, 10, 10, rng)
	if _, err := NewBoundedTable(g, BoundedOptions{Reach: math.NaN()}); err == nil {
		t.Error("NaN reach accepted, want error")
	}
	if _, err := NewBoundedTable(g, BoundedOptions{Reach: -1}); err == nil {
		t.Error("negative reach accepted, want error")
	}
	if _, err := NewBoundedTable(g, BoundedOptions{Reach: math.Inf(1)}); err != nil {
		t.Errorf("+Inf reach rejected: %v", err)
	}
}

// TestBoundedTableBytes checks the byte accounting: the resident payload
// is the sum of the cached balls' payloads, 12 bytes per entry, and the
// process gauge moves by the same amount. A repeat read is a hit and
// returns the same ball.
func TestBoundedTableBytes(t *testing.T) {
	rng := xrand.New(800)
	g := randomGraph(t, 40, 60, rng)
	bt, err := NewBoundedTable(g, BoundedOptions{Reach: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	globalBefore := RowBytesResident()
	var want int64
	for u := 0; u < 12; u++ {
		r := bt.SparseRow(graph.NodeID(u))
		want += int64(r.Len()) * 12
	}
	st := bt.Stats()
	if st.Cached != 12 || st.Computes != 12 || st.Misses != 12 {
		t.Errorf("Cached/Computes/Misses = %d/%d/%d, want 12 each", st.Cached, st.Computes, st.Misses)
	}
	if st.RowBytes != want {
		t.Errorf("RowBytes = %d, want %d", st.RowBytes, want)
	}
	if got := RowBytesResident() - globalBefore; got != want {
		t.Errorf("RowBytesResident moved by %d, want %d", got, want)
	}
	first, again := bt.SparseRow(3), bt.SparseRow(3)
	if &first.IDs[0] != &again.IDs[0] {
		t.Error("repeat SparseRow(3) returned a different ball")
	}
	if st := bt.Stats(); st.Hits != 2 || st.Computes != 12 {
		t.Errorf("repeat reads: Hits = %d, Computes = %d, want 2 and 12", st.Hits, st.Computes)
	}
}

// TestReadBallSharesBoundedRow pins ReadBall on a SparseSource: at a bound
// ≥ the reach it returns the cached ball itself, uncopied; below the reach
// it returns a copy holding exactly the entries ≤ bound.
func TestReadBallSharesBoundedRow(t *testing.T) {
	rng := xrand.New(850)
	g := randomGraph(t, 30, 45, rng)
	const reach = 1.0
	bt, err := NewBoundedTable(g, BoundedOptions{Reach: reach})
	if err != nil {
		t.Fatal(err)
	}
	dense := NewTable(g, 0)
	for u := 0; u < g.N(); u++ {
		cached := bt.SparseRow(graph.NodeID(u))
		for _, bound := range []float64{reach, 2 * reach} {
			if b := ReadBall(bt, graph.NodeID(u), bound); &b.IDs[0] != &cached.IDs[0] || &b.Dist[0] != &cached.Dist[0] {
				t.Fatalf("ReadBall(%d, %v) copied the cached ball", u, bound)
			}
		}
		b := ReadBall(bt, graph.NodeID(u), reach/2)
		want := ReadBall(dense, graph.NodeID(u), reach/2)
		checkBall(t, "below reach", 0, u, b.IDs, b.Dist, want.IDs, want.Dist)
		if len(b.IDs) > 0 && &b.IDs[0] == &cached.IDs[0] {
			t.Fatalf("ReadBall(%d, reach/2) aliases the cached ball", u)
		}
	}
}

func TestBoundedTableConcurrentOnceCompute(t *testing.T) {
	rng := xrand.New(1000)
	g := randomGraph(t, 40, 60, rng)
	bt, err := NewBoundedTable(g, BoundedOptions{Reach: 0.8})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := 0; u < g.N(); u++ {
				bt.SparseRow(graph.NodeID(u))
			}
		}()
	}
	wg.Wait()
	st := bt.Stats()
	if st.Computes != int64(g.N()) {
		t.Errorf("Computes = %d under 8 workers, want exactly %d", st.Computes, g.N())
	}
}

func TestBoundedTableFarQuery(t *testing.T) {
	// On a unit line graph d(0, n-1) = n-1, far beyond reach 2: the far
	// query reads +Inf off node 0's d_t-ball, which costs exactly one
	// sparse row, and a repeat query hits the cache.
	g := lineGraph(t, 50)
	bt, err := NewBoundedTable(g, BoundedOptions{Reach: 2})
	if err != nil {
		t.Fatal(err)
	}
	if got := bt.Dist(0, 49); !math.IsInf(got, 1) {
		t.Fatalf("Dist(0,49) = %v, want +Inf", got)
	}
	if st := bt.Stats(); st.Computes != 1 {
		t.Errorf("far query computed %d rows, want 1", st.Computes)
	}
	if got := bt.Dist(0, 49); !math.IsInf(got, 1) {
		t.Fatalf("repeat Dist(0,49) = %v, want +Inf", got)
	}
	if st := bt.Stats(); st.Computes != 1 {
		t.Errorf("repeat far query computed %d more rows, want 0", st.Computes-1)
	}
	// A near query still goes through the row and stays exact.
	if got := bt.Dist(10, 12); got != 2 {
		t.Errorf("Dist(10,12) = %v, want 2", got)
	}
	// The table builds no landmark layer, so it refuses to be asked for
	// one; a count ≤ 0 means none and is accepted.
	if _, err := NewBoundedTable(g, BoundedOptions{Reach: 2, Landmarks: 4}); err == nil {
		t.Error("Landmarks: 4 accepted, want error")
	}
	if _, err := NewBoundedTable(g, BoundedOptions{Reach: 2, Landmarks: -1}); err != nil {
		t.Errorf("Landmarks: -1 rejected: %v", err)
	}
}

// --- Landmarks -------------------------------------------------------------

func TestLandmarksLowerBoundIsAdmissible(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := xrand.New(1100 + seed)
		g := randomGraph(t, 30, 45, rng)
		dense := NewTable(g, 0)
		lm := NewLandmarks(g, 8)
		if lm == nil || lm.Count() != 8 {
			t.Fatalf("seed %d: NewLandmarks returned %v", seed, lm)
		}
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				lb := lm.LowerBound(graph.NodeID(u), graph.NodeID(v))
				d := dense.Dist(graph.NodeID(u), graph.NodeID(v))
				if lb > d {
					t.Fatalf("seed %d: LowerBound(%d,%d) = %v exceeds true distance %v", seed, u, v, lb, d)
				}
			}
		}
	}
}

func TestLandmarksDisconnected(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)
	b.AddEdge(1, 2, 1)
	b.AddEdge(3, 4, 1)
	b.AddEdge(4, 5, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	lm := NewLandmarks(g, 4)
	// Farthest-point selection must reach both components: an unreached
	// component always scores +Inf, the farthest possible.
	if got := lm.LowerBound(0, 4); !math.IsInf(got, 1) {
		t.Errorf("cross-component LowerBound = %v, want +Inf", got)
	}
	if got := lm.LowerBound(0, 2); math.IsInf(got, 1) || got > 2 {
		t.Errorf("same-component LowerBound = %v, want finite ≤ 2", got)
	}
}

func TestLandmarksCapAndBytes(t *testing.T) {
	rng := xrand.New(1200)
	g := randomGraph(t, 10, 15, rng)
	if lm := NewLandmarks(g, 50); lm.Count() != 10 {
		t.Errorf("landmark count = %d, want capped at n = 10", lm.Count())
	}
	lm := NewLandmarks(g, 4)
	if want := int64(4 * 10 * 4); lm.Bytes() != want {
		t.Errorf("Bytes = %d, want %d", lm.Bytes(), want)
	}
	if NewLandmarks(g, 0) != nil {
		t.Error("NewLandmarks(g, 0) should be nil")
	}
}

// --- Overlay sparse fast paths --------------------------------------------

// TestOverlaySparseMatchesDense pins the Overlay SparseSource fast paths:
// with an infinite reach the bounded rows are the full rows, so overlay
// distances through the sparse path must be bit-identical to the
// dense-table path.
func TestOverlaySparseMatchesDense(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := xrand.New(1300 + seed)
		g := randomGraph(t, 24, 36, rng)
		dense := NewTable(g, 0)
		bt, err := NewBoundedTable(g, BoundedOptions{Reach: math.Inf(1)})
		if err != nil {
			t.Fatal(err)
		}
		shortcuts := []graph.Edge{
			{U: graph.NodeID(rng.Intn(12)), V: graph.NodeID(12 + rng.Intn(12))},
			{U: graph.NodeID(rng.Intn(24)), V: graph.NodeID(rng.Intn(24))},
		}
		if shortcuts[1].U == shortcuts[1].V {
			shortcuts = shortcuts[:1]
		}
		ovDense := NewOverlay(dense, shortcuts)
		ovSparse := NewOverlay(bt, shortcuts)
		rowD := make([]float64, g.N())
		rowS := make([]float64, g.N())
		for u := 0; u < g.N(); u++ {
			for v := 0; v < g.N(); v++ {
				d, s := ovDense.Dist(graph.NodeID(u), graph.NodeID(v)), ovSparse.Dist(graph.NodeID(u), graph.NodeID(v))
				if d != s {
					t.Fatalf("seed %d: overlay Dist(%d,%d): dense %v, sparse %v", seed, u, v, d, s)
				}
			}
			ovDense.DistRow(graph.NodeID(u), rowD)
			ovSparse.DistRow(graph.NodeID(u), rowS)
			if !reflect.DeepEqual(rowD, rowS) {
				t.Fatalf("seed %d: overlay DistRow(%d) differs between dense and sparse paths", seed, u)
			}
		}
	}
}
