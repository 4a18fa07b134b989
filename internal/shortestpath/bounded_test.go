package shortestpath

import (
	"bytes"
	"math"
	"reflect"
	"sync"
	"testing"

	"msc/internal/graph"
	"msc/internal/xrand"
)

// dyadicGraph builds randomGraph with edge lengths snapped to integer
// multiples of 2⁻¹⁰: every path sum is then exactly representable in both
// float32 and float64, so sparse (quantized) and dense rows must agree
// bit for bit wherever both are finite.
func dyadicGraph(t *testing.T, n, extraEdges int, rng *xrand.Rand) *graph.Graph {
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
	for e := 0; e < extraEdges; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v), dyadic(0.1+rng.Float64()))
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build dyadic graph: %v", err)
	}
	return g
}

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

// --- SparseRow -------------------------------------------------------------

func TestSparseRowAccessors(t *testing.T) {
	r := SparseRow{ids: []int32{2, 5, 9}, dist: []float32{0, 1.5, 2.25}}
	if r.Len() != 3 {
		t.Errorf("Len = %d, want 3", r.Len())
	}
	if r.Bytes() != 24 {
		t.Errorf("Bytes = %d, want 24", r.Bytes())
	}
	if id, d := r.Entry(1); id != 5 || d != 1.5 {
		t.Errorf("Entry(1) = (%d, %v), want (5, 1.5)", id, d)
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
	empty := SparseRow{}
	if got := empty.At(0); !math.IsInf(got, 1) {
		t.Errorf("empty row At(0) = %v, want +Inf", got)
	}
}

func TestDecodeSparseRowErrors(t *testing.T) {
	enc := func(r SparseRow) []byte { return r.AppendBinary(nil) }
	valid := enc(SparseRow{ids: []int32{1, 4}, dist: []float32{0.5, 2}})
	if _, err := DecodeSparseRow(valid); err != nil {
		t.Fatalf("valid encoding rejected: %v", err)
	}
	cases := map[string][]byte{
		"empty":          {},
		"short header":   {1, 0},
		"truncated body": valid[:len(valid)-3],
		"oversized body": append(append([]byte{}, valid...), 0),
		"unsorted ids":   enc(SparseRow{ids: []int32{4, 1}, dist: []float32{1, 1}}),
		"duplicate ids":  enc(SparseRow{ids: []int32{4, 4}, dist: []float32{1, 1}}),
		"negative dist":  enc(SparseRow{ids: []int32{1}, dist: []float32{-1}}),
		"NaN dist":       enc(SparseRow{ids: []int32{1}, dist: []float32{float32(math.NaN())}}),
		"Inf dist":       enc(SparseRow{ids: []int32{1}, dist: []float32{float32(math.Inf(1))}}),
	}
	// An id above MaxInt32 can only come from raw bytes.
	overflow := []byte{1, 0, 0, 0, 0xff, 0xff, 0xff, 0xff, 0, 0, 0, 0}
	cases["id overflow"] = overflow
	for name, data := range cases {
		if _, err := DecodeSparseRow(data); err == nil {
			t.Errorf("%s: decode succeeded, want error", name)
		}
	}
}

// --- BoundedTable ----------------------------------------------------------

func TestBoundedTableMatchesDenseWithinReach(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		rng := xrand.New(500 + seed)
		g := dyadicGraph(t, 30, 50, rng)
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
					// Dyadic lengths: the float32 quantization is lossless.
					if got != want {
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
	g := dyadicGraph(t, 25, 40, rng)
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

func TestBoundedTableEvictionAndBytes(t *testing.T) {
	rng := xrand.New(800)
	g := dyadicGraph(t, 40, 60, rng)
	bt, err := NewBoundedTable(g, BoundedOptions{Reach: 0.8, MaxRows: 4, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	globalBefore := RowBytesResident()
	rows := make([]SparseRow, 12)
	for u := 0; u < 12; u++ {
		rows[u] = bt.SparseRow(graph.NodeID(u))
	}
	st := bt.Stats()
	if st.Cached > 4 {
		t.Errorf("Cached = %d rows, want ≤ 4", st.Cached)
	}
	if st.Evictions != 8 {
		t.Errorf("Evictions = %d, want 8", st.Evictions)
	}
	// Byte accounting: resident bytes equal the sum of the cached rows'
	// payloads, and the process gauge moved by the same amount.
	var want int64
	for u := 8; u < 12; u++ {
		want += rows[u].Bytes()
	}
	if st.RowBytes != want {
		t.Errorf("RowBytes = %d, want %d", st.RowBytes, want)
	}
	if got := RowBytesResident() - globalBefore; got != want {
		t.Errorf("RowBytesResident moved by %d, want %d", got, want)
	}
	// Evicted rows stay valid, and recomputing one matches the original.
	if !reflect.DeepEqual(bt.SparseRow(0), rows[0]) {
		t.Error("recomputed row 0 differs from the evicted original")
	}
}

func TestBoundedTablePinnedSurviveEviction(t *testing.T) {
	rng := xrand.New(900)
	g := dyadicGraph(t, 40, 60, rng)
	bt, err := NewBoundedTable(g, BoundedOptions{Reach: 0.8, MaxRows: 2, Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	bt.Pin([]graph.NodeID{5, 6})
	bt.SparseRow(5)
	bt.SparseRow(6)
	before := bt.Stats()
	for u := 10; u < 20; u++ {
		bt.SparseRow(graph.NodeID(u))
	}
	bt.SparseRow(5)
	bt.SparseRow(6)
	after := bt.Stats()
	if got := after.Computes - before.Computes; got != 10 {
		t.Errorf("pinned rows were recomputed: %d computes beyond the 10 cache-thrashing rows", got-10)
	}
	if hits := after.Hits - before.Hits; hits < 2 {
		t.Errorf("pinned rows not served from cache: %d hits", hits)
	}
}

func TestBoundedTableConcurrentOnceCompute(t *testing.T) {
	rng := xrand.New(1000)
	g := dyadicGraph(t, 40, 60, rng)
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
// with an infinite reach over a dyadic graph the bounded rows are exact,
// so overlay distances through the sparse path must be bit-identical to
// the dense-table path.
func TestOverlaySparseMatchesDense(t *testing.T) {
	for seed := int64(0); seed < 5; seed++ {
		rng := xrand.New(1300 + seed)
		g := dyadicGraph(t, 24, 36, rng)
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

// --- Fuzz ------------------------------------------------------------------

// FuzzSparseRowRoundTrip checks both directions of the sparse-row codec:
// every accepted byte string re-encodes to itself, and every row built by
// the bounded Dijkstra survives an encode/decode round trip.
func FuzzSparseRowRoundTrip(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 0, 0, 0})
	f.Add(SparseRow{ids: []int32{0, 3, 7}, dist: []float32{0, 0.5, 1.25}}.AppendBinary(nil))
	f.Add([]byte{2, 0, 0, 0, 5, 0, 0, 0, 0, 0, 128, 63})
	f.Fuzz(func(t *testing.T, data []byte) {
		r, err := DecodeSparseRow(data)
		if err != nil {
			return
		}
		if got := r.AppendBinary(nil); !bytes.Equal(got, data) {
			t.Fatalf("decode→encode not identity:\nin  %x\nout %x", data, got)
		}
		r2, err := DecodeSparseRow(r.AppendBinary(nil))
		if err != nil {
			t.Fatalf("re-decode failed: %v", err)
		}
		if !reflect.DeepEqual(r, r2) {
			t.Fatal("encode→decode changed the row")
		}
	})
}

func TestSparseRowRoundTripFromTable(t *testing.T) {
	rng := xrand.New(1400)
	g := dyadicGraph(t, 30, 45, rng)
	bt, err := NewBoundedTable(g, BoundedOptions{Reach: 1.2})
	if err != nil {
		t.Fatal(err)
	}
	for u := 0; u < g.N(); u++ {
		r := bt.SparseRow(graph.NodeID(u))
		dec, err := DecodeSparseRow(r.AppendBinary(nil))
		if err != nil {
			t.Fatalf("row %d: %v", u, err)
		}
		if !reflect.DeepEqual(SparseRow{ids: dec.ids, dist: dec.dist}, SparseRow{ids: r.ids, dist: r.dist}) && r.Len() > 0 {
			t.Fatalf("row %d round trip changed the row", u)
		}
	}
}
