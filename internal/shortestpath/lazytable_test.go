package shortestpath

import (
	"math"
	"sync"
	"testing"
	"testing/quick"

	"msc/internal/graph"
	"msc/internal/xrand"
)

// sameRow fails the test if two distance rows differ anywhere. Lazy rows
// must be bit-identical to dense rows — both come from the same Dijkstra —
// so no tolerance is allowed.
func sameRow(t *testing.T, got, want []float64, ctx string) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("%s: row length %d, want %d", ctx, len(got), len(want))
	}
	for v := range got {
		if got[v] != want[v] && !(math.IsInf(got[v], 1) && math.IsInf(want[v], 1)) {
			t.Fatalf("%s: dist[%d] = %v, want %v", ctx, v, got[v], want[v])
		}
	}
}

func TestLazyTableMatchesDense(t *testing.T) {
	rng := xrand.New(17)
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(t, 30, 50, rng)
		dense := NewTable(g, 0)
		lazy := NewLazyTable(g, LazyOptions{})
		if lazy.N() != dense.N() {
			t.Fatalf("N() = %d, want %d", lazy.N(), dense.N())
		}
		for u := 0; u < g.N(); u++ {
			sameRow(t, lazy.Row(graph.NodeID(u)), dense.Row(graph.NodeID(u)), "trial row")
			for v := 0; v < g.N(); v += 5 {
				got := lazy.Dist(graph.NodeID(u), graph.NodeID(v))
				want := dense.Dist(graph.NodeID(u), graph.NodeID(v))
				if got != want {
					t.Fatalf("trial %d: lazy dist(%d,%d) = %v, want %v", trial, u, v, got, want)
				}
			}
		}
	}
}

// TestLazyTableExactlyOnceComputes hammers the cache from many
// goroutines and checks the exactly-once compute contract: the number of
// Dijkstra runs equals the number of distinct rows requested, no matter how
// many goroutines race for the same row. Runs in CI under -race.
func TestLazyTableExactlyOnceComputes(t *testing.T) {
	rng := xrand.New(23)
	g := randomGraph(t, 64, 120, rng)
	dense := NewTable(g, 0)
	lazy := NewLazyTable(g, LazyOptions{})

	// A fixed set of distinct rows, each requested by every goroutine many
	// times, in a per-goroutine shuffled order so shard/entry races differ.
	distinct := []graph.NodeID{0, 3, 7, 9, 13, 21, 34, 55, 63, 8, 16, 32}
	const workers = 8
	const repeats = 25
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			r := xrand.New(seed)
			for rep := 0; rep < repeats; rep++ {
				for _, i := range r.Perm(len(distinct)) {
					u := distinct[i]
					row := lazy.Row(u)
					// Spot-check a value so the row read is real work and a
					// torn row would be observed.
					if row[0] != dense.Dist(u, 0) {
						panic("torn or wrong row")
					}
				}
			}
		}(int64(w) + 100)
	}
	wg.Wait()

	st := lazy.Stats()
	n := int64(len(distinct))
	total := int64(workers * repeats * len(distinct))
	if st.Computes != n {
		t.Errorf("Computes = %d, want %d (one per distinct row)", st.Computes, n)
	}
	if st.Misses != n {
		t.Errorf("Misses = %d, want %d (one per entry creation)", st.Misses, n)
	}
	if st.Hits != total-n {
		t.Errorf("Hits = %d, want %d", st.Hits, total-n)
	}
	if st.Cached != len(distinct) {
		t.Errorf("Cached = %d, want %d", st.Cached, len(distinct))
	}
	// Every cached row is still correct after the stampede.
	for _, u := range distinct {
		sameRow(t, lazy.Row(u), dense.Row(u), "post-stampede")
	}
}

// TestNewTableWorkers locks in satellite 4: the dense table is identical
// whatever the worker count — parallel construction only changes wall
// clock, never a distance.
func TestNewTableWorkers(t *testing.T) {
	rng := xrand.New(53)
	g := randomGraph(t, 50, 100, rng)
	serial := NewTable(g, 1)
	for _, workers := range []int{0, 2, 4, 8} {
		par := NewTable(g, workers)
		for u := 0; u < g.N(); u++ {
			sameRow(t, par.Row(graph.NodeID(u)), serial.Row(graph.NodeID(u)), "workers row")
		}
	}
}

// TestQuickOverlayLazyMatchesAugmented is the testing/quick property of
// satellite 3: an Overlay over a LazyTable answers exactly like the naive
// per-query reference AugmentedDistances, for random graphs and shortcut
// sets.
func TestQuickOverlayLazyMatchesAugmented(t *testing.T) {
	property := func(seed int64) bool {
		rng := xrand.New(seed)
		g := randomGraph(t, 4+rng.Intn(20), rng.Intn(30), rng)
		lazy := NewLazyTable(g, LazyOptions{})
		k := rng.Intn(4)
		var shortcuts []graph.Edge
		for len(shortcuts) < k {
			u := graph.NodeID(rng.Intn(g.N()))
			v := graph.NodeID(rng.Intn(g.N()))
			if u != v {
				shortcuts = append(shortcuts, graph.Edge{U: u, V: v})
			}
		}
		ov := NewOverlay(lazy, shortcuts)
		for src := 0; src < g.N(); src++ {
			want := AugmentedDistances(g, shortcuts, graph.NodeID(src))
			for v := 0; v < g.N(); v++ {
				got := ov.Dist(graph.NodeID(src), graph.NodeID(v))
				if math.Abs(got-want[v]) > 1e-9 && !(math.IsInf(got, 1) && math.IsInf(want[v], 1)) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(property, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// fuzzGraph decodes a byte string into a small graph plus shortcut set:
// byte 0 sizes the graph, byte 1 picks the shortcut count, and each
// following byte pair is an edge (or shortcut) endpoint pair. Degenerate
// pairs are skipped, so every input decodes to something valid.
func fuzzGraph(data []byte) (*graph.Graph, []graph.Edge, bool) {
	if len(data) < 4 {
		return nil, nil, false
	}
	n := 2 + int(data[0])%14
	wantShortcuts := int(data[1]) % 4
	data = data[2:]
	b := graph.NewBuilder(n)
	var shortcuts []graph.Edge
	edges := 0
	for i := 0; i+1 < len(data); i += 2 {
		u := graph.NodeID(int(data[i]) % n)
		v := graph.NodeID(int(data[i+1]) % n)
		if u == v {
			continue
		}
		if len(shortcuts) < wantShortcuts {
			shortcuts = append(shortcuts, graph.Edge{U: u, V: v})
			continue
		}
		length := 0.1 + float64(int(data[i])^int(data[i+1]))/256.0
		b.AddEdge(u, v, length)
		edges++
	}
	if edges == 0 {
		return nil, nil, false
	}
	g, err := b.Build()
	if err != nil {
		return nil, nil, false
	}
	return g, shortcuts, true
}

// FuzzOverlayLazy fuzzes the lazy backend against the naive reference:
// for any decodable graph and shortcut set, Overlay-over-LazyTable must
// agree with AugmentedDistances, and the LazyTable must agree with the
// dense Table (satellite 3's fuzz seed).
func FuzzOverlayLazy(f *testing.F) {
	f.Add([]byte{8, 2, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 6, 7, 0, 7})
	f.Add([]byte{4, 0, 0, 1, 1, 2, 2, 3})
	f.Add([]byte{15, 3, 1, 14, 0, 7, 3, 9, 0, 1, 1, 2, 2, 3, 3, 4, 4, 5, 5, 6, 7, 8, 9, 10, 11, 12, 13, 14})
	f.Add([]byte{2, 1, 0, 1, 0, 1, 0, 1})
	f.Fuzz(func(t *testing.T, data []byte) {
		g, shortcuts, ok := fuzzGraph(data)
		if !ok {
			return
		}
		lazy := NewLazyTable(g, LazyOptions{})
		dense := NewTable(g, 0)
		ov := NewOverlay(lazy, shortcuts)
		for src := 0; src < g.N(); src++ {
			want := AugmentedDistances(g, shortcuts, graph.NodeID(src))
			lrow := lazy.Row(graph.NodeID(src))
			drow := dense.Row(graph.NodeID(src))
			for v := 0; v < g.N(); v++ {
				if lrow[v] != drow[v] && !(math.IsInf(lrow[v], 1) && math.IsInf(drow[v], 1)) {
					t.Fatalf("lazy row(%d)[%d] = %v, dense %v", src, v, lrow[v], drow[v])
				}
				got := ov.Dist(graph.NodeID(src), graph.NodeID(v))
				if math.Abs(got-want[v]) > 1e-9 && !(math.IsInf(got, 1) && math.IsInf(want[v], 1)) {
					t.Fatalf("overlay dist(%d,%d) = %v, want %v", src, v, got, want[v])
				}
			}
		}
	})
}
