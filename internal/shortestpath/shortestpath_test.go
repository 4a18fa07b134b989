package shortestpath

import (
	"math"
	"testing"

	"msc/internal/graph"
	"msc/internal/xrand"
)

// lineGraph builds 0-1-2-...-(n-1) with unit lengths.
func lineGraph(t *testing.T, n int) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build line graph: %v", err)
	}
	return g
}

// randomGraph builds a random connected-ish weighted graph.
func randomGraph(t *testing.T, n int, extraEdges int, rng *xrand.Rand) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	// Random spanning tree for connectivity.
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		u := perm[i]
		v := perm[rng.Intn(i)]
		b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.1+rng.Float64())
	}
	for e := 0; e < extraEdges; e++ {
		u := rng.Intn(n)
		v := rng.Intn(n)
		if u != v {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.1+rng.Float64())
		}
	}
	g, err := b.Build()
	if err != nil {
		t.Fatalf("build random graph: %v", err)
	}
	return g
}

// floydWarshall is the brute-force all-pairs reference.
func floydWarshall(g *graph.Graph) [][]float64 {
	n := g.N()
	d := make([][]float64, n)
	for i := range d {
		d[i] = make([]float64, n)
		for j := range d[i] {
			if i != j {
				d[i][j] = math.Inf(1)
			}
		}
	}
	for _, e := range g.Edges() {
		if e.Length < d[e.U][e.V] {
			d[e.U][e.V] = e.Length
			d[e.V][e.U] = e.Length
		}
	}
	for k := 0; k < n; k++ {
		for i := 0; i < n; i++ {
			for j := 0; j < n; j++ {
				if nd := d[i][k] + d[k][j]; nd < d[i][j] {
					d[i][j] = nd
				}
			}
		}
	}
	return d
}

func TestDijkstraLine(t *testing.T) {
	g := lineGraph(t, 5)
	dist := Dijkstra(g, 0)
	for i := 0; i < 5; i++ {
		if dist[i] != float64(i) {
			t.Errorf("dist[%d] = %v, want %d", i, dist[i], i)
		}
	}
}

func TestDijkstraMatchesFloydWarshall(t *testing.T) {
	rng := xrand.New(7)
	for trial := 0; trial < 20; trial++ {
		g := randomGraph(t, 24, 40, rng)
		want := floydWarshall(g)
		for src := 0; src < g.N(); src++ {
			got := Dijkstra(g, graph.NodeID(src))
			for v := range got {
				if math.Abs(got[v]-want[src][v]) > 1e-9 {
					t.Fatalf("trial %d: dist(%d,%d) = %v, want %v", trial, src, v, got[v], want[src][v])
				}
			}
		}
	}
}

func TestDijkstraUnreachable(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	// 2, 3 isolated from 0-1; 2-3 connected.
	b.AddEdge(2, 3, 2)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	dist := Dijkstra(g, 0)
	if !math.IsInf(dist[2], 1) || !math.IsInf(dist[3], 1) {
		t.Errorf("isolated nodes should be at +Inf, got %v, %v", dist[2], dist[3])
	}
	if dist[1] != 1 {
		t.Errorf("dist[1] = %v, want 1", dist[1])
	}
}

// BoundedDijkstra drives ballFinder for the tests: it returns distances
// from src, exploring only nodes within maxDist; nodes farther away (or
// unreachable) get +Inf. It scatters one ballFinder run into a dense row.
func BoundedDijkstra(g *graph.Graph, src graph.NodeID, maxDist float64) []float64 {
	ids, ds := newBallFinder(g).ball(src, maxDist, nil, nil)
	dist := newDistSlice(g.N())
	for i, v := range ids {
		dist[v] = ds[i]
	}
	return dist
}

func TestBoundedDijkstra(t *testing.T) {
	g := lineGraph(t, 10)
	dist := BoundedDijkstra(g, 0, 3.5)
	for i := 0; i < 10; i++ {
		if i <= 3 {
			if dist[i] != float64(i) {
				t.Errorf("dist[%d] = %v, want %d", i, dist[i], i)
			}
		} else if !math.IsInf(dist[i], 1) {
			t.Errorf("dist[%d] = %v, want +Inf beyond bound", i, dist[i])
		}
	}
}

func TestBoundedDijkstraMatchesFiltered(t *testing.T) {
	rng := xrand.New(11)
	for trial := 0; trial < 10; trial++ {
		g := randomGraph(t, 30, 50, rng)
		full := Dijkstra(g, 0)
		bound := 0.5 + rng.Float64()
		got := BoundedDijkstra(g, 0, bound)
		for v := range got {
			want := full[v]
			if want > bound {
				want = math.Inf(1)
			}
			if math.Abs(got[v]-want) > 1e-9 && !(math.IsInf(got[v], 1) && math.IsInf(want, 1)) {
				t.Fatalf("trial %d: bounded dist[%d] = %v, want %v (bound %v)", trial, v, got[v], want, bound)
			}
		}
	}
}

func TestDijkstraWithParentsPath(t *testing.T) {
	rng := xrand.New(3)
	g := randomGraph(t, 20, 30, rng)
	dist, parent := DijkstraWithParents(g, 0)
	for v := 1; v < g.N(); v++ {
		path := PathTo(parent, 0, graph.NodeID(v))
		if path == nil {
			if !math.IsInf(dist[v], 1) {
				t.Fatalf("no path to reachable node %d", v)
			}
			continue
		}
		if path[0] != 0 || path[len(path)-1] != graph.NodeID(v) {
			t.Fatalf("path endpoints wrong: %v", path)
		}
		total := 0.0
		for i := 0; i+1 < len(path); i++ {
			l, ok := g.EdgeLength(path[i], path[i+1])
			if !ok {
				t.Fatalf("path uses nonexistent edge (%d,%d)", path[i], path[i+1])
			}
			total += l
		}
		if math.Abs(total-dist[v]) > 1e-9 {
			t.Fatalf("path length %v != dist %v for node %d", total, dist[v], v)
		}
	}
}

func TestPathToSelf(t *testing.T) {
	g := lineGraph(t, 3)
	_, parent := DijkstraWithParents(g, 1)
	path := PathTo(parent, 1, 1)
	if len(path) != 1 || path[0] != 1 {
		t.Errorf("self path = %v, want [1]", path)
	}
}

func TestTableMatchesDijkstra(t *testing.T) {
	rng := xrand.New(5)
	g := randomGraph(t, 40, 80, rng)
	table := NewTable(g, 0)
	for src := 0; src < g.N(); src += 7 {
		want := Dijkstra(g, graph.NodeID(src))
		for v := range want {
			if table.Dist(graph.NodeID(src), graph.NodeID(v)) != want[v] {
				t.Fatalf("table dist(%d,%d) mismatch", src, v)
			}
		}
	}
}

func TestOverlayMatchesAugmentedDijkstra(t *testing.T) {
	rng := xrand.New(42)
	for trial := 0; trial < 15; trial++ {
		g := randomGraph(t, 25, 35, rng)
		table := NewTable(g, 0)
		// Random shortcut set of size 0..5.
		k := rng.Intn(6)
		var shortcuts []graph.Edge
		for len(shortcuts) < k {
			u := graph.NodeID(rng.Intn(g.N()))
			v := graph.NodeID(rng.Intn(g.N()))
			if u != v {
				shortcuts = append(shortcuts, graph.Edge{U: u, V: v})
			}
		}
		ov := NewOverlay(table, shortcuts)
		for src := 0; src < g.N(); src += 3 {
			want := AugmentedDistances(g, shortcuts, graph.NodeID(src))
			for v := 0; v < g.N(); v++ {
				got := ov.Dist(graph.NodeID(src), graph.NodeID(v))
				if math.Abs(got-want[v]) > 1e-9 {
					t.Fatalf("trial %d: overlay dist(%d,%d) = %v, want %v (F=%v)",
						trial, src, v, got, want[v], shortcuts)
				}
			}
		}
	}
}

func TestOverlayDistRowMatchesDist(t *testing.T) {
	rng := xrand.New(13)
	g := randomGraph(t, 30, 45, rng)
	table := NewTable(g, 0)
	shortcuts := []graph.Edge{{U: 0, V: 15}, {U: 3, V: 22}, {U: 7, V: 29}}
	ov := NewOverlay(table, shortcuts)
	row := make([]float64, g.N())
	for u := 0; u < g.N(); u++ {
		ov.DistRow(graph.NodeID(u), row)
		for v := 0; v < g.N(); v++ {
			if want := ov.Dist(graph.NodeID(u), graph.NodeID(v)); math.Abs(row[v]-want) > 1e-9 {
				t.Fatalf("DistRow(%d)[%d] = %v, want %v", u, v, row[v], want)
			}
		}
	}
}

func TestOverlayChainsShortcuts(t *testing.T) {
	// 0-1-2-3-4 line; shortcuts (0,2) and (2,4) chain into a free ride
	// from 0 to 4.
	g := lineGraph(t, 5)
	table := NewTable(g, 0)
	ov := NewOverlay(table, []graph.Edge{{U: 0, V: 2}, {U: 2, V: 4}})
	if d := ov.Dist(0, 4); d != 0 {
		t.Errorf("chained shortcut distance = %v, want 0", d)
	}
	if d := ov.Dist(1, 3); d != 2 {
		// 1→0 (1) + shortcut 0→2 + shortcut... best is 1-0=1, 0~2 free,
		// 2~4 free, 4-3=1 → total 2; direct 1-2-3 is also 2.
		t.Errorf("dist(1,3) = %v, want 2", d)
	}
}

func TestOverlayEmptyForwardsTable(t *testing.T) {
	g := lineGraph(t, 4)
	table := NewTable(g, 0)
	ov := NewOverlay(table, nil)
	for u := 0; u < 4; u++ {
		for v := 0; v < 4; v++ {
			if ov.Dist(graph.NodeID(u), graph.NodeID(v)) != table.Dist(graph.NodeID(u), graph.NodeID(v)) {
				t.Fatalf("empty overlay differs from table at (%d,%d)", u, v)
			}
		}
	}
}

func TestOverlayDisconnectedComponents(t *testing.T) {
	// Two components bridged only by a shortcut.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	b.AddEdge(2, 3, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	table := NewTable(g, 0)
	ov := NewOverlay(table, []graph.Edge{{U: 1, V: 2}})
	if d := ov.Dist(0, 3); d != 2 {
		t.Errorf("bridged distance = %v, want 2", d)
	}
	ov2 := NewOverlay(table, nil)
	if d := ov2.Dist(0, 3); !math.IsInf(d, 1) {
		t.Errorf("unbridged distance = %v, want +Inf", d)
	}
}
