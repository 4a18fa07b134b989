package graph

import (
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"

	"msc/internal/geom"
)

func TestBuilderBasics(t *testing.T) {
	g, err := NewBuilder(3).
		AddEdge(0, 1, 1.5).
		AddEdge(1, 2, 2.5).
		Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.N() != 3 || g.M() != 2 {
		t.Fatalf("n=%d m=%d", g.N(), g.M())
	}
	if l, ok := g.EdgeLength(1, 0); !ok || l != 1.5 {
		t.Fatalf("EdgeLength(1,0) = %v, %v", l, ok)
	}
	if _, ok := g.EdgeLength(0, 2); ok {
		t.Fatal("phantom edge")
	}
	if len(g.Neighbors(1)) != 2 || len(g.Neighbors(0)) != 1 {
		t.Fatal("degrees wrong")
	}
	total := 0.0
	for _, e := range g.Edges() {
		total += e.Length
	}
	if total != 4 {
		t.Fatalf("total length = %v", total)
	}
}

func TestBuilderDuplicateKeepsMin(t *testing.T) {
	g := NewBuilder(2).
		AddEdge(0, 1, 3).
		AddEdge(1, 0, 1). // reversed duplicate, smaller
		AddEdge(0, 1, 2).
		MustBuild()
	if g.M() != 1 {
		t.Fatalf("m = %d, want 1", g.M())
	}
	if l, _ := g.EdgeLength(0, 1); l != 1 {
		t.Fatalf("merged length = %v, want 1", l)
	}
}

func TestBuilderErrors(t *testing.T) {
	cases := []struct {
		build func() (*Graph, error)
		want  error
	}{
		{func() (*Graph, error) { return NewBuilder(2).AddEdge(0, 0, 1).Build() }, ErrSelfLoop},
		{func() (*Graph, error) { return NewBuilder(2).AddEdge(0, 2, 1).Build() }, ErrNodeRange},
		{func() (*Graph, error) { return NewBuilder(2).AddEdge(-1, 1, 1).Build() }, ErrNodeRange},
		{func() (*Graph, error) { return NewBuilder(2).AddEdge(0, 1, -1).Build() }, ErrBadLength},
		{func() (*Graph, error) {
			return NewBuilder(2).SetCoords([]geom.Point{{X: 1}}).Build()
		}, ErrCoordCount},
		{func() (*Graph, error) {
			return NewBuilder(2).SetLabels([]string{"a"}).Build()
		}, ErrLabelCount},
	}
	for i, tc := range cases {
		if _, err := tc.build(); !errors.Is(err, tc.want) {
			t.Errorf("case %d: err = %v, want %v", i, err, tc.want)
		}
	}
}

func TestBuilderErrorSticky(t *testing.T) {
	b := NewBuilder(2).AddEdge(0, 0, 1) // error
	b.AddEdge(0, 1, 1)                  // valid but too late
	if _, err := b.Build(); err == nil {
		t.Fatal("sticky error lost")
	}
}

func TestEdgesCanonicalSorted(t *testing.T) {
	g := NewBuilder(4).
		AddEdge(3, 1, 1).
		AddEdge(2, 0, 1).
		AddEdge(1, 0, 1).
		MustBuild()
	edges := g.Edges()
	for i, e := range edges {
		if e.U >= e.V {
			t.Fatalf("edge %d not canonical: %v", i, e)
		}
		if i > 0 {
			prev := edges[i-1]
			if prev.U > e.U || (prev.U == e.U && prev.V >= e.V) {
				t.Fatalf("edges not sorted at %d", i)
			}
		}
	}
}

func TestLabelsAndCoords(t *testing.T) {
	coords := []geom.Point{{X: 0}, {X: 1}}
	g := NewBuilder(2).
		SetCoords(coords).
		SetLabels([]string{"alpha", ""}).
		AddEdge(0, 1, 1).
		MustBuild()
	if g.Label(0) != "alpha" {
		t.Fatalf("Label(0) = %q", g.Label(0))
	}
	if g.Label(1) != "v1" {
		t.Fatalf("Label(1) = %q, want fallback", g.Label(1))
	}
	// Builder must copy the coords.
	coords[0].X = 99
	if g.Coords()[0].X == 99 {
		t.Fatal("builder aliased caller's coords")
	}
}

func TestComponents(t *testing.T) {
	g := NewBuilder(6).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 1).
		AddEdge(3, 4, 1).
		MustBuild()
	comps := g.Components()
	if len(comps) != 3 {
		t.Fatalf("components = %d, want 3", len(comps))
	}
	if len(comps[0]) != 3 || len(comps[1]) != 2 || len(comps[2]) != 1 {
		t.Fatalf("component sizes wrong: %v", comps)
	}
	if g.Connected() {
		t.Fatal("disconnected graph reported connected")
	}
	largest := g.LargestComponent()
	if len(largest) != 3 || largest[0] != 0 {
		t.Fatalf("largest = %v", largest)
	}
}

// TestComponentsLargePathLinear runs Components on a 10⁵-node path whose
// BFS from node 0 visits the ids in descending order — the worst case of
// an insertion sort, ≈5·10⁹ swaps. A linear-log sort finishes in
// milliseconds; the bound fails loudly if the component sort turns
// quadratic again.
func TestComponentsLargePathLinear(t *testing.T) {
	const n = 100_000
	b := NewBuilder(n)
	b.AddEdge(0, n-1, 1)
	for v := n - 1; v > 1; v-- {
		b.AddEdge(NodeID(v), NodeID(v-1), 1)
	}
	g := b.MustBuild()
	start := time.Now()
	comps := g.Components()
	if took := time.Since(start); took > time.Second {
		t.Fatalf("Components on a %d-node path took %v: the component sort is quadratic", n, took)
	}
	if len(comps) != 1 || len(comps[0]) != n {
		t.Fatalf("got %d components, want one of %d nodes", len(comps), n)
	}
	for i, v := range comps[0] {
		if v != NodeID(i) {
			t.Fatalf("component not sorted at %d: %d", i, v)
		}
	}
}

func TestConnectedSingleAndEmpty(t *testing.T) {
	if !NewBuilder(0).MustBuild().Connected() {
		t.Fatal("empty graph should be connected")
	}
	if !NewBuilder(1).MustBuild().Connected() {
		t.Fatal("single node should be connected")
	}
}

func TestInducedSubgraph(t *testing.T) {
	g := NewBuilder(5).
		SetCoords([]geom.Point{{X: 0}, {X: 1}, {X: 2}, {X: 3}, {X: 4}}).
		SetLabels([]string{"a", "b", "c", "d", "e"}).
		AddEdge(0, 1, 1).
		AddEdge(1, 2, 2).
		AddEdge(2, 3, 3).
		AddEdge(3, 4, 4).
		MustBuild()
	sub, mapping := g.InducedSubgraph([]NodeID{1, 2, 4})
	if sub.N() != 3 {
		t.Fatalf("sub n = %d", sub.N())
	}
	// Only edge (1,2) survives.
	if sub.M() != 1 {
		t.Fatalf("sub m = %d, want 1", sub.M())
	}
	if l, ok := sub.EdgeLength(0, 1); !ok || l != 2 {
		t.Fatalf("sub edge = %v, %v", l, ok)
	}
	if mapping[2] != 4 {
		t.Fatalf("mapping = %v", mapping)
	}
	if sub.Label(2) != "e" || sub.Coords()[2].X != 4 {
		t.Fatal("labels/coords not carried")
	}
}

func TestEdgeCanon(t *testing.T) {
	e := Edge{U: 5, V: 2, Length: 1}
	c := e.Canon()
	if c.U != 2 || c.V != 5 || c.Length != 1 {
		t.Fatalf("Canon = %v", c)
	}
}

func TestMustBuildPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	NewBuilder(1).AddEdge(0, 0, 1).MustBuild()
}

// mapBuilder is the map-based Builder that the slice-and-sort one
// replaced, kept as the reference: every edge keyed in a map (the minimum
// length winning), then the keys sorted and the lists appended per edge.
type mapBuilder struct {
	n     int
	edges map[[2]NodeID]float64
}

func (b *mapBuilder) AddEdge(u, v NodeID, length float64) {
	if u > v {
		u, v = v, u
	}
	key := [2]NodeID{u, v}
	if old, ok := b.edges[key]; !ok || length < old {
		b.edges[key] = length
	}
}

func (b *mapBuilder) Build() (edges []Edge, adj [][]Arc) {
	for key, length := range b.edges {
		edges = append(edges, Edge{U: key[0], V: key[1], Length: length})
	}
	sort.Slice(edges, func(i, j int) bool {
		if edges[i].U != edges[j].U {
			return edges[i].U < edges[j].U
		}
		return edges[i].V < edges[j].V
	})
	adj = make([][]Arc, b.n)
	for _, e := range edges {
		adj[e.U] = append(adj[e.U], Arc{To: e.V, Length: e.Length})
		adj[e.V] = append(adj[e.V], Arc{To: e.U, Length: e.Length})
	}
	return edges, adj
}

// TestBuilderMatchesMapReference: on random multigraphs with duplicate
// and reversed-endpoint AddEdge calls, Build gives the reference's edges,
// the same min-length merge, and every neighbour list in the same order.
func TestBuilderMatchesMapReference(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		b := NewBuilder(n)
		ref := &mapBuilder{n: n, edges: make(map[[2]NodeID]float64)}
		for i := rng.Intn(4 * n); i > 0 && n > 1; i-- {
			u, v := NodeID(rng.Intn(n)), NodeID(rng.Intn(n))
			if u == v {
				continue
			}
			length := float64(rng.Intn(8)) / 4 // repeats, so ties get merged too
			b.AddEdge(u, v, length)
			ref.AddEdge(u, v, length)
			if rng.Intn(3) == 0 { // the same edge again, reversed
				length = float64(rng.Intn(8)) / 4
				b.AddEdge(v, u, length)
				ref.AddEdge(v, u, length)
			}
		}
		g := b.MustBuild()
		wantEdges, wantAdj := ref.Build()
		if len(wantEdges) == 0 {
			wantEdges = []Edge{}
		}
		if got := append([]Edge{}, g.Edges()...); !reflect.DeepEqual(got, wantEdges) {
			t.Fatalf("trial %d: edges\ngot  %v\nwant %v", trial, got, wantEdges)
		}
		for u := 0; u < n; u++ {
			if got := g.Neighbors(NodeID(u)); !reflect.DeepEqual(got, wantAdj[u]) {
				t.Fatalf("trial %d: Neighbors(%d)\ngot  %v\nwant %v", trial, u, got, wantAdj[u])
			}
		}
	}
}

// TestNeighborsAppendIsolated: the adjacency lists share one backing
// array, so each must be capped: appending to one list must not overwrite
// the next node's arcs.
func TestNeighborsAppendIsolated(t *testing.T) {
	g := NewBuilder(4).AddEdge(0, 1, 1).AddEdge(1, 2, 2).AddEdge(2, 3, 3).AddEdge(0, 3, 4).MustBuild()
	before := make([][]Arc, g.N())
	for u := range before {
		before[u] = append([]Arc(nil), g.Neighbors(NodeID(u))...)
	}
	for u := 0; u < g.N(); u++ {
		_ = append(g.Neighbors(NodeID(u)), Arc{To: 99, Length: 99})
	}
	for u := range before {
		if got := g.Neighbors(NodeID(u)); !reflect.DeepEqual(got, before[u]) {
			t.Fatalf("Neighbors(%d) = %v after appends, want %v", u, got, before[u])
		}
	}
}

// TestBuilderReuse: a builder keeps its edges across Build, and adding to
// it afterwards leaves the graphs already built untouched.
func TestBuilderReuse(t *testing.T) {
	b := NewBuilder(3).AddEdge(2, 1, 1).AddEdge(0, 1, 2)
	g1 := b.MustBuild()
	g2 := b.AddEdge(2, 0, 3).AddEdge(1, 0, 0.5).MustBuild()
	if want := []Edge{{0, 1, 2}, {1, 2, 1}}; !reflect.DeepEqual(g1.Edges(), want) {
		t.Fatalf("first graph edges = %v, want %v", g1.Edges(), want)
	}
	if want := []Edge{{0, 1, 0.5}, {0, 2, 3}, {1, 2, 1}}; !reflect.DeepEqual(g2.Edges(), want) {
		t.Fatalf("second graph edges = %v, want %v", g2.Edges(), want)
	}
	if l, _ := g1.EdgeLength(0, 1); l != 2 {
		t.Fatalf("first graph's (0,1) = %v after the builder merged a shorter one, want 2", l)
	}
}
