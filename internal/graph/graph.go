// Package graph implements the weighted undirected graph that models the
// wireless network in the MSC problem (paper §III-A).
//
// Nodes are dense integer ids 0..N-1 (mobile devices); each undirected edge
// carries a non-negative length. Per the paper's formulation, the length of
// edge (i,j) is l_ij = -ln(1 - p_ij) where p_ij is the link failure
// probability, so shortest path length corresponds to the most reliable
// path (see internal/failprob for the conversion algebra).
//
// The Graph type is immutable once built (via Builder), which lets the
// solver precompute and share all-pairs distance tables across candidate
// shortcut placements without synchronization.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"math"
	"slices"

	"msc/internal/geom"
)

// NodeID identifies a node; ids are dense in [0, N).
type NodeID = int32

// Edge is an undirected weighted edge. Canonical form has U < V.
type Edge struct {
	U, V   NodeID
	Length float64
}

// Canon returns e with endpoints ordered U < V.
func (e Edge) Canon() Edge {
	if e.U > e.V {
		e.U, e.V = e.V, e.U
	}
	return e
}

// Arc is one direction of an undirected edge, as stored in adjacency lists.
type Arc struct {
	To     NodeID
	Length float64
}

// Graph is an immutable weighted undirected graph. Construct with Builder.
type Graph struct {
	adj    [][]Arc
	edges  []Edge // canonical, sorted (U, V)
	coords []geom.Point
	labels []string
}

// Errors returned by Builder.
var (
	ErrSelfLoop   = errors.New("graph: self loop")
	ErrBadLength  = errors.New("graph: edge length must be finite and non-negative")
	ErrNodeRange  = errors.New("graph: node id out of range")
	ErrCoordCount = errors.New("graph: coordinate count does not match node count")
	ErrLabelCount = errors.New("graph: label count does not match node count")
)

// Builder accumulates nodes and edges and produces an immutable Graph.
// Duplicate edges are merged keeping the minimum length (parallel physical
// links reduce to their most reliable member for shortest-path purposes).
type Builder struct {
	n     int
	edges []Edge // canonical; in AddEdge order until Build sorts them
	// sorted says edges are sorted by (U, V) with parallel edges merged,
	// and shared with the graphs built from them.
	sorted bool
	coords []geom.Point
	labels []string
	err    error
}

// NewBuilder returns a Builder for a graph with n nodes.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// Grow reserves room for m more AddEdge calls, so that a caller who knows
// the edge count up front builds without regrowing the edge list.
func (b *Builder) Grow(m int) *Builder {
	b.edges = slices.Grow(b.edges, m)
	return b
}

// AddEdge records an undirected edge between u and v with the given length.
// Errors are sticky and reported by Build.
func (b *Builder) AddEdge(u, v NodeID, length float64) *Builder {
	if b.err != nil {
		return b
	}
	switch {
	case u == v:
		b.err = fmt.Errorf("%w: node %d", ErrSelfLoop, u)
	case u < 0 || v < 0 || int(u) >= b.n || int(v) >= b.n:
		b.err = fmt.Errorf("%w: edge (%d,%d) with n=%d", ErrNodeRange, u, v, b.n)
	case math.IsNaN(length) || math.IsInf(length, 0) || length < 0:
		b.err = fmt.Errorf("%w: (%d,%d) length %v", ErrBadLength, u, v, length)
	default:
		// After a Build the list is clipped, so this append copies it
		// instead of writing into a built graph's edges.
		b.edges = append(b.edges, Edge{U: u, V: v, Length: length}.Canon())
		b.sorted = false
	}
	return b
}

// SetCoords attaches 2-D positions (one per node). Optional; used by the
// geometric generators and the visualizer.
func (b *Builder) SetCoords(coords []geom.Point) *Builder {
	if b.err != nil {
		return b
	}
	if len(coords) != b.n {
		b.err = fmt.Errorf("%w: got %d, want %d", ErrCoordCount, len(coords), b.n)
		return b
	}
	b.coords = append([]geom.Point(nil), coords...)
	return b
}

// SetLabels attaches human-readable node labels (one per node). Optional.
func (b *Builder) SetLabels(labels []string) *Builder {
	if b.err != nil {
		return b
	}
	if len(labels) != b.n {
		b.err = fmt.Errorf("%w: got %d, want %d", ErrLabelCount, len(labels), b.n)
		return b
	}
	b.labels = append([]string(nil), labels...)
	return b
}

// Build finalizes the graph. It returns the first error recorded by the
// builder, if any.
func (b *Builder) Build() (*Graph, error) {
	if b.err != nil {
		return nil, b.err
	}
	if !b.sorted {
		slices.SortFunc(b.edges, func(x, y Edge) int {
			if x.U != y.U {
				return cmp.Compare(x.U, y.U)
			}
			return cmp.Compare(x.V, y.V)
		})
		b.edges = slices.Clip(mergeParallel(b.edges))
		b.sorted = true
	}
	g := &Graph{
		adj:    make([][]Arc, b.n),
		edges:  b.edges,
		coords: b.coords,
		labels: b.labels,
	}
	// Lay every adjacency list out in one backing array, in edge order
	// (so each list is sorted by neighbour), each list capped so that an
	// append to one cannot overwrite the next. next[u] counts u's degree,
	// then tracks the next free slot of u's list, ending at its end.
	next := make([]int, b.n)
	for _, e := range g.edges {
		next[e.U]++
		next[e.V]++
	}
	end := 0
	for u, deg := range next {
		next[u] = end
		end += deg
	}
	arcs := make([]Arc, end)
	for _, e := range g.edges {
		arcs[next[e.U]] = Arc{To: e.V, Length: e.Length}
		next[e.U]++
		arcs[next[e.V]] = Arc{To: e.U, Length: e.Length}
		next[e.V]++
	}
	start := 0
	for u, end := range next {
		if end > start {
			g.adj[u] = arcs[start:end:end]
		}
		start = end
	}
	return g, nil
}

// mergeParallel collapses each run of parallel edges in the sorted edges
// to its shortest member, in place.
func mergeParallel(edges []Edge) []Edge {
	out := edges[:0]
	for _, e := range edges {
		if k := len(out) - 1; k >= 0 && out[k].U == e.U && out[k].V == e.V {
			if e.Length < out[k].Length {
				out[k].Length = e.Length
			}
			continue
		}
		out = append(out, e)
	}
	return out
}

// MustBuild is Build but panics on error; for tests and static literals.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// N returns the number of nodes.
func (g *Graph) N() int { return len(g.adj) }

// M returns the number of undirected edges.
func (g *Graph) M() int { return len(g.edges) }

// Edges returns the canonical edge list. Callers must not modify it.
func (g *Graph) Edges() []Edge { return g.edges }

// Neighbors returns the adjacency list of u. Callers must not modify it.
func (g *Graph) Neighbors(u NodeID) []Arc { return g.adj[u] }

// EdgeLength returns the length of edge (u,v) and whether it exists.
func (g *Graph) EdgeLength(u, v NodeID) (float64, bool) {
	if u == v {
		return 0, false
	}
	// Scan the shorter adjacency list.
	if len(g.adj[u]) > len(g.adj[v]) {
		u, v = v, u
	}
	for _, a := range g.adj[u] {
		if a.To == v {
			return a.Length, true
		}
	}
	return 0, false
}

// Coords returns the node positions, or nil if none were attached.
func (g *Graph) Coords() []geom.Point { return g.coords }

// Labels returns the node labels, or nil if none were attached.
func (g *Graph) Labels() []string { return g.labels }

// Label returns the label of u, falling back to "v<id>".
func (g *Graph) Label(u NodeID) string {
	if g.labels != nil && int(u) < len(g.labels) && g.labels[u] != "" {
		return g.labels[u]
	}
	return fmt.Sprintf("v%d", u)
}
