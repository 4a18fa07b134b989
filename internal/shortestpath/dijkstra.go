// Package shortestpath implements the distance machinery the MSC solver is
// built on: Dijkstra's algorithm (single-source, bounded, with parents), an
// all-pairs distance table, and — crucially — the shortcut-overlay distance
// oracle that evaluates a candidate placement F without re-running Dijkstra
// on the augmented graph G ∪ F.
//
// All distances are the edge-length metric of internal/graph, i.e. the
// −ln(1−p) transform of link failure probabilities; +Inf means unreachable.
package shortestpath

import (
	"math"

	"msc/internal/graph"
	"msc/internal/indexheap"
	"msc/internal/telemetry"
)

// Inf is the distance reported for unreachable nodes.
var Inf = math.Inf(1)

// Dijkstra returns the shortest-path distance from src to every node of g.
// Unreachable nodes get +Inf.
func Dijkstra(g *graph.Graph, src graph.NodeID) []float64 {
	dist := newDistSlice(g.N())
	dijkstraInto(g, src, dist, nil)
	return dist
}

// DijkstraWithParents returns distances and a parent array: parent[v] is the
// predecessor of v on a shortest src→v path, or -1 for src and unreachable
// nodes.
func DijkstraWithParents(g *graph.Graph, src graph.NodeID) (dist []float64, parent []graph.NodeID) {
	dist = newDistSlice(g.N())
	parent = make([]graph.NodeID, g.N())
	for i := range parent {
		parent[i] = -1
	}
	dijkstraInto(g, src, dist, parent)
	return dist, parent
}

// dijkstraInto runs Dijkstra from src into the provided dist slice
// (pre-filled with +Inf). If parent is non-nil it is filled with
// shortest-path predecessors.
func dijkstraInto(g *graph.Graph, src graph.NodeID, dist []float64, parent []graph.NodeID) {
	// Relaxations tally into a local; one atomic flush per run keeps the
	// hot loop free of shared writes while the per-run totals (and thus
	// any sum of runs) stay deterministic at every worker count.
	relaxed := int64(0)
	defer func() {
		c := telemetry.Global()
		c.DijkstraRuns.Add(1)
		c.EdgeRelaxations.Add(relaxed)
	}()
	h := indexheap.New(g.N())
	dist[src] = 0
	h.Push(int(src), 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		for _, a := range g.Neighbors(graph.NodeID(u)) {
			if nd := du + a.Length; nd < dist[a.To] {
				dist[a.To] = nd
				relaxed++
				if parent != nil {
					parent[a.To] = graph.NodeID(u)
				}
				h.Push(int(a.To), nd)
			}
		}
	}
}

// PathTo reconstructs the src→dst node sequence from a parent array
// produced by DijkstraWithParents. It returns nil if dst is unreachable.
func PathTo(parent []graph.NodeID, src, dst graph.NodeID) []graph.NodeID {
	if src == dst {
		return []graph.NodeID{src}
	}
	if parent[dst] < 0 {
		return nil
	}
	var rev []graph.NodeID
	for v := dst; v != src; v = parent[v] {
		rev = append(rev, v)
		if parent[v] < 0 {
			return nil
		}
	}
	rev = append(rev, src)
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

func newDistSlice(n int) []float64 {
	dist := make([]float64, n)
	inf := math.Inf(1)
	for i := range dist {
		dist[i] = inf
	}
	return dist
}
