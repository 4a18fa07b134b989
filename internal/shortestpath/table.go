package shortestpath

import (
	"runtime"
	"sync"

	"msc/internal/graph"
)

// Table is an all-pairs shortest-path distance table for a graph. It is
// immutable after construction and safe for concurrent reads; the solver
// shares one Table across every candidate placement it evaluates.
type Table struct {
	n    int
	dist [][]float64
}

// NewTable computes the all-pairs table by running one Dijkstra per node.
// Rows are computed in parallel across the given number of workers
// (workers <= 0 selects GOMAXPROCS); the result is deterministic for
// every worker count because rows are independent.
func NewTable(g *graph.Graph, workers int) *Table {
	n := g.N()
	t := &Table{n: n, dist: make([][]float64, n)}
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > n {
		workers = n
	}
	if workers < 1 {
		workers = 1
	}
	var wg sync.WaitGroup
	next := make(chan int)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for src := range next {
				t.dist[src] = Dijkstra(g, graph.NodeID(src))
			}
		}()
	}
	for src := 0; src < n; src++ {
		next <- src
	}
	close(next)
	wg.Wait()
	return t
}

// N returns the number of nodes the table covers.
func (t *Table) N() int { return t.n }

// Dist returns the shortest-path distance between u and v (+Inf if
// disconnected).
func (t *Table) Dist(u, v graph.NodeID) float64 { return t.dist[u][v] }

// Row returns the distance row of u. Callers must not modify it.
func (t *Table) Row(u graph.NodeID) []float64 { return t.dist[u] }
