package shortestpath

import (
	"msc/internal/graph"
)

// LazyOptions is the former tuning struct of a LazyTable.
//
// Deprecated: a LazyTable has nothing left to tune; pass LazyOptions{}.
type LazyOptions struct{}

// LazyStats is a point-in-time snapshot of a LazyTable's cache activity.
type LazyStats struct {
	// Hits counts Row/Dist calls that found the row entry already cached.
	Hits int64
	// Misses counts calls that had to create a new row entry.
	Misses int64
	// Computes counts full-row Dijkstra runs: the number of distinct rows
	// ever requested, since each row is computed exactly once no matter
	// how many goroutines race for it.
	Computes int64
	// Cached is the number of rows currently held.
	Cached int
}

// LazyTable is a DistanceSource that computes Dijkstra rows on demand and
// memoizes them for its lifetime. It is safe for concurrent use; every row
// is computed exactly once (see Memo), so concurrent readers of the same
// row never duplicate work and never observe a torn row.
//
// Construction is O(1): where the dense Table pays n Dijkstras and n²
// float64s up front, a LazyTable pays one Dijkstra per distinct row the
// solver actually touches — for the overlay oracle that is the ≤2m
// social-pair endpoints plus the ≤2k shortcut endpoints per evaluated
// selection, independent of n.
type LazyTable struct {
	n    int
	rows *rowCache[[]float64]
}

// NewLazyTable wraps g in an on-demand distance source. The graph must be
// immutable for the table's lifetime (the same contract NewTable has).
func NewLazyTable(g *graph.Graph, _ LazyOptions) *LazyTable {
	n := g.N()
	return &LazyTable{
		n:    n,
		rows: newRowCache(func(u graph.NodeID) []float64 { return Dijkstra(g, u) }, func([]float64) int64 { return int64(n) * 8 }),
	}
}

// N returns the number of nodes the table covers.
func (t *LazyTable) N() int { return t.n }

// Dist returns the shortest-path distance between u and v (+Inf if
// disconnected), computing and caching u's row on first use.
func (t *LazyTable) Dist(u, v graph.NodeID) float64 { return t.Row(u)[v] }

// Row returns the distance row of u, computing it on first use. Callers
// must not modify the returned slice.
func (t *LazyTable) Row(u graph.NodeID) []float64 { return t.rows.get(u) }

// Stats snapshots the cache counters. Consistent when taken at a quiescent
// point (no concurrent Row/Dist calls), which is how tests use it.
func (t *LazyTable) Stats() LazyStats {
	return LazyStats{
		Hits:     t.rows.hits.Load(),
		Misses:   t.rows.misses.Load(),
		Computes: t.rows.computes.Load(),
		Cached:   t.rows.memo.Len(),
	}
}
