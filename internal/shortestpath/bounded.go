package shortestpath

import (
	"fmt"
	"math"
	"sync/atomic"

	"msc/internal/graph"
	"msc/internal/obs"
)

// rowBytesResident tracks the bytes of distance-row payload currently
// resident across every row cache in the process: LazyTable dense rows
// (8·n per entry), BoundedTable balls and dense rows materialized from
// them. It feeds the msc_row_bytes_resident gauge and the RunRecord
// field of the same name, turning the "row memory scales with the
// d_t-ball, not n" claim into an observable number.
var rowBytesResident atomic.Int64

// RowBytesResident reports the bytes of distance-row payload currently
// held by all row caches in the process.
func RowBytesResident() int64 { return rowBytesResident.Load() }

func init() {
	obs.NewGaugeFunc(obs.Default(), "msc_row_bytes_resident",
		"Bytes of distance-row payload resident across all row caches (lazy dense rows, bounded sparse rows, materialized dense rows).",
		func() float64 { return float64(rowBytesResident.Load()) })
}

// BoundedOptions tune a BoundedTable. Reach is required.
type BoundedOptions struct {
	// Reach is the exploration bound: rows hold exactly the nodes within
	// Reach of the source. For the MSC objective Reach = d_t suffices —
	// every comparison the solver makes is against d_t, and any augmented
	// path of length ≤ d_t decomposes into graph segments each ≤ d_t, so
	// distances beyond the reach are interchangeable with +Inf. Must be
	// ≥ 0 and not NaN; +Inf degenerates to full (but still sparse) rows.
	Reach float64
	// Landmarks must be ≤ 0 (none); NewBoundedTable refuses a positive
	// value.
	//
	// Deprecated: a d_t-ball answers every far query, so no landmark layer is built.
	Landmarks int
}

// BoundedStats is a point-in-time snapshot of a BoundedTable's activity.
type BoundedStats struct {
	// Hits/Misses/Computes mirror LazyStats for the ball cache.
	Hits     int64
	Misses   int64
	Computes int64
	// Cached is the number of balls currently held.
	Cached int
	// RowBytes is the resident payload: balls plus any dense rows
	// materialized through Row (8·n each).
	RowBytes int64
	// DenseRows counts rows materialized to dense []float64 form via Row;
	// those are kept for the table's lifetime.
	DenseRows int
}

// BoundedTable is a DistanceSource specialized for threshold objectives:
// each row is the source's ball at the configured reach — the nodes within
// reach and their exact float64 distances, computed by a bounded Dijkstra
// and memoized — so per-row memory scales with the size of the ball
// instead of with n. Everything outside the ball reads as +Inf, which is
// indistinguishable from the true distance for any consumer that only
// compares distances against a threshold ≤ reach: within the reach the
// metric is the dense one, bit for bit.
type BoundedTable struct {
	n     int
	reach float64
	balls *ballFinder // pooled bounded-Dijkstra scratch
	rows  *rowCache[Ball]

	// dense holds rows materialized through Row (the DistanceSource
	// dense-row contract: valid and immutable for the caller's
	// lifetime). Bulk row consumers at scale use SparseRow instead.
	dense *Memo[[]float64]
}

// NewBoundedTable wraps g in a bounded-reach sparse distance source. The
// graph must stay immutable for the table's lifetime. It rejects a NaN
// or negative reach: a NaN bound would silently degenerate to full
// exploration (every `d > NaN` comparison is false), which is exactly
// the cost profile this table exists to avoid. It also rejects a positive
// Landmarks count, so no caller believes a landmark layer is built.
func NewBoundedTable(g *graph.Graph, opts BoundedOptions) (*BoundedTable, error) {
	if math.IsNaN(opts.Reach) {
		return nil, fmt.Errorf("shortestpath: bounded table: reach must not be NaN")
	}
	if opts.Reach < 0 {
		return nil, fmt.Errorf("shortestpath: bounded table: reach must be ≥ 0, got %v", opts.Reach)
	}
	if opts.Landmarks > 0 {
		return nil, fmt.Errorf("shortestpath: bounded table: landmarks are not supported (a d_t-ball answers far queries), got %d", opts.Landmarks)
	}
	t := &BoundedTable{n: g.N(), reach: opts.Reach, balls: newBallFinder(g)}
	t.rows = newRowCache(func(u graph.NodeID) Ball {
		ids, dist := t.balls.ball(u, t.reach, nil, nil)
		return Ball{IDs: ids, Dist: dist}
	}, Ball.Bytes)
	t.dense = NewMemo(func(u graph.NodeID) []float64 {
		d := newDistSlice(t.n)
		b := t.SparseRow(u)
		for i, id := range b.IDs {
			d[id] = b.Dist[i]
		}
		t.rows.addBytes(int64(t.n) * 8)
		return d
	})
	return t, nil
}

// N returns the number of nodes the table covers.
func (t *BoundedTable) N() int { return t.n }

// Reach returns the exploration bound rows were computed at.
func (t *BoundedTable) Reach() float64 { return t.reach }

// Dist returns the distance between u and v if v is within reach of u,
// +Inf otherwise.
func (t *BoundedTable) Dist(u, v graph.NodeID) float64 {
	return t.SparseRow(u).At(v)
}

// Row returns u's row in dense form, materialized from its ball on first
// use and kept for the table's lifetime (the DistanceSource row contract
// promises the slice stays valid and immutable). Out-of-ball nodes hold
// +Inf. Bulk consumers that can handle sparsity should prefer SparseRow —
// each dense row costs 8·n bytes forever.
func (t *BoundedTable) Row(u graph.NodeID) []float64 {
	d, _ := t.dense.Get(u)
	return d
}

// SparseRow returns u's ball at the reach, computing and caching it on
// first use. The ball is immutable once published; callers must not
// modify it.
func (t *BoundedTable) SparseRow(u graph.NodeID) Ball { return t.rows.get(u) }

// Stats snapshots the table's counters. Consistent at a quiescent point,
// which is how tests use it.
func (t *BoundedTable) Stats() BoundedStats {
	return BoundedStats{
		Hits:      t.rows.hits.Load(),
		Misses:    t.rows.misses.Load(),
		Computes:  t.rows.computes.Load(),
		Cached:    t.rows.memo.Len(),
		RowBytes:  t.rows.bytes.Load(),
		DenseRows: t.dense.Len(),
	}
}
