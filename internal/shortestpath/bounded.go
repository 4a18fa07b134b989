package shortestpath

import (
	"encoding/binary"
	"fmt"
	"math"
	"sync"
	"sync/atomic"
	"time"

	"msc/internal/graph"
	"msc/internal/obs"
	"msc/internal/telemetry"
)

// rowBytesResident tracks the bytes of distance-row payload currently
// resident across every row cache in the process: LazyTable dense rows
// (8·n per entry), BoundedTable sparse rows and dense rows materialized
// from them. It feeds the msc_row_bytes_resident gauge and the RunRecord
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

// SparseRow is a compact distance row: the nodes inside a bounded-reach
// Dijkstra ball as parallel slices of node ids (sorted ascending) and
// float32 distances. Nodes absent from the row are beyond the reach or
// unreachable and read as +Inf. Distances are quantized to float32
// (≈1e-7 relative error), which the objective tolerates: it only ever
// compares distances against d_t, and the solver treats the stored value
// as the metric.
type SparseRow struct {
	ids  []int32
	dist []float32
}

// Len returns the number of in-ball entries.
func (r SparseRow) Len() int { return len(r.ids) }

// Entry returns the i-th (node, distance) pair in ascending node order.
func (r SparseRow) Entry(i int) (graph.NodeID, float64) {
	return graph.NodeID(r.ids[i]), float64(r.dist[i])
}

// At returns the stored distance to v, or +Inf if v is outside the ball.
func (r SparseRow) At(v graph.NodeID) float64 {
	lo, hi := 0, len(r.ids)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if r.ids[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(r.ids) && r.ids[lo] == int32(v) {
		return float64(r.dist[lo])
	}
	return Inf
}

// Bytes returns the payload size of the row: 8 bytes per entry (int32 id
// + float32 distance), excluding slice headers.
func (r SparseRow) Bytes() int64 { return int64(len(r.ids)) * 8 }

// AppendBinary appends the row's portable binary encoding to dst: a
// little-endian uint32 entry count followed by (uint32 id, IEEE-754
// float32 bits) pairs. DecodeSparseRow inverts it exactly.
func (r SparseRow) AppendBinary(dst []byte) []byte {
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(r.ids)))
	for i, id := range r.ids {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(id))
		dst = binary.LittleEndian.AppendUint32(dst, math.Float32bits(r.dist[i]))
	}
	return dst
}

// DecodeSparseRow parses the encoding produced by AppendBinary. It
// rejects malformed input: short or oversized buffers, unsorted or
// duplicate ids, ids outside int32, and distances that are negative, NaN
// or infinite (a ball entry is always a finite distance ≥ 0). For every
// accepted input, re-encoding the result reproduces the input bytes.
func DecodeSparseRow(data []byte) (SparseRow, error) {
	if len(data) < 4 {
		return SparseRow{}, fmt.Errorf("shortestpath: sparse row: truncated header (%d bytes)", len(data))
	}
	n := binary.LittleEndian.Uint32(data)
	rest := data[4:]
	if uint64(len(rest)) != uint64(n)*8 {
		return SparseRow{}, fmt.Errorf("shortestpath: sparse row: %d entries need %d payload bytes, got %d", n, uint64(n)*8, len(rest))
	}
	r := SparseRow{ids: make([]int32, n), dist: make([]float32, n)}
	prev := int32(-1)
	for i := range r.ids {
		id := binary.LittleEndian.Uint32(rest[i*8:])
		if id > math.MaxInt32 {
			return SparseRow{}, fmt.Errorf("shortestpath: sparse row: node id %d overflows int32", id)
		}
		if int32(id) <= prev {
			return SparseRow{}, fmt.Errorf("shortestpath: sparse row: ids not strictly increasing at entry %d", i)
		}
		d := math.Float32frombits(binary.LittleEndian.Uint32(rest[i*8+4:]))
		if !(d >= 0) || float64(d) > math.MaxFloat32 {
			return SparseRow{}, fmt.Errorf("shortestpath: sparse row: entry %d has invalid distance %v", i, d)
		}
		prev = int32(id)
		r.ids[i] = int32(id)
		r.dist[i] = d
	}
	return r, nil
}

// BoundedOptions tune a BoundedTable. Reach is required; the zero values
// of the remaining fields (unbounded cache, default shards) are
// reasonable for tests.
type BoundedOptions struct {
	// Reach is the exploration bound: rows hold exactly the nodes within
	// Reach of the source. For the MSC objective Reach = d_t suffices —
	// every comparison the solver makes is against d_t, and any augmented
	// path of length ≤ d_t decomposes into graph segments each ≤ d_t, so
	// distances beyond the reach are interchangeable with +Inf. Must be
	// ≥ 0 and not NaN; +Inf degenerates to full (but still sparse) rows.
	Reach float64
	// MaxRows caps cached non-pinned rows (0 = unbounded), exactly as in
	// LazyOptions.
	MaxRows int
	// Shards fixes the cache shard count; 0 picks the LazyTable default.
	Shards int
	// Landmarks must be ≤ 0 (none); NewBoundedTable refuses a positive
	// value.
	//
	// Deprecated: a d_t-ball answers every far query, so no landmark layer is built.
	Landmarks int
}

// BoundedStats is a point-in-time snapshot of a BoundedTable's activity.
type BoundedStats struct {
	// Hits/Misses/Computes/Evictions mirror LazyStats for the sparse-row
	// cache.
	Hits      int64
	Misses    int64
	Computes  int64
	Evictions int64
	// Cached is the number of sparse rows currently held (pinned
	// included).
	Cached int
	// RowBytes is the resident payload: sparse rows plus any dense rows
	// materialized through Row (8·n each).
	RowBytes int64
	// DenseRows counts rows materialized to dense []float64 form via Row;
	// those are kept for the table's lifetime.
	DenseRows int
}

// BoundedTable is a DistanceSource specialized for threshold objectives:
// rows are computed with a bounded Dijkstra at the configured reach and
// stored sparsely, so per-row memory scales with the size of the
// reach-ball instead of with n. Everything outside the ball reads as
// +Inf, which is indistinguishable from the true distance for any
// consumer that only compares distances against a threshold ≤ reach.
//
// The cache layer is LazyTable's, verbatim: sharded, concurrency-safe,
// one sync.Once per entry, FIFO eviction under MaxRows, Pin for
// never-evict rows. Rows come from a ballFinder, whose pooled scratch
// lets warm rows allocate only their own sparse payload.
type BoundedTable struct {
	n      int
	reach  float64
	shards []boundedShard

	balls *ballFinder // pooled bounded-Dijkstra scratch

	// dense holds rows materialized through Row (the DistanceSource
	// dense-row contract: valid and immutable for the caller's
	// lifetime). They are never evicted; bulk row consumers at scale use
	// SparseRow instead.
	denseMu sync.Mutex
	dense   map[graph.NodeID][]float64

	hits      atomic.Int64
	misses    atomic.Int64
	computes  atomic.Int64
	evictions atomic.Int64
	rowBytes  atomic.Int64
}

type boundedShard struct {
	mu     sync.Mutex
	cap    int // shard's share of MaxRows; -1 = unbounded
	rows   map[graph.NodeID]*boundedRow
	fifo   []graph.NodeID
	pinned map[graph.NodeID]bool
}

// boundedRow is one cache entry; the Once publishes row exactly as in
// lazyRow. bytes is set after the compute so eviction can settle the
// byte accounting; a row evicted mid-compute leaves its bytes counted
// until the table is dropped (the gauge is a resource indicator, not a
// ledger, and the slack is one row).
type boundedRow struct {
	once  sync.Once
	row   SparseRow
	bytes atomic.Int64
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
	shards := opts.Shards
	if shards <= 0 {
		shards = defaultLazyShards
	}
	if opts.MaxRows > 0 && shards > opts.MaxRows {
		shards = opts.MaxRows
	}
	t := &BoundedTable{
		n:      g.N(),
		reach:  opts.Reach,
		shards: make([]boundedShard, shards),
		dense:  make(map[graph.NodeID][]float64),
		balls:  newBallFinder(g),
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.rows = make(map[graph.NodeID]*boundedRow)
		if opts.MaxRows <= 0 {
			sh.cap = -1
			continue
		}
		sh.cap = opts.MaxRows / shards
		if i < opts.MaxRows%shards {
			sh.cap++
		}
	}
	return t, nil
}

// N returns the number of nodes the table covers.
func (t *BoundedTable) N() int { return t.n }

// Reach returns the exploration bound rows were computed at.
func (t *BoundedTable) Reach() float64 { return t.reach }

// Pin marks rows as never-evictable, as in LazyTable.Pin.
func (t *BoundedTable) Pin(nodes []graph.NodeID) {
	for _, u := range nodes {
		sh := t.shard(u)
		sh.mu.Lock()
		if sh.pinned == nil {
			sh.pinned = make(map[graph.NodeID]bool)
		}
		if !sh.pinned[u] {
			sh.pinned[u] = true
			for i, v := range sh.fifo {
				if v == u {
					sh.fifo = append(sh.fifo[:i], sh.fifo[i+1:]...)
					break
				}
			}
		}
		sh.mu.Unlock()
	}
}

// Dist returns the stored distance between u and v: the quantized true
// distance if v is within reach of u, +Inf otherwise.
func (t *BoundedTable) Dist(u, v graph.NodeID) float64 {
	return t.SparseRow(u).At(v)
}

// Row returns u's row in dense form, materialized from the sparse row on
// first use and kept for the table's lifetime (the DistanceSource row
// contract promises the slice stays valid and immutable). Out-of-ball
// nodes hold +Inf. Bulk consumers that can handle sparsity should prefer
// SparseRow — each dense row costs 8·n bytes forever.
func (t *BoundedTable) Row(u graph.NodeID) []float64 {
	t.denseMu.Lock()
	if d, ok := t.dense[u]; ok {
		t.denseMu.Unlock()
		return d
	}
	t.denseMu.Unlock()
	sr := t.SparseRow(u)
	d := newDistSlice(t.n)
	for i, id := range sr.ids {
		d[id] = float64(sr.dist[i])
	}
	t.denseMu.Lock()
	if prev, ok := t.dense[u]; ok {
		// Another goroutine won the materialization race; use its row so
		// repeated calls keep returning the same slice.
		t.denseMu.Unlock()
		return prev
	}
	t.dense[u] = d
	t.denseMu.Unlock()
	b := int64(t.n) * 8
	t.rowBytes.Add(b)
	rowBytesResident.Add(b)
	return d
}

// SparseRow returns u's sparse bounded row, computing and caching it on
// first use. The row is immutable once published and stays valid after
// eviction, exactly like LazyTable rows.
func (t *BoundedTable) SparseRow(u graph.NodeID) SparseRow {
	sh := t.shard(u)
	sh.mu.Lock()
	e, ok := sh.rows[u]
	if ok {
		sh.mu.Unlock()
		t.hits.Add(1)
		telemetry.Global().RowCacheHits.Add(1)
	} else {
		e = &boundedRow{}
		sh.rows[u] = e
		if sh.pinned == nil || !sh.pinned[u] {
			sh.fifo = append(sh.fifo, u)
			for sh.cap >= 0 && len(sh.fifo) > sh.cap {
				victim := sh.fifo[0]
				sh.fifo = append(sh.fifo[:0], sh.fifo[1:]...)
				ve := sh.rows[victim]
				delete(sh.rows, victim)
				if b := ve.bytes.Load(); b != 0 {
					t.rowBytes.Add(-b)
					rowBytesResident.Add(-b)
				}
				t.evictions.Add(1)
				telemetry.Global().RowCacheEvictions.Add(1)
			}
		}
		sh.mu.Unlock()
		t.misses.Add(1)
		telemetry.Global().RowCacheMisses.Add(1)
	}
	e.once.Do(func() {
		t.computes.Add(1)
		telemetry.Global().RowCacheComputes.Add(1)
		if obs.Enabled() {
			start := time.Now()
			e.row = t.balls.sparseRow(u, t.reach)
			obs.ObserveRowCompute(time.Since(start))
		} else {
			e.row = t.balls.sparseRow(u, t.reach)
		}
		b := e.row.Bytes()
		e.bytes.Store(b)
		t.rowBytes.Add(b)
		rowBytesResident.Add(b)
	})
	return e.row
}

// Stats snapshots the table's counters. Consistent at a quiescent point,
// which is how tests use it.
func (t *BoundedTable) Stats() BoundedStats {
	s := BoundedStats{
		Hits:      t.hits.Load(),
		Misses:    t.misses.Load(),
		Computes:  t.computes.Load(),
		Evictions: t.evictions.Load(),
		RowBytes:  t.rowBytes.Load(),
	}
	for i := range t.shards {
		sh := &t.shards[i]
		sh.mu.Lock()
		s.Cached += len(sh.rows)
		sh.mu.Unlock()
	}
	t.denseMu.Lock()
	s.DenseRows = len(t.dense)
	t.denseMu.Unlock()
	return s
}

func (t *BoundedTable) shard(u graph.NodeID) *boundedShard {
	return &t.shards[int(u)%len(t.shards)]
}
