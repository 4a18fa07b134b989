package shortestpath

import (
	"sync"
	"sync/atomic"
	"time"

	"msc/internal/graph"
	"msc/internal/obs"
	"msc/internal/telemetry"
)

// memoShards is a Memo's lock shard count: enough to keep GOMAXPROCS-wide
// readers from serializing on one lock.
const memoShards = 16

// Memo is a concurrency-safe once-per-node cache. Get fills a node's entry
// at most once, and every caller asking for that node sees the one value;
// entries are never dropped. The lock, sharded by node id, is held only to
// find or create an entry: the fill runs outside it, so concurrent callers
// of one node wait on that entry alone and callers of other nodes proceed.
type Memo[V any] struct {
	fill   func(graph.NodeID) V
	shards [memoShards]memoShard[V]
}

type memoShard[V any] struct {
	mu sync.Mutex
	m  map[graph.NodeID]*memoEntry[V]
}

// memoEntry is one cached value. The Once both runs the fill exactly once
// and publishes v: every reader goes through Do, which gives the read a
// happens-after edge on the write.
type memoEntry[V any] struct {
	once sync.Once
	v    V
}

// NewMemo returns an empty memo whose entries fill computes.
func NewMemo[V any](fill func(graph.NodeID) V) *Memo[V] {
	return &Memo[V]{fill: fill}
}

// Get returns u's value, filling it on first use. hit reports whether u's
// entry already existed.
func (m *Memo[V]) Get(u graph.NodeID) (v V, hit bool) {
	sh := &m.shards[uint(u)%memoShards]
	sh.mu.Lock()
	e, hit := sh.m[u]
	if !hit {
		if sh.m == nil {
			sh.m = make(map[graph.NodeID]*memoEntry[V])
		}
		e = new(memoEntry[V])
		sh.m[u] = e
	}
	sh.mu.Unlock()
	e.once.Do(func() { e.v = m.fill(u) })
	return e.v, hit
}

// Len returns the number of entries held. Exact at a quiescent point.
func (m *Memo[V]) Len() int {
	n := 0
	for i := range m.shards {
		sh := &m.shards[i]
		sh.mu.Lock()
		n += len(sh.m)
		sh.mu.Unlock()
	}
	return n
}

// rowCache is the row store of LazyTable and BoundedTable: a Memo whose
// lookups and fills feed the table's counters, the process-wide row-cache
// telemetry, the row-compute histogram and the resident-bytes gauge.
type rowCache[V any] struct {
	memo                   *Memo[V]
	hits, misses, computes atomic.Int64
	bytes                  atomic.Int64
}

// newRowCache returns a row cache whose rows compute builds; size reports
// a row's payload bytes.
func newRowCache[V any](compute func(graph.NodeID) V, size func(V) int64) *rowCache[V] {
	c := &rowCache[V]{}
	c.memo = NewMemo(func(u graph.NodeID) V {
		c.computes.Add(1)
		telemetry.Global().RowCacheComputes.Add(1)
		var row V
		if obs.Enabled() {
			start := time.Now()
			row = compute(u)
			obs.ObserveRowCompute(time.Since(start))
		} else {
			row = compute(u)
		}
		c.addBytes(size(row))
		return row
	})
	return c
}

// get returns u's row, computing it on first use.
func (c *rowCache[V]) get(u graph.NodeID) V {
	row, hit := c.memo.Get(u)
	if hit {
		c.hits.Add(1)
		telemetry.Global().RowCacheHits.Add(1)
	} else {
		c.misses.Add(1)
		telemetry.Global().RowCacheMisses.Add(1)
	}
	return row
}

// addBytes counts b more resident payload bytes against the cache and the
// process gauge.
func (c *rowCache[V]) addBytes(b int64) {
	c.bytes.Add(b)
	rowBytesResident.Add(b)
}
