package shortestpath

import (
	"math"
	"math/bits"
	"slices"
	"sync"

	"msc/internal/graph"
	"msc/internal/indexheap"
	"msc/internal/telemetry"
)

// ballFinder computes bounded-reach Dijkstra balls over one graph on pooled
// scratch: the heap, a distance buffer kept +Inf-filled between runs, and
// the touched list each run resets. Warm runs allocate nothing but the
// caller's output. It is safe for concurrent use.
//
// A ball holds exactly the entries of the full Dijkstra row that are
// ≤ bound, bit for bit, ties at the bound included. Lengths are ≥ 0, so
// float addition is monotone (du + l ≥ du): a node's row entry is the
// smallest du + l over its neighbours u of smaller or equal entry. For an
// entry ≤ bound those neighbours are in the ball too, and the bounded run
// relaxes them from the same operands; it skips only relaxations above the
// bound, which set no entry ≤ bound. BoundedTable rows rest on that
// equality, and through them every bounded-backend reader of a ball.
type ballFinder struct {
	g    *graph.Graph
	pool sync.Pool // *ballScratch
}

type ballScratch struct {
	h       *indexheap.Heap
	dist    []float64
	touched []int32
}

// newBallFinder returns a ball finder over g. The graph must stay immutable
// while the finder is in use.
func newBallFinder(g *graph.Graph) *ballFinder {
	b := &ballFinder{g: g}
	b.pool.New = func() any {
		return &ballScratch{h: indexheap.New(g.N()), dist: newDistSlice(g.N())}
	}
	return b
}

// ball appends to ids and dist the nodes within bound of src, ascending by
// node id, with their exact shortest-path distances, and returns the
// extended slices, grown at most once each (so nil slices come back at the
// ball's length). A NaN bound explores the whole component (every
// `d > NaN` comparison is false), so the ball is then the full reachable
// row.
func (b *ballFinder) ball(src graph.NodeID, bound float64, ids []int32, dist []float64) ([]int32, []float64) {
	sc := b.pool.Get().(*ballScratch)
	in := sc.search(b.g, src, bound)
	ids, dist = slices.Grow(ids, len(in)), slices.Grow(dist, len(in))
	for _, v := range in {
		ids = append(ids, v)
		dist = append(dist, sc.dist[v])
	}
	sc.reset(in)
	b.pool.Put(sc)
	return ids, dist
}

// search runs one bounded Dijkstra from src and returns the ids within
// bound in ascending order; sc.dist holds their distances until reset.
// Counter discipline matches dijkstraInto: one DijkstraRuns increment and
// one EdgeRelaxations flush per run, so per-run totals stay deterministic
// at every worker count.
func (sc *ballScratch) search(g *graph.Graph, src graph.NodeID, bound float64) []int32 {
	relaxed := int64(0)
	h, dist := sc.h, sc.dist
	touched := sc.touched[:0]
	dist[src] = 0
	touched = append(touched, int32(src))
	h.Push(int(src), 0)
	for h.Len() > 0 {
		u, du := h.Pop()
		for _, a := range g.Neighbors(graph.NodeID(u)) {
			if nd := du + a.Length; !(nd > bound) && nd < dist[a.To] {
				if math.IsInf(dist[a.To], 1) {
					touched = append(touched, int32(a.To))
				}
				dist[a.To] = nd
				relaxed++
				h.Push(int(a.To), nd)
			}
		}
	}
	// Compact the in-ball ids to the front of touched (only src can lie
	// beyond a negative bound), resetting the rest now; reset clears the
	// kept prefix once the caller has read it.
	in := touched[:0]
	for _, v := range touched {
		if dist[v] > bound {
			dist[v] = Inf
		} else {
			in = append(in, v)
		}
	}
	slices.Sort(in)
	sc.touched = touched
	c := telemetry.Global()
	c.DijkstraRuns.Add(1)
	c.EdgeRelaxations.Add(relaxed)
	return in
}

// reset restores the +Inf fill of the entries search left set.
func (sc *ballScratch) reset(in []int32) {
	for _, v := range in {
		sc.dist[v] = Inf
	}
	sc.touched = sc.touched[:0]
}

// Ball is a distance row truncated at a bound: the nodes within the bound
// of a source, ascending by id, with their distances. Every node absent
// from the ball reads as +Inf. The σ search keeps one per pair endpoint in
// place of an n-length row, and a BoundedTable stores one per row.
type Ball struct {
	IDs  []int32
	Dist []float64
}

// Len returns the number of in-ball entries.
func (b Ball) Len() int { return len(b.IDs) }

// Bytes returns the ball's payload size: 12 bytes per entry (int32 id +
// float64 distance), excluding slice headers.
func (b Ball) Bytes() int64 { return int64(len(b.IDs)) * 12 }

// At returns the stored distance to v, or +Inf if v is outside the ball.
func (b Ball) At(v graph.NodeID) float64 {
	lo, hi := 0, len(b.IDs)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if b.IDs[mid] < int32(v) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	if lo < len(b.IDs) && b.IDs[lo] == int32(v) {
		return b.Dist[lo]
	}
	return Inf
}

// BallSource serves the base-graph balls Overlay.DistBall composes. Ball(u)
// must hold exactly the entries of Row(u) that are ≤ the bound the caller
// passes to DistBall, bit for bit; callers must not modify it.
type BallSource interface {
	Ball(u graph.NodeID) Ball
}

// ReadBall returns u's ball at bound read from src, with Row(u)'s values
// bit for bit. A SparseSource serves its cached ball: the ball itself,
// uncopied, when bound ≥ its reach, else a copy of its entries ≤ bound.
// Any other source has Row(u) filtered, into slices allocated at the
// ball's exact length. Callers must not modify the result.
func ReadBall(src DistanceSource, u graph.NodeID, bound float64) Ball {
	if ss, ok := src.(SparseSource); ok {
		r := ss.SparseRow(u)
		if bound >= ss.Reach() {
			return r
		}
		k := 0
		for _, d := range r.Dist {
			if d <= bound {
				k++
			}
		}
		b := Ball{IDs: make([]int32, 0, k), Dist: make([]float64, 0, k)}
		for i, d := range r.Dist {
			if d <= bound {
				b.IDs = append(b.IDs, r.IDs[i])
				b.Dist = append(b.Dist, d)
			}
		}
		return b
	}
	row := src.Row(u)
	k := 0
	for _, d := range row {
		if d <= bound {
			k++
		}
	}
	b := Ball{IDs: make([]int32, 0, k), Dist: make([]float64, 0, k)}
	for x, d := range row {
		if d <= bound {
			b.IDs = append(b.IDs, int32(x))
			b.Dist = append(b.Dist, d)
		}
	}
	return b
}

// Merger is the scratch of the ball merge: a node-indexed distance array
// gated by a two-level bitmap, one bit per node and one summary bit per
// bitmap word. Between merges every bit is clear, so a merge touches only
// the words its entries land in. A Merger serves one merge at a time;
// Mergers hands them out to concurrent callers.
type Merger struct {
	dist    []float64 // dist[v] is live while v's bit is set
	bits    []uint64  // bit v%64 of bits[v/64] marks node v
	summary []uint64  // bit w%64 of summary[w/64] marks a non-zero bits[w]
}

// newMerger returns a merger for node ids 0..n-1.
func newMerger(n int) *Merger {
	words := (n + 63) / 64
	return &Merger{dist: make([]float64, n), bits: make([]uint64, words), summary: make([]uint64, (words+63)/64)}
}

// AppendMinMerge appends to dst the entrywise minimum of the shifted balls
// shift[i] + balls[i], ascending by id, keeping only entries ≤ bound. The
// sums and the minimum are the ones a dense scatter-min of the same rows
// computes, so every kept entry equals the dense value bit for bit: balls
// are applied in index order with a strict <, so of equal sums (±0
// included) the lowest ball index keeps its representative. improved
// reports whether some kept entry is strictly below balls[0]'s entry at
// that id (+Inf when absent): false means the merge left shift[0] +
// balls[0] unchanged. Ball ids must be ascending and below the merger's
// node count, and no sum may be NaN.
//
// The entries are scattered into the merger and the output is read back by
// walking the set summary bits, which clears them: O(Σ len + n/4096 +
// touched words). dst grows at most once, by the output's exact length.
func (m *Merger) AppendMinMerge(dst Ball, bound float64, shift []float64, balls []Ball) (out Ball, improved bool) {
	dist, set := m.dist, m.bits
	cnt := 0
	for i, b := range balls {
		s, bd := shift[i], b.Dist[:len(b.IDs)]
		for c, id := range b.IDs {
			// An entry above the bound is never the kept minimum of an
			// id that is kept, so it is skipped before it is scattered.
			d := s + bd[c]
			if !(d <= bound) {
				continue
			}
			w, bit := id>>6, uint64(1)<<(id&63)
			if sw := set[w]; sw&bit == 0 {
				if sw == 0 {
					m.summary[w>>6] |= 1 << (w & 63)
				}
				set[w] = sw | bit
				dist[id] = d
				cnt++
				// A later ball's first entry at an id beats balls[0]'s
				// +Inf (or its entry above the bound); a lower sum beats
				// the running minimum, which is at most balls[0]'s entry.
				// Either way the id is kept, at ≤ d ≤ bound.
				if i > 0 && d < Inf {
					improved = true
				}
			} else if d < dist[id] {
				dist[id] = d
				improved = true
			}
		}
	}
	k := len(dst.IDs)
	ids, ds := slices.Grow(dst.IDs, cnt)[:k+cnt], slices.Grow(dst.Dist, cnt)[:k+cnt]
	for si, sw := range m.summary {
		if sw == 0 {
			continue
		}
		m.summary[si] = 0
		for ; sw != 0; sw &= sw - 1 {
			w := si<<6 | bits.TrailingZeros64(sw)
			for bw := set[w]; bw != 0; bw &= bw - 1 {
				id := w<<6 | bits.TrailingZeros64(bw)
				ids[k], ds[k] = int32(id), dist[id]
				k++
			}
			set[w] = 0
		}
	}
	return Ball{IDs: ids, Dist: ds}, improved
}

// Mergers is a free list of Mergers over one node count. Get hands out a
// kept merger or makes one, and Put keeps it for the next caller, so a
// process allocates one merger per merge that ran at the same time. The
// list holds its mergers across garbage collections, which a sync.Pool
// would drop together with their n-length arrays. Safe for concurrent use.
type Mergers struct {
	n    int
	mu   sync.Mutex
	free []*Merger
}

// NewMergers returns an empty free list of mergers for node ids 0..n-1.
func NewMergers(n int) *Mergers { return &Mergers{n: n} }

// Get returns a merger for the caller's exclusive use until Put.
func (p *Mergers) Get() *Merger {
	p.mu.Lock()
	defer p.mu.Unlock()
	if k := len(p.free); k > 0 {
		m := p.free[k-1]
		p.free = p.free[:k-1]
		return m
	}
	return newMerger(p.n)
}

// Put returns m, with every bit clear (as AppendMinMerge leaves it), to the
// list.
func (p *Mergers) Put(m *Merger) {
	p.mu.Lock()
	p.free = append(p.free, m)
	p.mu.Unlock()
}
