package shortestpath

import (
	"math"
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
// bound, which set no entry ≤ bound. BoundedTable rows, the μ/ν coverage
// build and the common-node coverage sets rest on that equality.
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

// AppendMinMerge appends to dst the entrywise minimum of the shifted balls
// shift[i] + balls[i], ascending by id, keeping only entries ≤ bound. The
// sums and the minimum are the ones a dense scatter-min of the same rows
// computes, so every kept entry equals the dense value bit for bit.
// improved reports whether some kept entry is strictly below balls[0]'s
// entry at that id (+Inf when absent): false means the merge left
// shift[0] + balls[0] unchanged.
//
// Each output entry costs one pass over the cursors, so a merge is
// O(len(balls) · Σ len); callers merge a handful of balls at a time.
func AppendMinMerge(dst Ball, bound float64, shift []float64, balls []Ball) (out Ball, improved bool) {
	var curBuf [8]int
	var cur []int
	if len(balls) <= len(curBuf) {
		cur = curBuf[:len(balls)]
	} else {
		cur = make([]int, len(balls))
	}
	for {
		next, found := int32(0), false
		for i, b := range balls {
			if c := cur[i]; c < len(b.IDs) && (!found || b.IDs[c] < next) {
				next, found = b.IDs[c], true
			}
		}
		if !found {
			return dst, improved
		}
		best, base := Inf, Inf
		for i, b := range balls {
			if c := cur[i]; c < len(b.IDs) && b.IDs[c] == next {
				d := shift[i] + b.Dist[c]
				if i == 0 {
					base = d
				}
				if d < best {
					best = d
				}
				cur[i] = c + 1
			}
		}
		if best <= bound {
			dst.IDs = append(dst.IDs, next)
			dst.Dist = append(dst.Dist, best)
			if best < base {
				improved = true
			}
		}
	}
}
