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
// ≤ bound, bit for bit, ties at the bound included: the bounded run
// performs the same heap operations as the full one until it first pops a
// key above the bound, and every node within the bound is settled before
// that pop from the same operands (du + a.Length). BoundedTable rows and
// the μ/ν coverage build both rest on that equality.
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
// extended slices. A NaN bound explores the whole component (every
// `d > NaN` comparison is false), so the ball is then the full reachable
// row.
func (b *ballFinder) ball(src graph.NodeID, bound float64, ids []int32, dist []float64) ([]int32, []float64) {
	sc := b.pool.Get().(*ballScratch)
	in := sc.search(b.g, src, bound)
	for _, v := range in {
		ids = append(ids, v)
		dist = append(dist, sc.dist[v])
	}
	sc.reset(in)
	b.pool.Put(sc)
	return ids, dist
}

// sparseRow packs src's ball into a SparseRow, quantizing distances to
// float32. The id slice is allocated at the ball's exact length.
func (b *ballFinder) sparseRow(src graph.NodeID, bound float64) SparseRow {
	sc := b.pool.Get().(*ballScratch)
	in := sc.search(b.g, src, bound)
	r := SparseRow{ids: make([]int32, len(in)), dist: make([]float32, len(in))}
	copy(r.ids, in)
	for i, v := range in {
		r.dist[i] = float32(sc.dist[v])
	}
	sc.reset(in)
	b.pool.Put(sc)
	return r
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
		if du > bound {
			// Every remaining tentative distance is ≥ du > bound: heap
			// keys pop in non-decreasing order, and dist[] mirrors the
			// current keys. The filter below drops them, so only the heap
			// bookkeeping needs resetting.
			h.Reset()
			break
		}
		for _, a := range g.Neighbors(graph.NodeID(u)) {
			if nd := du + a.Length; nd < dist[a.To] {
				if math.IsInf(dist[a.To], 1) {
					touched = append(touched, int32(a.To))
				}
				dist[a.To] = nd
				relaxed++
				h.Push(int(a.To), nd)
			}
		}
	}
	// Compact the in-ball ids to the front of touched, resetting the rest
	// now; reset clears the kept prefix once the caller has read it.
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
