// Package maxcover solves the (weighted) maximum coverage problem with the
// classic greedy algorithm.
//
// Maximum coverage is the combinatorial core of two pieces of the paper:
// the MSC-CN special case reduces to it exactly (§IV, Theorem 1), and the
// bounds μ and ν are coverage functions (§V-B). Greedy achieves the
// optimal (1 − 1/e) approximation ratio for this problem.
//
// A family comes in one of two shapes, both derived from d_t-balls and
// neither materializing one set per candidate:
//
//   - an explicit sparse family (μ, MSC-CN) storing only the non-empty
//     sets, keyed by set id;
//   - a factored pair-union family (ν) over T balls, where set (a, b)
//     covers ball a ∪ ball b.
//
// Exactness. Gains are summed in whatever order the shape makes cheap
// (g[a] plus the part of ball b outside ball a, say), not in ascending
// element order. That is exact, not approximately equal, because every
// weight the callers pass is a multiple of ½ (μ weights are integer pair
// importances, ν weights are half-sums of them): every partial sum below
// 2⁵² is a float64 without rounding, so all summation orders agree to
// the bit and gains compare exactly, ties included.
package maxcover

import (
	"slices"
	"sort"

	"msc/internal/bitset"
)

// Lists is a compressed list of int32 element lists: list i is
// Elems[Start[i]:Start[i+1]]. The zero value is empty.
type Lists struct {
	Start []int32
	Elems []int32
}

// Len returns the number of lists.
func (l *Lists) Len() int {
	if len(l.Start) == 0 {
		return 0
	}
	return len(l.Start) - 1
}

// At returns list i.
func (l *Lists) At(i int) []int32 { return l.Elems[l.Start[i]:l.Start[i+1]] }

// Append adds a list at the end.
func (l *Lists) Append(elems []int32) {
	if len(l.Start) == 0 {
		l.Start = append(l.Start, 0)
	}
	l.Elems = append(l.Elems, elems...)
	l.Start = append(l.Start, int32(len(l.Elems)))
}

// Sparse is an explicit family over set ids [0, N) that stores only the
// non-empty sets: Sets.At(j) is the set with id IDs[j], IDs ascending.
// Every other id is the empty set.
type Sparse struct {
	N    int
	IDs  []int
	Sets Lists
}

// Problem is a weighted maximum coverage instance: a universe of elements
// 0..Universe-1 with non-negative weights, and a family of candidate sets
// in one of the two shapes. Select at most K sets maximizing the total
// weight of covered elements. Exactly one of Sparse and Pairs is set.
// Every list must be sorted ascending without repeats.
type Problem struct {
	// Weights holds one non-negative weight per universe element. A nil
	// Weights means all elements weigh 1 (unweighted coverage).
	Weights []float64
	// Universe is the element count.
	Universe int
	// Sparse is the explicit family.
	Sparse *Sparse
	// Pairs is the factored pair-union family over T = Pairs.Len() balls:
	// set (a, b), a < b, has the row-major triangular id
	// a·T − a(a+1)/2 + (b − a − 1) and covers Pairs.At(a) ∪ Pairs.At(b).
	Pairs *Lists
	// Initial holds elements covered before any selection (e.g. social
	// pairs already satisfied by the raw network). Marginal gains are
	// computed against it. May be nil.
	Initial *bitset.Set
	// K is the selection budget.
	K int
}

// Result reports a greedy run.
type Result struct {
	// Chosen holds the set ids in selection order. It may be shorter than
	// K when coverage saturates early (remaining marginal gains are all
	// zero).
	Chosen []int
	// Covered is the union of the chosen sets and Problem.Initial.
	Covered *bitset.Set
	// Value is the total weight gained by the selection, excluding
	// elements already covered by Problem.Initial.
	Value float64
}

// NumSets returns the size of the set-id space.
func (p Problem) NumSets() int {
	if p.Sparse != nil {
		return p.Sparse.N
	}
	t := p.Pairs.Len()
	return t * (t - 1) / 2
}

// Covered returns Initial ∪ the sets of sel as a fresh bitset.
func (p Problem) Covered(sel []int) *bitset.Set {
	c := newCover(p)
	for _, id := range sel {
		c.accept(p.set(id))
	}
	return c.covered
}

// set returns set id as up to two sorted lists whose union it is.
func (p Problem) set(id int) (x, y []int32) {
	if p.Sparse != nil {
		if j, ok := slices.BinarySearch(p.Sparse.IDs, id); ok {
			return p.Sparse.Sets.At(j), nil
		}
		return nil, nil
	}
	a, b := PairOf(p.Pairs.Len(), id)
	return p.Pairs.At(a), p.Pairs.At(b)
}

// Greedy runs the greedy algorithm: at each round select the set with the
// maximum marginal covered weight. Ties break toward the lowest set id,
// making the run deterministic. Zero-gain selections are skipped, so the
// result may use fewer than K sets.
func Greedy(p Problem) Result {
	if p.Sparse != nil {
		return sparseGreedy(p)
	}
	return pairGreedy(p)
}

// sparseGreedy rescans every stored set each round. Ids ascend, so the
// strict comparison keeps the lowest id among equal gains; absent sets
// are empty and never win.
func sparseGreedy(p Problem) Result {
	c := newCover(p)
	res := Result{Covered: c.covered}
	sp := p.Sparse
	for len(res.Chosen) < p.K {
		bestJ, bestGain := -1, 0.0
		for j := range sp.IDs {
			if g := c.gain(sp.Sets.At(j), nil); g > bestGain {
				bestJ, bestGain = j, g
			}
		}
		if bestJ < 0 {
			break
		}
		c.accept(sp.Sets.At(bestJ), nil)
		res.add(sp.IDs[bestJ], bestGain)
	}
	return res
}

// pairGreedy is the exact greedy over the pair-union family. Each round
// it computes every ball's uncovered weight g[v], walks the balls in
// descending g, and evaluates pair (a, b) exactly only while
// g[a] + g[b] — an upper bound on its gain — is not below the best gain
// found. Bounds equal to the best are still evaluated, so equal gains
// resolve to the lowest set id as in a full scan.
func pairGreedy(p Problem) Result {
	c := newCover(p)
	res := Result{Covered: c.covered}
	balls := p.Pairs
	t := balls.Len()
	if t < 2 {
		return res
	}
	g := make([]float64, t)
	order := make([]int32, t)
	// mark[e] == stamp flags the uncovered elements of the current ball a.
	mark := make([]int32, p.Universe)
	stamp := int32(0)
	for len(res.Chosen) < p.K {
		for v := range g {
			g[v] = c.gain(balls.At(v), nil)
			order[v] = int32(v)
		}
		slices.SortFunc(order, func(u, v int32) int {
			switch {
			case g[u] > g[v]:
				return -1
			case g[u] < g[v]:
				return 1
			}
			return int(u - v)
		})
		if g[order[0]] <= 0 {
			break
		}
		bestID, bestGain := -1, 0.0
		for i, a := range order[:t-1] {
			if g[a]+g[order[i+1]] < bestGain {
				break
			}
			stamp++
			for _, e := range balls.At(int(a)) {
				if !c.covered.Contains(int(e)) {
					mark[e] = stamp
				}
			}
			for _, b := range order[i+1:] {
				if g[a]+g[b] < bestGain {
					break
				}
				gain := g[a]
				for _, e := range balls.At(int(b)) {
					if mark[e] != stamp && !c.covered.Contains(int(e)) {
						gain += c.weight(e)
					}
				}
				id := PairID(t, int(min(a, b)), int(max(a, b)))
				if gain > bestGain || (gain == bestGain && id < bestID) {
					bestID, bestGain = id, gain
				}
			}
		}
		c.accept(p.set(bestID))
		res.add(bestID, bestGain)
	}
	return res
}

func (r *Result) add(id int, gain float64) {
	r.Chosen = append(r.Chosen, id)
	r.Value += gain
}

// PairID returns the row-major triangular id of pair (a, b), a < b, over
// t nodes.
func PairID(t, a, b int) int { return a*t - a*(a+1)/2 + (b - a - 1) }

// PairOf inverts PairID. It panics when id is out of range.
func PairOf(t, id int) (a, b int) {
	if id < 0 || id >= t*(t-1)/2 {
		panic("maxcover: pair id out of range")
	}
	// a is the last row whose first id is <= id.
	a = sort.Search(t, func(r int) bool { return PairID(t, r, r+1) > id }) - 1
	return a, id - PairID(t, a, a+1) + a + 1
}

// Oracle adapts a coverage instance to the incremental marginal-gain shape
// internal/submodular's greedy drivers consume (structurally, without an
// import): Gain reports a set's marginal covered weight against the running
// cover, Accept commits the set. It powers the budgeted μ/ν sandwich arms,
// which run submodular.WeightedGreedy over coverage instances whose K no
// longer applies.
type Oracle struct {
	p Problem
	c cover
}

// NewOracle returns an oracle positioned at the instance's initial cover.
func NewOracle(p Problem) *Oracle { return &Oracle{p: p, c: newCover(p)} }

// Gain returns the marginal covered weight of set id.
func (o *Oracle) Gain(id int) float64 { return o.c.gain(o.p.set(id)) }

// Accept commits set id into the running cover.
func (o *Oracle) Accept(id int) { o.c.accept(o.p.set(id)) }

// cover is the running covered set with the problem's weights.
type cover struct {
	weights []float64
	covered *bitset.Set
}

func newCover(p Problem) cover {
	c := cover{weights: p.Weights, covered: bitset.New(p.Universe)}
	if p.Initial != nil {
		c.covered = p.Initial.Clone()
	}
	return c
}

func (c *cover) weight(e int32) float64 {
	if c.weights == nil {
		return 1
	}
	return c.weights[e]
}

// gain returns the uncovered weight of x ∪ y, merging the two sorted
// lists so shared elements count once.
func (c *cover) gain(x, y []int32) float64 {
	g := 0.0
	for len(x) > 0 || len(y) > 0 {
		var e int32
		switch {
		case len(y) == 0 || (len(x) > 0 && x[0] < y[0]):
			e, x = x[0], x[1:]
		case len(x) == 0 || y[0] < x[0]:
			e, y = y[0], y[1:]
		default:
			e, x, y = x[0], x[1:], y[1:]
		}
		if !c.covered.Contains(int(e)) {
			g += c.weight(e)
		}
	}
	return g
}

func (c *cover) accept(x, y []int32) {
	for _, e := range x {
		c.covered.Add(int(e))
	}
	for _, e := range y {
		c.covered.Add(int(e))
	}
}
