package maxcover

import (
	"container/heap"
	"testing"
	"testing/quick"

	"msc/internal/bitset"
	"msc/internal/xrand"
)

// ---------------------------------------------------------------------------
// Reference: the dense family, one bitset per set id, with the plain and
// CELF lazy greedy that ran on it before the sparse and pair-union shapes.

type denseProblem struct {
	weights []float64
	sets    []*bitset.Set
	initial *bitset.Set
	k       int
}

// dense expands p into one bitset per set id.
func dense(p Problem) denseProblem {
	d := denseProblem{weights: p.Weights, initial: p.Initial, k: p.K, sets: make([]*bitset.Set, p.NumSets())}
	for id := range d.sets {
		s := bitset.New(p.Universe)
		x, y := p.set(id)
		for _, e := range append(append([]int32(nil), x...), y...) {
			s.Add(int(e))
		}
		d.sets[id] = s
	}
	return d
}

func (p denseProblem) cover(n int) *bitset.Set {
	if p.initial != nil {
		return p.initial.Clone()
	}
	return bitset.New(n)
}

func denseMarginal(weights []float64, covered, s *bitset.Set) float64 {
	if weights == nil {
		return float64(covered.AndNotCount(s))
	}
	gain := 0.0
	s.ForEach(func(i int) {
		if !covered.Contains(i) {
			gain += weights[i]
		}
	})
	return gain
}

func densePlainGreedy(p denseProblem, n int) Result {
	covered := p.cover(n)
	res := Result{Covered: covered}
	for len(res.Chosen) < p.k {
		bestIdx, bestGain := -1, 0.0
		for i, s := range p.sets {
			if g := denseMarginal(p.weights, covered, s); g > bestGain {
				bestIdx, bestGain = i, g
			}
		}
		if bestIdx < 0 {
			break
		}
		p.sets[bestIdx].ForEach(covered.Add)
		res.add(bestIdx, bestGain)
	}
	return res
}

func denseLazyGreedy(p denseProblem, n int) Result {
	covered := p.cover(n)
	res := Result{Covered: covered}
	pq := make(lazyQueue, 0, len(p.sets))
	for i, s := range p.sets {
		if g := denseMarginal(p.weights, covered, s); g > 0 {
			pq = append(pq, lazyEntry{idx: i, gain: g})
		}
	}
	heap.Init(&pq)
	round := 0
	for len(res.Chosen) < p.k && pq.Len() > 0 {
		top := pq[0]
		if top.round == round {
			heap.Pop(&pq)
			p.sets[top.idx].ForEach(covered.Add)
			res.add(top.idx, top.gain)
			round++
			continue
		}
		top.gain = denseMarginal(p.weights, covered, p.sets[top.idx])
		top.round = round
		if top.gain <= 0 {
			heap.Pop(&pq)
			continue
		}
		pq[0] = top
		heap.Fix(&pq, 0)
	}
	return res
}

type lazyEntry struct {
	idx   int
	gain  float64
	round int
}

// lazyQueue is a max-heap on gain with ties broken toward lower set index.
type lazyQueue []lazyEntry

func (q lazyQueue) Len() int { return len(q) }
func (q lazyQueue) Less(i, j int) bool {
	if q[i].gain != q[j].gain {
		return q[i].gain > q[j].gain
	}
	return q[i].idx < q[j].idx
}
func (q lazyQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *lazyQueue) Push(x interface{}) { *q = append(*q, x.(lazyEntry)) }
func (q *lazyQueue) Pop() interface{} {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// checkAgainstReference runs Greedy, the dense lazy and plain greedy, and
// an Oracle-driven plain greedy on p, and fails unless all four agree on
// the selection, value and cover.
func checkAgainstReference(t *testing.T, name string, p Problem) Result {
	t.Helper()
	got := Greedy(p)
	d := dense(p)
	for _, ref := range []struct {
		name string
		res  Result
	}{
		{"dense lazy", denseLazyGreedy(d, p.Universe)},
		{"dense plain", densePlainGreedy(d, p.Universe)},
		{"oracle", oracleGreedy(p)},
	} {
		if !equalInts(got.Chosen, ref.res.Chosen) || got.Value != ref.res.Value || got.Covered.String() != ref.res.Covered.String() {
			t.Fatalf("%s: Greedy chose %v value %v, %s chose %v value %v",
				name, got.Chosen, got.Value, ref.name, ref.res.Chosen, ref.res.Value)
		}
	}
	return got
}

// oracleGreedy is plain greedy driven through Oracle.Gain/Accept.
func oracleGreedy(p Problem) Result {
	o := NewOracle(p)
	var res Result
	for len(res.Chosen) < p.K {
		bestIdx, bestGain := -1, 0.0
		for id := 0; id < p.NumSets(); id++ {
			if g := o.Gain(id); g > bestGain {
				bestIdx, bestGain = id, g
			}
		}
		if bestIdx < 0 {
			break
		}
		o.Accept(bestIdx)
		res.add(bestIdx, bestGain)
	}
	res.Covered = p.Covered(res.Chosen)
	return res
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// sparse builds a sparse family with one set per listed family (ids
// 0..len-1); empty families are left out of the stored sets.
func sparse(universe int, families ...[]int32) Problem {
	sp := &Sparse{N: len(families)}
	for id, f := range families {
		if len(f) > 0 {
			sp.IDs = append(sp.IDs, id)
			sp.Sets.Append(f)
		}
	}
	return Problem{Universe: universe, Sparse: sp}
}

// pairUnion builds a pair-union family over the given balls.
func pairUnion(universe int, balls ...[]int32) Problem {
	l := &Lists{}
	for _, b := range balls {
		l.Append(b)
	}
	return Problem{Universe: universe, Pairs: l}
}

// ---------------------------------------------------------------------------

func TestGreedyPicksCoverOptimally(t *testing.T) {
	// Classic instance: greedy must take the big set then patch the rest.
	p := sparse(6,
		[]int32{0, 1, 2, 3}, // big
		[]int32{0, 1},
		[]int32{4, 5},
		[]int32{3, 4},
	)
	p.K = 2
	res := Greedy(p)
	if res.Value != 6 {
		t.Fatalf("value = %v, want 6", res.Value)
	}
	if len(res.Chosen) != 2 || res.Chosen[0] != 0 || res.Chosen[1] != 2 {
		t.Fatalf("chosen = %v", res.Chosen)
	}
	if res.Covered.Count() != 6 {
		t.Fatalf("covered = %d", res.Covered.Count())
	}
}

func TestGreedyStopsAtZeroGain(t *testing.T) {
	p := sparse(3, []int32{0, 1, 2}, []int32{0}, []int32{1})
	p.K = 3
	if res := Greedy(p); len(res.Chosen) != 1 {
		t.Fatalf("chosen = %v, want single saturating set", res.Chosen)
	}
}

func TestWeightedGreedy(t *testing.T) {
	// Element 2 is heavy; a small set covering it must win.
	p := sparse(3, []int32{0, 1}, []int32{2})
	p.Weights = []float64{1, 1, 10}
	p.K = 1
	res := Greedy(p)
	if len(res.Chosen) != 1 || res.Chosen[0] != 1 {
		t.Fatalf("chosen = %v", res.Chosen)
	}
	if res.Value != 10 {
		t.Fatalf("value = %v", res.Value)
	}
}

func TestInitialCoverage(t *testing.T) {
	initial := bitset.FromIndices(4, []int{0, 1})
	p := sparse(4, []int32{0, 1}, []int32{2})
	p.Initial = initial
	p.K = 2
	res := Greedy(p)
	// Set 0 has zero marginal gain (already covered); set 1 gains 1.
	if len(res.Chosen) != 1 || res.Chosen[0] != 1 {
		t.Fatalf("chosen = %v", res.Chosen)
	}
	if res.Value != 1 {
		t.Fatalf("value = %v", res.Value)
	}
	if res.Covered.Count() != 3 {
		t.Fatalf("covered = %d (initial ∪ chosen)", res.Covered.Count())
	}
	// The caller's Initial set must not be mutated, by Greedy or by the
	// pair-union shape.
	q := pairUnion(4, []int32{0, 1}, []int32{2}, nil)
	q.Initial = initial
	q.K = 2
	checkAgainstReference(t, "pair-union initial", q)
	if initial.Count() != 2 {
		t.Fatal("Initial mutated")
	}
}

func TestTieBreakLowestIndex(t *testing.T) {
	p := sparse(2, []int32{0}, []int32{1}, []int32{0, 1})
	p.K = 1
	if res := Greedy(p); res.Chosen[0] != 2 {
		t.Fatalf("chosen = %v (set 2 has gain 2)", res.Chosen)
	}
	p2 := sparse(2, []int32{0}, []int32{1})
	p2.K = 1
	if got := Greedy(p2).Chosen[0]; got != 0 {
		t.Fatalf("tie broke to %d, want 0", got)
	}
	// Pair-union: pairs (0,1), (0,2), (1,2) all gain 1; id 0 wins.
	p3 := pairUnion(1, []int32{0}, []int32{0}, []int32{0})
	p3.K = 1
	if got := checkAgainstReference(t, "pair tie", p3).Chosen; len(got) != 1 || got[0] != 0 {
		t.Fatalf("pair tie broke to %v, want [0]", got)
	}
}

func TestEmptyProblem(t *testing.T) {
	res := Greedy(Problem{K: 3, Sparse: &Sparse{}})
	if len(res.Chosen) != 0 || res.Value != 0 {
		t.Fatalf("empty problem result: %+v", res)
	}
	res = Greedy(Problem{K: 3, Weights: []float64{1, 2}, Universe: 2, Pairs: &Lists{}})
	if len(res.Chosen) != 0 {
		t.Fatalf("pair-union empty problem chose %v", res.Chosen)
	}
	// One ball is no pair at all.
	one := pairUnion(2, []int32{0, 1})
	one.K = 3
	if res = Greedy(one); len(res.Chosen) != 0 {
		t.Fatalf("one-ball problem chose %v", res.Chosen)
	}
}

// randomLists draws count sorted lists over [0, universe), each element
// present with probability density.
func randomLists(r *xrand.Rand, count, universe int, density float64) [][]int32 {
	out := make([][]int32, count)
	for i := range out {
		for e := 0; e < universe; e++ {
			if r.Bernoulli(density) {
				out[i] = append(out[i], int32(e))
			}
		}
	}
	return out
}

// halfWeights draws weights that are multiples of ½, as the ν node
// weights are; nil (unit weights) half of the time.
func halfWeights(r *xrand.Rand, universe int) []float64 {
	if r.Bernoulli(0.5) {
		return nil
	}
	w := make([]float64, universe)
	for i := range w {
		w[i] = float64(1+r.Intn(8)) / 2
	}
	return w
}

// Property: Greedy on both family shapes returns exactly the dense
// reference's selection — the CELF lazy greedy and the plain greedy that
// ran on one bitset per set id — on random instances with weights in ½ℤ.
func TestQuickLazyMatchesPlain(t *testing.T) {
	rng := xrand.New(77)
	f := func(seed int64) bool {
		r := xrand.New(seed)
		universe := 5 + r.Intn(60)
		var p Problem
		if r.Bernoulli(0.5) {
			p = sparse(universe, randomLists(r, 1+r.Intn(40), universe, 0.2*r.Float64())...)
		} else {
			p = pairUnion(universe, randomLists(r, 2+r.Intn(12), universe, 0.2*r.Float64())...)
		}
		p.Weights = halfWeights(r, universe)
		p.K = 1 + r.Intn(8)
		if r.Bernoulli(0.3) {
			p.Initial = bitset.New(universe)
			for e := 0; e < universe; e++ {
				if r.Bernoulli(0.1) {
					p.Initial.Add(e)
				}
			}
		}
		checkAgainstReference(t, "random", p)
		return true
	}
	// Drive seeds from a fixed stream for reproducibility.
	for i := 0; i < 150; i++ {
		f(rng.Int63())
	}
	// And a few from testing/quick's own generator.
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

// Property: greedy achieves ≥ (1 − 1/e) of the exhaustive optimum.
func TestQuickGreedyApproximation(t *testing.T) {
	rng := xrand.New(88)
	for trial := 0; trial < 60; trial++ {
		universe := 4 + rng.Intn(10)
		p := sparse(universe, randomLists(rng, 2+rng.Intn(8), universe, 0.3)...)
		p.K = 1 + rng.Intn(3)
		res := Greedy(p)
		opt := exhaustiveOpt(p)
		if res.Value < 0.632*opt-1e-9 {
			t.Fatalf("trial %d: greedy %v < 0.632 × opt %v", trial, res.Value, opt)
		}
	}
}

func exhaustiveOpt(p Problem) float64 {
	best := 0.0
	n := p.NumSets()
	var rec func(start int, chosen []int)
	rec = func(start int, chosen []int) {
		if len(chosen) > 0 {
			if v := float64(p.Covered(chosen).Count()); v > best {
				best = v
			}
		}
		if len(chosen) == p.K {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(chosen, i))
		}
	}
	rec(0, nil)
	return best
}

// ---------------------------------------------------------------------------
// Edge cases of the pruned pair-union greedy, each against the reference.

// TestPairGreedyGridTies runs the pair-union greedy on the d-balls of a
// uniform-length grid: interior balls have equal size, so many g[v] tie
// and many pairs tie on gain, and only the lowest-id tie-break decides.
func TestPairGreedyGridTies(t *testing.T) {
	const side = 7
	for _, radius := range []int{1, 2} {
		for _, weights := range [][]float64{nil, halfGrid(side * side)} {
			var balls [][]int32
			for v := 0; v < side*side; v++ {
				var ball []int32
				for x := 0; x < side*side; x++ {
					dx, dy := v%side-x%side, v/side-x/side
					if abs(dx)+abs(dy) <= radius {
						ball = append(ball, int32(x))
					}
				}
				balls = append(balls, ball)
			}
			p := pairUnion(side*side, balls...)
			p.Weights = weights
			p.K = 12
			if res := checkAgainstReference(t, "grid", p); len(res.Chosen) < 3 {
				t.Fatalf("radius %d: only %d rounds ran", radius, len(res.Chosen))
			}
		}
	}
}

// halfGrid is a constant ½ weight per element: ties survive weighting.
func halfGrid(n int) []float64 {
	w := make([]float64, n)
	for i := range w {
		w[i] = 0.5
	}
	return w
}

func abs(x int) int {
	if x < 0 {
		return -x
	}
	return x
}

// TestPairGreedyEmptyBallPartner: the best pick pairs the one large ball
// with a node whose ball is empty, and the lowest id among those partners
// wins.
func TestPairGreedyEmptyBallPartner(t *testing.T) {
	p := pairUnion(6, []int32{0}, nil, nil, []int32{0, 1, 2, 3, 4}, nil, []int32{0, 1})
	p.K = 1
	res := checkAgainstReference(t, "empty partner", p)
	// Ball 3 pairs best with ball 0 ({0} ⊂ ball 3): (0, 3) has id 2 and
	// gains 5, as does (1, 3) with id 6; the lower id wins.
	if !equalInts(res.Chosen, []int{2}) || res.Value != 5 {
		t.Fatalf("chose %v value %v, want [2] value 5", res.Chosen, res.Value)
	}
	// A distinct element in ball 0 makes (0, 3) strictly best; it covers
	// everything, so the second round finds no gain.
	p = pairUnion(6, []int32{5}, nil, nil, []int32{0, 1, 2, 3, 4}, nil, nil)
	p.K = 2
	res = checkAgainstReference(t, "empty partner distinct", p)
	if !equalInts(res.Chosen, []int{2}) || res.Value != 6 {
		t.Fatalf("chose %v value %v, want [2] value 6", res.Chosen, res.Value)
	}
}

// TestPairGreedyEarlyStop: k exceeds the number of picks with positive
// gain, so the run stops early.
func TestPairGreedyEarlyStop(t *testing.T) {
	p := pairUnion(4, []int32{0, 1}, []int32{2}, nil, []int32{3}, nil)
	p.K = 8
	res := checkAgainstReference(t, "early stop", p)
	if len(res.Chosen) != 2 || res.Value != 4 {
		t.Fatalf("chose %v value %v, want two picks covering 4", res.Chosen, res.Value)
	}
}

// TestPairGreedyTwoNodes: a 2-node universe has exactly one candidate.
func TestPairGreedyTwoNodes(t *testing.T) {
	for _, balls := range [][][]int32{{{0}, {1}}, {nil, {1}}, {nil, nil}} {
		p := pairUnion(2, balls...)
		p.K = 3
		res := checkAgainstReference(t, "two nodes", p)
		if len(balls[0])+len(balls[1]) > 0 && !equalInts(res.Chosen, []int{0}) {
			t.Fatalf("balls %v: chose %v, want [0]", balls, res.Chosen)
		}
	}
}

// TestPairIDRoundTrip pins PairOf as the inverse of PairID.
func TestPairIDRoundTrip(t *testing.T) {
	for _, n := range []int{2, 3, 7, 40} {
		id := 0
		for a := 0; a < n; a++ {
			for b := a + 1; b < n; b++ {
				if got := PairID(n, a, b); got != id {
					t.Fatalf("PairID(%d, %d, %d) = %d, want %d", n, a, b, got, id)
				}
				if ga, gb := PairOf(n, id); ga != a || gb != b {
					t.Fatalf("PairOf(%d, %d) = (%d, %d), want (%d, %d)", n, id, ga, gb, a, b)
				}
				id++
			}
		}
	}
}

// TestOrderFreeSummationExact pins the premise the package comment states:
// sums of multiples of ½ (μ weights are integers, ν weights half-sums of
// them) are exact in float64, so every summation order gives the same
// bits. Weights off that grid do not have the property — which is why
// the shapes may only be fed ½ℤ weights.
func TestOrderFreeSummationExact(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 200; trial++ {
		w := make([]float64, 1+rng.Intn(300))
		for i := range w {
			w[i] = float64(rng.Intn(1<<20)) / 2
		}
		ref := 0.0
		for _, x := range w {
			ref += x
		}
		perm := rng.Perm(len(w))
		got := 0.0
		for _, i := range perm {
			got += w[i]
		}
		if got != ref {
			t.Fatalf("trial %d: ½ℤ sum depends on order: %v vs %v", trial, got, ref)
		}
	}
	a, b, c := 0.1, 0.2, 0.3 // variables: constant arithmetic would be exact
	if (a+b)+c == a+(b+c) {
		t.Fatal("off-grid weights summed exactly; the test no longer shows why ½ℤ matters")
	}
}
