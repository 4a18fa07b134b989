// Package submodular provides the budgeted greedy maximizer for monotone
// set functions, WeightedGreedy, plus the references the test suite checks
// the paper's structural claims against: exhaustive monotonicity and
// submodularity checkers (μ and ν are submodular, σ in general is not —
// §IV-B, §V-A, §V-B) and CELF lazy greedy, which returns the plain
// greedy's selection when the objective is submodular.
package submodular

import "container/heap"

// Value evaluates a set function on a selection of ground-set elements.
// Implementations must be deterministic and treat the selection as a set
// (order-insensitive).
type Value func(selection []int) float64

// Oracle is the incremental interface the greedy maximizers drive. It
// avoids recomputing the full objective from scratch at every probe.
type Oracle interface {
	// Gain returns f(S ∪ {e}) − f(S) for the oracle's current S.
	Gain(e int) float64
	// Accept commits element e into S.
	Accept(e int)
}

// WeightedGreedy selects elements from the ground set [0, n) under a
// knapsack budget: each element e has a positive price cost(e), and the
// selection's total price must stay within budget. Each round adds the
// affordable element maximizing the cost-benefit ratio gain/cost (ties
// toward the larger gain, then the smallest element), stopping when no
// affordable element has positive gain.
//
// The ratio greedy alone carries no constant-factor guarantee — a cheap
// mediocre element can crowd out a single expensive excellent one — so
// WeightedGreedy also tracks the best affordable singleton from the first
// round's probes and returns it instead when its gain beats the greedy
// prefix's total. For monotone submodular f this "modified greedy" is a
// ½(1 − 1/e) approximation (Khuller–Moss–Naor); naive weighted-greedy
// ratio arguments without the fallback are known to fail (cf. Ren & Zhao
// on connected set cover).
//
// Elements priced at +Inf are never affordable; NaN and non-positive
// prices are the caller's bug (core.NewInstance rejects them up front).
// With every cost(e) == 1 and budget == k, WeightedGreedy selects exactly
// what the plain greedy selects under cardinality k: the first-round
// ratio argmax is the gain argmax with identical tie-breaking, and the
// fallback singleton is the first pick, which monotonicity keeps from
// overtaking the prefix.
func WeightedGreedy(n int, budget float64, cost func(int) float64, o Oracle) []int {
	var sel []int
	selected := make([]bool, n)
	rem := budget
	singleE, singleGain := -1, 0.0
	greedyTotal := 0.0
	for round := 0; ; round++ {
		bestE, bestGain, bestCost := -1, 0.0, 0.0
		for e := 0; e < n; e++ {
			if selected[e] {
				continue
			}
			g := o.Gain(e)
			if g <= 0 {
				continue
			}
			c := cost(e)
			if round == 0 && c <= budget && g > singleGain {
				singleE, singleGain = e, g
			}
			if c > rem {
				continue
			}
			if bestE < 0 {
				bestE, bestGain, bestCost = e, g, c
				continue
			}
			// gain/cost comparison, cross-multiplied to avoid division.
			l, r := g*bestCost, bestGain*c
			if l > r || (l == r && g > bestGain) {
				bestE, bestGain, bestCost = e, g, c
			}
		}
		if bestE < 0 {
			break
		}
		o.Accept(bestE)
		selected[bestE] = true
		sel = append(sel, bestE)
		rem -= bestCost
		greedyTotal += bestGain
	}
	if singleE >= 0 && singleGain > greedyTotal {
		return []int{singleE}
	}
	return sel
}

// LazyGreedy is CELF lazy greedy: valid only for submodular objectives,
// where a stale marginal gain upper-bounds the true one. Identical output
// to the plain greedy under submodularity.
func LazyGreedy(n, k int, o Oracle) []int {
	pq := make(gainQueue, 0, n)
	for e := 0; e < n; e++ {
		if g := o.Gain(e); g > 0 {
			pq = append(pq, gainEntry{e: e, gain: g, round: 0})
		}
	}
	heap.Init(&pq)
	var sel []int
	round := 0
	for len(sel) < k && pq.Len() > 0 {
		top := pq[0]
		if top.round == round {
			heap.Pop(&pq)
			if top.gain <= 0 {
				break
			}
			o.Accept(top.e)
			sel = append(sel, top.e)
			round++
			continue
		}
		top.gain = o.Gain(top.e)
		top.round = round
		if top.gain <= 0 {
			heap.Pop(&pq)
			continue
		}
		pq[0] = top
		heap.Fix(&pq, 0)
	}
	return sel
}

// IsMonotone exhaustively checks f(X) ≤ f(Y) for all X ⊆ Y over the ground
// set [0, n). Exponential; for test-sized n only (n ≤ ~12).
func IsMonotone(n int, f Value) bool {
	subsets := enumerate(n)
	vals := make([]float64, len(subsets))
	for i, s := range subsets {
		vals[i] = f(s)
	}
	for xi, x := range subsets {
		for yi, y := range subsets {
			if isSubset(xi, yi) && vals[xi] > vals[yi]+1e-12 {
				_ = x
				_ = y
				return false
			}
		}
	}
	return true
}

// IsSubmodular exhaustively checks the diminishing-returns inequality
// f(X ∪ {e}) − f(X) ≥ f(Y ∪ {e}) − f(Y) for all X ⊆ Y and e ∉ Y over the
// ground set [0, n). Exponential; for test-sized n only. It returns a
// witness violating the inequality when one exists.
func IsSubmodular(n int, f Value) (ok bool, witness *Violation) {
	subsets := enumerate(n)
	vals := make([]float64, len(subsets))
	for i, s := range subsets {
		vals[i] = f(s)
	}
	for xi := range subsets {
		for yi := range subsets {
			if !isSubset(xi, yi) {
				continue
			}
			for e := 0; e < n; e++ {
				if yi&(1<<uint(e)) != 0 {
					continue
				}
				gainX := vals[xi|1<<uint(e)] - vals[xi]
				gainY := vals[yi|1<<uint(e)] - vals[yi]
				if gainX < gainY-1e-12 {
					return false, &Violation{
						X: subsets[xi], Y: subsets[yi], E: e,
						GainX: gainX, GainY: gainY,
					}
				}
			}
		}
	}
	return true, nil
}

// Violation is a witness that a function is not submodular: adding E to the
// superset Y gained strictly more than adding it to the subset X.
type Violation struct {
	X, Y         []int
	E            int
	GainX, GainY float64
}

func enumerate(n int) [][]int {
	total := 1 << uint(n)
	subsets := make([][]int, total)
	for mask := 0; mask < total; mask++ {
		var s []int
		for e := 0; e < n; e++ {
			if mask&(1<<uint(e)) != 0 {
				s = append(s, e)
			}
		}
		subsets[mask] = s
	}
	return subsets
}

func isSubset(xMask, yMask int) bool { return xMask&^yMask == 0 }

type gainEntry struct {
	e     int
	gain  float64
	round int
}

type gainQueue []gainEntry

func (q gainQueue) Len() int { return len(q) }
func (q gainQueue) Less(i, j int) bool {
	if q[i].gain != q[j].gain {
		return q[i].gain > q[j].gain
	}
	return q[i].e < q[j].e
}
func (q gainQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *gainQueue) Push(x interface{}) { *q = append(*q, x.(gainEntry)) }
func (q *gainQueue) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}
