package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrTooLarge is returned by Exhaustive when the search space exceeds the
// given cap.
var ErrTooLarge = errors.New("core: exhaustive search space too large")

// Exhaustive computes the exact optimal placement — largest σ, or largest
// (σ⁻, σ) on a survivable problem — by enumerating every selection of up
// to k candidates. It is exponential and exists to verify
// approximation ratios on test-sized instances; maxEvals caps the number
// of evaluations (use ~1e6). It rejects maxEvals < 1 and budgets exceeding
// the candidate universe with a typed *InputError.
//
// Because σ is monotone in F, it suffices to enumerate selections of size
// exactly k. Under a survivability mode the result is the best k-subset
// of distinct candidates: node-mode σ⁻ is not monotone, and duplicated
// shortcuts, which survivable placements may use, are not enumerated.
//
// The enumeration is residue-strided (bestOfWalk): every worker walks the
// cheap lexicographic combination sequence but evaluates only the
// combinations whose enumeration index falls in its residue class, and the
// per-worker bests reduce to the first combination of largest objective —
// the same one at every worker count.
//
// With WithContext/WithDeadline attached, cancellation returns the best
// placement among the combinations evaluated so far with Stop.Reason
// reporting why; a full enumeration reports StopConverged — the returned
// placement is exact.
func Exhaustive(p Problem, maxEvals int, opts ...Option) (Placement, error) {
	run, release := RunOptions{}.resolve(opts...)
	defer release()
	if _, ok := asBudgeted(p); ok {
		return Placement{}, &InputError{Param: "budget", Reason: "problem is budgeted; use ExhaustiveBudget"}
	}
	numCand := p.NumCandidates()
	if maxEvals < 1 {
		return Placement{}, &InputError{Param: "maxEvals", Value: maxEvals, Reason: "must be at least 1"}
	}
	k := p.K()
	if k > numCand {
		return Placement{}, &InputError{Param: "k", Value: k,
			Reason: fmt.Sprintf("budget exceeds the %d candidate edges", numCand)}
	}
	total := binomial(numCand, k)
	if total < 0 || total > float64(maxEvals) {
		return Placement{}, ErrTooLarge
	}
	return bestOfWalk(p, run, func(visit func(sel []int, index int) bool) {
		walkCombinations(k, numCand, visit)
	}), nil
}

// ExhaustiveBudget computes the exact optimal budget-feasible placement by
// enumerating every selection whose total cost fits the budget — the
// brute-force reference the budgeted solvers are verified against. It
// rejects non-budgeted problems and maxEvals < 1 with a typed *InputError;
// maxEvals caps the number of evaluations, counted in a cheap pre-pass
// (ErrTooLarge beyond it).
//
// σ is monotone, but unlike the cardinality case no single selection size
// dominates, so the enumeration visits every feasible subset — the empty
// one first, then depth-first in lexicographic prefix order ({0}, {0,1},
// {0,1,2}, …). A budget of 0 admits only the empty placement. The
// evaluation is Exhaustive's residue-strided reduce over that walk, and
// ranks subsets by the problem's objective.
//
// With WithContext/WithDeadline attached, cancellation returns the best
// placement among the subsets evaluated so far with Stop.Reason reporting
// why; a full enumeration reports StopConverged — the returned placement
// is exact.
func ExhaustiveBudget(p Problem, maxEvals int, opts ...Option) (Placement, error) {
	run, release := RunOptions{}.resolve(opts...)
	defer release()
	bp, ok := asBudgeted(p)
	if !ok {
		return Placement{}, &InputError{Param: "budget", Reason: "problem is not budgeted; use Exhaustive"}
	}
	if maxEvals < 1 {
		return Placement{}, &InputError{Param: "maxEvals", Value: maxEvals, Reason: "must be at least 1"}
	}
	numCand := p.NumCandidates()
	total := 0
	walkBudget(bp, numCand, func(sel []int, index int) bool {
		total++
		return total <= maxEvals
	})
	if total > maxEvals {
		return Placement{}, ErrTooLarge
	}
	return bestOfWalk(p, run, func(visit func(sel []int, index int) bool) {
		walkBudget(bp, numCand, visit)
	}), nil
}

// bestOfWalk evaluates every selection walk visits and returns the first
// one (in enumeration order) of largest objective. The evaluation is
// residue-strided over the run's workers (inline at one): every worker
// walks the whole enumeration but evaluates only the selections whose
// enumeration index falls in its residue class, keeping its first best;
// the per-worker bests then reduce serially — largest objective, ties
// toward the lowest enumeration index. A run canceled before any
// evaluation returns the empty placement (winner.sel is nil).
func bestOfWalk(p Problem, run RunOptions, walk func(visit func(sel []int, index int) bool)) Placement {
	type walkBest struct {
		sel          []int
		value, index int
		evals        int
	}
	workers := run.Parallelism
	bests := make([]walkBest, workers)
	ParallelFor(workers, workers, func(shard, _, _ int) {
		best := walkBest{value: -1, index: -1}
		walk(func(sel []int, index int) bool {
			if index%workers != shard {
				return true
			}
			if run.err() != nil {
				return false
			}
			if v := objective(p, sel, 1); v > best.value {
				best = walkBest{sel: append([]int(nil), sel...), value: v, index: index, evals: best.evals}
			}
			best.evals++
			return true
		})
		bests[shard] = best
	})
	stop := StopInfo{Reason: StopConverged}
	if err := run.err(); err != nil {
		stop.Reason = stopReasonFor(err)
	}
	winner := bests[0]
	for i, b := range bests {
		stop.Rounds += b.evals
		if i > 0 && (b.value > winner.value || (b.value == winner.value && b.index < winner.index)) {
			winner = b
		}
	}
	return stoppedPlacement(p, winner.sel, stop)
}

// walkBudget visits every budget-feasible selection of distinct candidates
// — the empty one first, then depth-first in lexicographic prefix order —
// calling visit with the current selection (scratch: valid only during the
// call) and its enumeration index. visit returns false to stop the walk.
// Candidate costs are positive, so the tree is finite.
func walkBudget(bp BudgetProblem, numCand int, visit func(sel []int, index int) bool) {
	sel := make([]int, 0, numCand)
	index := 0
	if !visit(sel, index) {
		return
	}
	var rec func(start int, rem float64) bool
	rec = func(start int, rem float64) bool {
		for c := start; c < numCand; c++ {
			cost := bp.Cost(c)
			if cost > rem {
				continue
			}
			sel = append(sel, c)
			index++
			if !visit(sel, index) {
				return false
			}
			if !rec(c+1, rem-cost) {
				return false
			}
			sel = sel[:len(sel)-1]
		}
		return true
	}
	rec(0, bp.Budget())
}

// walkCombinations visits every k-combination of [0, n) in lexicographic
// order, calling visit with the combination (scratch: valid only during
// the call) and its enumeration index; k = 0 visits the empty selection
// once. visit returns false to stop the walk.
func walkCombinations(k, n int, visit func(sel []int, index int) bool) {
	sel := make([]int, k)
	for i := range sel {
		sel[i] = i
	}
	for index := 0; visit(sel, index); index++ {
		i := k - 1
		for i >= 0 && sel[i] == n-k+i {
			i--
		}
		if i < 0 {
			return
		}
		sel[i]++
		for j := i + 1; j < k; j++ {
			sel[j] = sel[j-1] + 1
		}
	}
}

func binomial(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	res := 1.0
	for i := 0; i < k; i++ {
		res *= float64(n-i) / float64(i+1)
		if math.IsInf(res, 1) {
			return res
		}
	}
	return res
}
