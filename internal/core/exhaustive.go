package core

import (
	"errors"
	"fmt"
	"math"
)

// ErrTooLarge is returned by Exhaustive when the search space exceeds the
// given cap.
var ErrTooLarge = errors.New("core: exhaustive search space too large")

// Exhaustive computes the exact optimal placement by enumerating every
// selection of up to k candidates. It is exponential and exists to verify
// approximation ratios on test-sized instances; maxEvals caps the number of
// σ evaluations (use ~1e6). It rejects maxEvals < 1 and budgets exceeding
// the candidate universe with a typed *InputError.
//
// Because σ is monotone in F, it suffices to enumerate selections of size
// exactly k.
//
// With Parallelism > 1 the enumeration is residue-strided: every worker
// walks the (cheap) lexicographic combination sequence but evaluates only
// combinations whose enumeration index falls in its residue class,
// tracking its local best with the lowest enumeration index on ties. The
// per-worker bests reduce serially — highest σ, ties toward the lowest
// enumeration index — which is exactly the combination the serial
// first-strictly-better loop keeps.
//
// With WithContext/WithDeadline attached, cancellation returns the best
// placement among the combinations evaluated so far with Stop.Reason
// reporting why; a full enumeration reports StopConverged — the returned
// placement is exact.
func Exhaustive(p Problem, maxEvals int, opts ...Option) (Placement, error) {
	cfg := resolveConfig(opts)
	defer cfg.release()
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
	stop := StopInfo{Reason: StopConverged}
	finish := func(sel []int) (Placement, error) {
		return stoppedPlacement(p, sel, stop), nil
	}
	if cfg.workers <= 1 || k == 0 {
		sel := make([]int, k)
		for i := range sel {
			sel[i] = i
		}
		var bestSel []int
		bestSigma := -1
		for {
			if err := cfg.err(); err != nil {
				stop.Reason = stopReasonFor(err)
				break
			}
			if sigma := p.Sigma(sel); sigma > bestSigma {
				bestSigma = sigma
				bestSel = append([]int(nil), sel...)
			}
			stop.Rounds++
			if !nextCombination(sel, numCand) {
				break
			}
		}
		if bestSel == nil { // k == 0 or canceled before the first evaluation
			bestSel = []int{}
		}
		return finish(bestSel)
	}
	type exhBest struct {
		sel   []int
		sigma int
		index int
		evals int
	}
	bests := make([]exhBest, cfg.workers)
	ParallelFor(cfg.workers, cfg.workers, func(shard, _, _ int) {
		sel := make([]int, k)
		for i := range sel {
			sel[i] = i
		}
		best := exhBest{sigma: -1, index: -1}
		for index := 0; ; index++ {
			if index%cfg.workers == shard {
				if cfg.err() != nil {
					break
				}
				if sigma := p.Sigma(sel); sigma > best.sigma {
					best = exhBest{sel: append([]int(nil), sel...), sigma: sigma, index: index, evals: best.evals}
				}
				best.evals++
			}
			if !nextCombination(sel, numCand) {
				break
			}
		}
		bests[shard] = best
	})
	if err := cfg.err(); err != nil {
		stop.Reason = stopReasonFor(err)
	}
	winner := bests[0]
	stop.Rounds = bests[0].evals
	for _, b := range bests[1:] {
		stop.Rounds += b.evals
		if b.sigma > winner.sigma || (b.sigma == winner.sigma && b.index < winner.index) {
			winner = b
		}
	}
	if winner.sel == nil { // canceled before any shard evaluated
		winner.sel = []int{}
	}
	return finish(winner.sel)
}

// ExhaustiveBudget computes the exact optimal budget-feasible placement by
// enumerating every selection whose total cost fits the budget — the
// brute-force reference the budgeted solvers are verified against. It
// rejects non-budgeted problems and maxEvals < 1 with a typed *InputError;
// maxEvals caps the number of σ evaluations, counted in a cheap pre-pass
// (ErrTooLarge beyond it).
//
// σ is monotone, but unlike the cardinality case no single selection size
// dominates, so the enumeration visits every feasible subset — the empty
// one first, then depth-first in lexicographic prefix order ({0}, {0,1},
// {0,1,2}, …). A budget of 0 admits only the empty placement.
//
// With Parallelism > 1 the enumeration is residue-strided exactly like
// Exhaustive: every worker walks the (cheap, evaluation-free) feasibility
// tree but evaluates only subsets whose enumeration index falls in its
// residue class, and the per-worker bests reduce serially — highest σ,
// ties toward the lowest enumeration index — matching the serial
// first-strictly-better loop for every worker count.
//
// With WithContext/WithDeadline attached, cancellation returns the best
// placement among the subsets evaluated so far with Stop.Reason reporting
// why; a full enumeration reports StopConverged — the returned placement
// is exact.
func ExhaustiveBudget(p Problem, maxEvals int, opts ...Option) (Placement, error) {
	cfg := resolveConfig(opts)
	defer cfg.release()
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
	stop := StopInfo{Reason: StopConverged}
	finish := func(sel []int) (Placement, error) {
		return stoppedPlacement(p, sel, stop), nil
	}
	if cfg.workers <= 1 {
		bestSel := []int{}
		bestSigma := -1
		walkBudget(bp, numCand, func(sel []int, index int) bool {
			if err := cfg.err(); err != nil {
				stop.Reason = stopReasonFor(err)
				return false
			}
			if sigma := p.Sigma(sel); sigma > bestSigma {
				bestSigma = sigma
				bestSel = append([]int(nil), sel...)
			}
			stop.Rounds++
			return true
		})
		return finish(bestSel)
	}
	type exhBest struct {
		sel   []int
		sigma int
		index int
		evals int
	}
	bests := make([]exhBest, cfg.workers)
	ParallelFor(cfg.workers, cfg.workers, func(shard, _, _ int) {
		best := exhBest{sigma: -1, index: -1}
		walkBudget(bp, numCand, func(sel []int, index int) bool {
			if index%cfg.workers != shard {
				return true
			}
			if cfg.err() != nil {
				return false
			}
			if sigma := p.Sigma(sel); sigma > best.sigma {
				best = exhBest{sel: append([]int(nil), sel...), sigma: sigma, index: index, evals: best.evals}
			}
			best.evals++
			return true
		})
		bests[shard] = best
	})
	if err := cfg.err(); err != nil {
		stop.Reason = stopReasonFor(err)
	}
	winner := bests[0]
	stop.Rounds = bests[0].evals
	for _, b := range bests[1:] {
		stop.Rounds += b.evals
		if b.sigma > winner.sigma || (b.sigma == winner.sigma && b.index < winner.index) {
			winner = b
		}
	}
	if winner.sel == nil { // canceled before any shard evaluated
		winner.sel = []int{}
	}
	return finish(winner.sel)
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

// nextCombination advances sel to the next k-combination of [0, n) in
// lexicographic order, returning false after the last one.
func nextCombination(sel []int, n int) bool {
	k := len(sel)
	if k == 0 {
		return false
	}
	i := k - 1
	for i >= 0 && sel[i] == n-k+i {
		i--
	}
	if i < 0 {
		return false
	}
	sel[i]++
	for j := i + 1; j < k; j++ {
		sel[j] = sel[j-1] + 1
	}
	return true
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
