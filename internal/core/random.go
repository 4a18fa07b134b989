package core

import (
	"fmt"

	"msc/internal/xrand"
)

// RandomPlacement is the baseline of §VII-C: draw trials independent
// uniform placements of k distinct shortcut edges and keep the one
// maintaining the most social pairs (the paper uses trials = 500). It
// rejects trials < 1 and budgets exceeding the candidate universe with a
// typed *InputError.
//
// With Parallelism > 1 every selection is drawn serially first (the rng is
// single-goroutine), the σ evaluations shard across workers, and the best
// trial reduces serially with ties toward the lowest trial index — the
// same winner the serial first-strictly-better loop keeps. The returned
// placement is identical for every worker count.
//
// With WithContext/WithDeadline attached, cancellation returns the best
// placement among the trials evaluated so far, with Stop.Reason reporting
// why; an uncancelled run completes all trials (Stop.Reason ==
// StopEvalBudget) and is identical to an unsupervised run.
//
// On a budgeted problem each trial draws a random budget-feasible selection
// (affordableFill) instead of k distinct candidates; under unit costs with
// B = k the draws match SampleDistinct's rejection branch, so sparse
// (k·3 < N) budgeted runs reproduce cardinality runs bit for bit.
func RandomPlacement(p Problem, trials int, rng *xrand.Rand, opts ...Option) (Placement, error) {
	cfg := resolveConfig(opts)
	defer cfg.release()
	numCand := p.NumCandidates()
	if trials < 1 {
		return Placement{}, &InputError{Param: "trials", Value: trials, Reason: "must be at least 1"}
	}
	bp, budgeted := asBudgeted(p)
	draw := func() []int {
		if budgeted {
			return affordableFill(bp, rng)
		}
		return rng.SampleDistinct(numCand, p.K())
	}
	if k := p.K(); !budgeted && k > numCand {
		return Placement{}, &InputError{Param: "k", Value: k,
			Reason: fmt.Sprintf("budget exceeds the %d candidate edges", numCand)}
	}
	stop := StopInfo{Reason: StopEvalBudget}
	finish := func(sel []int) (Placement, error) {
		return stoppedPlacement(p, sel, stop), nil
	}
	if cfg.workers <= 1 || trials <= 1 {
		var bestSel []int
		bestSigma := -1
		for t := 0; t < trials; t++ {
			if err := cfg.err(); err != nil {
				stop.Reason = stopReasonFor(err)
				break
			}
			sel := draw()
			if sigma := p.Sigma(sel); sigma > bestSigma {
				bestSigma = sigma
				bestSel = sel
			}
			stop.Rounds++
		}
		return finish(bestSel)
	}
	sels := make([][]int, trials)
	for t := range sels {
		sels[t] = draw()
	}
	sigmas := make([]int, trials)
	shards := cfg.workers
	if shards > trials {
		shards = trials
	}
	// Per-shard completion counts report Rounds when a cancellation cuts
	// the evaluation short; unevaluated trials keep σ = 0 and so never
	// outrank an evaluated one in the reduce.
	done := make([]int, shards)
	ParallelFor(cfg.workers, trials, func(shard, lo, hi int) {
		for t := lo; t < hi; t++ {
			if cfg.err() != nil {
				return
			}
			sigmas[t] = p.Sigma(sels[t])
			done[shard]++
		}
	})
	if err := cfg.err(); err != nil {
		stop.Reason = stopReasonFor(err)
	}
	for _, d := range done {
		stop.Rounds += d
	}
	best := 0
	for t := 1; t < trials; t++ {
		if sigmas[t] > sigmas[best] {
			best = t
		}
	}
	return finish(sels[best])
}
