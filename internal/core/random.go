package core

import (
	"fmt"

	"msc/internal/xrand"
)

// RandomPlacement is the baseline of §VII-C: draw trials independent
// uniform placements of k distinct shortcut edges and keep the one
// maintaining the most social pairs (the paper uses trials = 500) — on a
// survivable problem, the one of largest objective (σ⁻, σ). It rejects
// trials < 1 and budgets exceeding the candidate universe with a typed
// *InputError.
//
// Every selection is drawn first (the rng is single-goroutine), the
// evaluations shard across the Parallelism workers (inline at one), and
// the best trial reduces serially with ties toward the lowest trial index,
// so the returned placement is identical for every worker count.
//
// With WithContext/WithDeadline attached, cancellation returns the best
// placement among the trials evaluated so far (the empty placement when
// none was), with Stop.Reason reporting why; an uncancelled run completes
// all trials (Stop.Reason == StopEvalBudget) and is identical to an
// unsupervised run.
//
// On a budgeted problem each trial draws a random budget-feasible selection
// (affordableFill) instead of k distinct candidates; under unit costs with
// B = k the draws match SampleDistinct's rejection branch, so sparse
// (k·3 < N) budgeted runs reproduce cardinality runs bit for bit.
func RandomPlacement(p Problem, trials int, rng *xrand.Rand, opts ...Option) (Placement, error) {
	run, release := RunOptions{}.resolve(opts...)
	defer release()
	numCand := p.NumCandidates()
	if trials < 1 {
		return Placement{}, &InputError{Param: "trials", Value: trials, Reason: "must be at least 1"}
	}
	bp, budgeted := asBudgeted(p)
	if k := p.K(); !budgeted && k > numCand {
		return Placement{}, &InputError{Param: "k", Value: k,
			Reason: fmt.Sprintf("budget exceeds the %d candidate edges", numCand)}
	}
	sels := make([][]int, trials)
	for t := range sels {
		if budgeted {
			sels[t] = affordableFill(bp, rng)
		} else {
			sels[t] = rng.SampleDistinct(numCand, p.K())
		}
	}
	// Per-shard completion counts report Rounds when a cancellation cuts
	// the evaluation short; unevaluated trials keep the value -1 and so
	// never outrank an evaluated one in the reduce.
	values := make([]int, trials)
	done := make([]int, min(run.Parallelism, trials))
	ParallelFor(run.Parallelism, trials, func(shard, lo, hi int) {
		for t := lo; t < hi; t++ {
			values[t] = -1
			if run.err() != nil {
				continue
			}
			values[t] = objective(p, sels[t], 1)
			done[shard]++
		}
	})
	stop := StopInfo{Reason: StopEvalBudget}
	if err := run.err(); err != nil {
		stop.Reason = stopReasonFor(err)
	}
	for _, d := range done {
		stop.Rounds += d
	}
	best := 0
	for t := 1; t < trials; t++ {
		if values[t] > values[best] {
			best = t
		}
	}
	if values[best] < 0 { // canceled before any evaluation
		return stoppedPlacement(p, nil, stop), nil
	}
	return stoppedPlacement(p, sels[best], stop), nil
}
