package core

import (
	"time"

	"msc/internal/telemetry"
)

// LocalSearchOptions tune the swap-based refinement pass.
type LocalSearchOptions struct {
	// MaxIters bounds the number of improving swaps (default 100).
	MaxIters int
	// RunOptions are the pass's workers, sink, context and deadline. The
	// workers shard the drop×add neighborhood scan (ParBestSwap); the sink
	// receives one RoundEvent per applied swap (the added shortcut, the
	// swap's gain, and the value after it); the context is checked before
	// each swap is committed, so cancellation returns the refinement
	// achieved so far (never worse than the input).
	RunOptions
}

// LocalSearch refines a placement by best-improvement swaps: repeatedly
// find the (drop, add) pair that increases σ the most and apply it,
// stopping at a swap-local optimum. Unlike AEA's stochastic single swap
// it scans the full drop×add neighborhood each round, so it can only
// improve the input. An extension beyond the paper — the natural
// post-processing pass after the sandwich algorithm.
//
// Cost per round: |F| σ-drops plus |F| full candidate scans, i.e.
// O(|F|·(N·m + rebuild)).
//
// On a budgeted problem each swap additionally checks budget feasibility:
// the incoming shortcut must fit the headroom freed by the dropped one
// (ParBestSwap), so a budget-feasible start stays feasible through every
// round.
func LocalSearch(p Problem, start []int, opts LocalSearchOptions) Placement {
	maxIters := opts.MaxIters
	if maxIters <= 0 {
		maxIters = 100
	}
	run, release := opts.resolve()
	defer release()
	cur := append([]int(nil), start...)
	s := p.NewSearch(cur)
	stop := StopInfo{Reason: StopEvalBudget}
	timed := run.timed()
	for iter := 0; iter < maxIters; iter++ {
		var start time.Time
		if timed {
			start = time.Now()
		}
		// Evaluate the full (drop, add) neighborhood: for each drop
		// position, a private search without it scans the best addition;
		// positions shard across workers (see ParBestSwap).
		prevSigma := s.Sigma()
		bestDrop, bestAdd, _ := ParBestSwap(p, cur, prevSigma, run.Parallelism)
		// Supervision before committing the swap: a canceled scan's result
		// is discarded and the refinement so far returned.
		if err := run.err(); err != nil {
			stop.Reason = stopReasonFor(err)
			break
		}
		if bestDrop < 0 {
			stop.Reason = StopConverged
			break // swap-local optimum
		}
		cur = append(cur[:bestDrop], cur[bestDrop+1:]...)
		cur = append(cur, bestAdd)
		s = p.NewSearch(cur)
		stop.Rounds = iter + 1
		if timed {
			e := p.CandidateEdge(bestAdd)
			value := s.Sigma()
			ev := telemetry.RoundEvent{Algorithm: "local_search", Round: iter,
				Shortcut: &[2]int32{int32(e.U), int32(e.V)}, Gain: value - prevSigma}
			run.endRound(p, start, ev, cur, value)
		}
	}
	return stoppedPlacement(p, cur, stop)
}
