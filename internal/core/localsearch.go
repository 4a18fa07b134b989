package core

import (
	"context"
	"time"

	"msc/internal/obs"
	"msc/internal/telemetry"
)

// LocalSearchOptions tune the swap-based refinement pass.
type LocalSearchOptions struct {
	// MaxIters bounds the number of improving swaps (default 100).
	MaxIters int
	// Parallelism shards the drop×add neighborhood scan across workers via
	// ParBestSwap; 1 forces the serial path, <= 0 resolves via
	// ResolveParallelism. The refinement is identical for every worker
	// count.
	Parallelism int
	// Sink, when non-nil, receives one RoundEvent per applied swap (the
	// added shortcut, the σ gain of the swap, and σ after it). Tracing
	// reads solver state only, so the refinement is identical with and
	// without a sink.
	Sink telemetry.Sink
	// Context supervises the pass: checked before each swap is committed,
	// so cancellation returns the refinement achieved so far (never worse
	// than the input). nil means never canceled.
	Context context.Context
	// Deadline bounds the pass in wall-clock time (composes with Context).
	Deadline time.Duration
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
	workers := ResolveParallelism(opts.Parallelism)
	ctx, cancel := superviseCtx(opts.Context, opts.Deadline)
	defer cancel()
	cur := append([]int(nil), start...)
	s := p.NewSearch(cur)
	stop := StopInfo{Reason: StopEvalBudget}
	obsOn := obs.Enabled()
	for iter := 0; iter < maxIters; iter++ {
		var start time.Time
		if opts.Sink != nil || obsOn {
			start = time.Now()
		}
		// Evaluate the full (drop, add) neighborhood: for each drop
		// position, a private search without it scans the best addition;
		// positions shard across workers (see ParBestSwap).
		prevSigma := s.Sigma()
		bestDrop, bestAdd, _ := ParBestSwap(p, cur, prevSigma, workers)
		// Supervision before committing the swap: a canceled scan's result
		// is discarded and the refinement so far returned.
		if err := ctxErr(ctx); err != nil {
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
		if obsOn {
			obs.ObserveRound(time.Since(start))
		}
		if opts.Sink != nil {
			e := p.CandidateEdge(bestAdd)
			sigma, sigmaWorst := sigmaParts(s)
			mu, nu := p.Mu(cur), p.Nu(cur)
			opts.Sink.Emit(telemetry.RoundEvent{
				Algorithm:  "local_search",
				Round:      iter,
				Shortcut:   &[2]int32{int32(e.U), int32(e.V)},
				Gain:       s.Sigma() - prevSigma,
				Sigma:      sigma,
				SigmaWorst: sigmaWorst,
				Selected:   len(cur),
				Candidates: p.NumCandidates(),
				Mu:         mu,
				Nu:         nu,
				ElapsedNS:  time.Since(start).Nanoseconds(),
			})
		}
	}
	return stoppedPlacement(p, cur, stop)
}
