package core

import (
	"time"

	"msc/internal/maxcover"
	"msc/internal/submodular"
	"msc/internal/telemetry"
)

// GreedySigma greedily maximizes σ directly: at each of up to k rounds it
// adds the candidate shortcut with the largest exact marginal gain. This is
// the F_σ arm of the sandwich algorithm (§V-B). σ is not submodular, so
// this greedy alone carries no approximation guarantee — that is exactly
// what the μ/ν arms repair.
//
// Rounds with zero marginal gain stop the search: under a zero gain every
// candidate is an argmax, and adding one cannot be justified by σ alone.
//
// The per-round candidate scan shards across Parallelism(n) workers (see
// parallel.go); the placement is identical for every worker count.
//
// With WithContext/WithDeadline attached, the loop is anytime: each round
// commits only after a supervision check, so cancellation returns the
// feasible prefix built so far with Placement.Stop reporting the reason.
//
// With WithSink attached, every committed round emits a RoundEvent carrying
// the chosen shortcut, its marginal gain, the σ/μ/ν values of the selection
// after the round, the scan width, and the per-shard wall-time extrema of
// the candidate scan. Tracing reads solver state but never influences it,
// so the placement is identical with and without a sink.
// On a budgeted problem (BudgetProblem with Budgeted() == true) the greedy
// switches to cost-benefit ratio form: each round adds the affordable
// candidate maximizing gain/cost (ties toward the larger gain, then the
// lowest index), and the result is the better of that prefix and the best
// affordable single candidate — the standard knapsack-greedy fallback
// (see submodular.WeightedGreedy for why the fallback is load-bearing).
// Under unit costs with B = k the budgeted run reproduces the cardinality
// run bit for bit.
func GreedySigma(p Problem, opts ...Option) Placement {
	run, release := RunOptions{}.resolve(opts...)
	defer release()
	if bp, ok := asBudgeted(p); ok {
		return greedySigmaBudget(bp, run)
	}
	s, timed := run.greedySearch(p)
	stop := StopInfo{Reason: StopConverged}
	for round := 0; s.Len() < p.K(); round++ {
		var start time.Time
		if timed {
			start = time.Now()
		}
		cand, gain := s.BestAdd()
		// The supervision check sits BEFORE committing the round: a
		// canceled scan's (possibly partial) argmax is discarded, and a
		// run that is never canceled commits exactly the rounds the
		// unsupervised loop would.
		if err := run.err(); err != nil {
			stop.Reason = stopReasonFor(err)
			break
		}
		if cand < 0 || gain <= 0 {
			break
		}
		s.Add(cand)
		stop.Rounds++
		if timed {
			run.greedyRound(p, s, round, cand, gain, start)
		}
	}
	return stoppedPlacement(p, s.Selection(), stop)
}

// greedySearch returns p's search at the empty selection with the run's
// workers and supervision context installed. timed reports whether a sink
// or the ops plane reads the rounds; only then does the loop read the
// clock and the search time its scans, so an untraced run allocates
// nothing per round for telemetry.
func (r RunOptions) greedySearch(p Problem) (s Search, timed bool) {
	s = p.NewSearch(nil)
	s.SetWorkers(r.Parallelism)
	s.SetContext(r.Context)
	timed = r.timed()
	if timed {
		s.EnableScanTiming(true)
	}
	return s, timed
}

// greedyRound closes a committed greedy round that started at start
// (endRound); its greedy_sigma RoundEvent also carries the chosen
// shortcut, the scan's shard extrema and the round's
// incremental-evaluation work.
func (r RunOptions) greedyRound(p Problem, s Search, round, cand, gain int, start time.Time) {
	ev := telemetry.RoundEvent{Algorithm: "greedy_sigma", Round: round, Gain: gain}
	if r.Sink != nil {
		e := p.CandidateEdge(cand)
		ev.Shortcut = &[2]int32{int32(e.U), int32(e.V)}
		ev.ShardMinNS, ev.ShardMaxNS, ev.Shards = s.LastScanShards()
		// PairsSkipped reads 0: every gains refresh is a cold scan.
		ev.RowsMerged, ev.RowsUnchanged, ev.PairsRescanned, ev.PairsSkipped = s.LastEvalStats()
	}
	r.endRound(p, start, ev, s.Selection(), s.Sigma())
}

// greedySigmaBudget is the budgeted GreedySigma loop. The per-round gains
// scan still shards across the configured workers through Search.GainsAdd,
// so placements stay identical at every worker count; with a sink attached
// it emits the same greedy_sigma RoundEvents as the cardinality loop.
func greedySigmaBudget(bp BudgetProblem, run RunOptions) Placement {
	s, timed := run.greedySearch(bp)
	stop := StopInfo{Reason: StopConverged}
	budget := bp.Budget()
	rem := budget
	singleCand, singleGain := -1, 0
	for round := 0; ; round++ {
		var start time.Time
		if timed {
			start = time.Now()
		}
		gains := s.GainsAdd()
		// As in the cardinality loop, the supervision check sits BEFORE
		// committing the round: a canceled scan's partial gains are
		// discarded.
		if err := run.err(); err != nil {
			stop.Reason = stopReasonFor(err)
			break
		}
		bestC, bestGain := -1, 0
		bestCost := 0.0
		// Like BestAdd, the scan does not exclude already-selected
		// candidates: plain σ gives them zero gain, and survivable
		// problems legitimately re-pick duplicates (each physical link is
		// charged its cost again).
		for c, g := range gains {
			if g <= 0 {
				continue
			}
			cost := bp.Cost(c)
			if round == 0 && cost <= budget && g > singleGain {
				singleCand, singleGain = c, g
			}
			if cost > rem {
				continue
			}
			if bestC < 0 {
				bestC, bestGain, bestCost = c, g, cost
				continue
			}
			// gain/cost ratio argmax, cross-multiplied; ties toward the
			// larger gain, then the lower index (the scan order).
			l, r := float64(g)*bestCost, float64(bestGain)*cost
			if l > r || (l == r && g > bestGain) {
				bestC, bestGain, bestCost = c, g, cost
			}
		}
		if bestC < 0 {
			break
		}
		s.Add(bestC)
		rem -= bestCost
		stop.Rounds++
		if timed {
			run.greedyRound(bp, s, round, bestC, bestGain, start)
		}
	}
	sel := s.Selection()
	// Best-single-item fallback: σ is monotone, so under unit costs the
	// prefix contains the fallback singleton and always wins the tie.
	if singleCand >= 0 && stop.Reason == StopConverged {
		if single := []int{singleCand}; objective(bp, single, 1) > objective(bp, sel, 1) {
			sel = single
		}
	}
	return stoppedPlacement(bp, sel, stop)
}

// GreedyMu greedily maximizes the submodular lower bound μ (§V-B1) via its
// max-coverage form, then reports the true σ of the resulting placement.
// As a monotone submodular maximization, the selection is a (1−1/e)
// approximation of the best possible μ; on budgeted problems it runs the
// weighted-greedy knapsack form instead (½(1−1/e) for μ).
func GreedyMu(p Problem) Placement { return greedyCoverage(p, p.MuProblem()) }

// GreedyNu greedily maximizes the submodular upper bound ν (§V-B2) via its
// weighted max-coverage form, then reports the true σ of the resulting
// placement. On budgeted problems it runs the weighted-greedy knapsack
// form.
func GreedyNu(p Problem) Placement { return greedyCoverage(p, p.NuProblem()) }

func greedyCoverage(p Problem, cp maxcover.Problem) Placement {
	if bp, ok := asBudgeted(p); ok {
		return newPlacement(p, submodular.WeightedGreedy(cp.NumSets(), bp.Budget(), bp.Cost, maxcover.NewOracle(cp)))
	}
	return newPlacement(p, maxcover.Greedy(cp).Chosen)
}
