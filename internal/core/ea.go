package core

import (
	"context"
	"sort"
	"time"

	"msc/internal/obs"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// EAResult reports an EA run.
type EAResult struct {
	Best Placement
	// Trace[t] is the best feasible σ found within the first t+1
	// iterations; it is recorded only when EAOptions.RecordTrace is set
	// (used to regenerate Fig. 4). A resumed run's trace covers only the
	// continuation.
	Trace []int
	// Evaluations counts σ evaluations performed (carried across resume).
	Evaluations int
	// PopulationSize is the final Pareto-archive size.
	PopulationSize int
}

// EAOptions tune the evolutionary algorithm.
type EAOptions struct {
	// Iterations is the adjustment count r (paper uses r = 500). A resumed
	// run continues up to the same total, not r further iterations.
	Iterations int
	// RecordTrace enables per-iteration best-σ recording.
	RecordTrace bool
	// Parallelism shards the per-offspring σ evaluation (the per-pair
	// distance checks of the overlay oracle) across workers; 1 forces the
	// serial path, <= 0 resolves via ResolveParallelism. Results are
	// identical for every worker count.
	Parallelism int
	// Sink, when non-nil, receives one RoundEvent per iteration (the
	// offspring's σ gain over its parent and the best feasible σ so far).
	// Tracing never touches the RNG, so runs are identical with and
	// without a sink.
	Sink telemetry.Sink
	// Context supervises the run: it is checked at each iteration boundary
	// and, once done, stops the loop with the best feasible solution so
	// far and Best.Stop.Reason set accordingly. nil means never canceled;
	// an uncancelled supervised run is bit-identical to an unsupervised
	// one.
	Context context.Context
	// Deadline bounds the run to this much wall-clock time (composing with
	// Context; whichever fires first wins). <= 0 means no deadline.
	Deadline time.Duration
	// Resume continues a run from a checkpoint instead of starting fresh:
	// the RNG is repositioned, the archive and best-so-far restored, and
	// iteration Resume.Round runs next. The checkpoint must carry
	// Algorithm "ea".
	Resume *telemetry.CheckpointEvent
	// CheckpointSink, when non-nil, receives CheckpointEvent snapshots:
	// always one at the end of the run (converged, canceled, or budget
	// exhausted), plus one every CheckpointEvery iterations when that is
	// > 0. Snapshots read solver state but never steer it.
	CheckpointSink  telemetry.Sink
	CheckpointEvery int
}

// eaSol is one archive member: a solution with cached objective values.
// cost is the second Pareto axis: CostOf(sel) on budgeted problems, |sel|
// otherwise (as a float, so the two cases share the comparison code; small
// integer counts are exact in float64).
type eaSol struct {
	sel   []int // sorted candidate indices
	sigma int
	cost  float64
}

// EA is the evolutionary algorithm of §V-C (Algorithm 1): a GSEMO-style
// multi-objective optimizer over the two objectives (maximize σ(F),
// minimize |F|). The archive P holds the Pareto front; each iteration
// mutates a uniformly chosen member by flipping every candidate bit
// independently with probability 1/N (N = n(n−1)/2), inserts the offspring
// unless weakly dominated, and prunes newly dominated members. The answer
// is the best archive member with |F| ≤ k.
//
// Theorems 6 and 7 bound the expected iterations to reach a
// near-(1−1/e)-approximate feasible solution by O(n²k), with a slack term
// measuring how far σ is from submodular.
//
// On a budgeted problem the second Pareto axis is the selection's cost
// instead of its size, and the answer is the best archive member with
// CostOf(F) ≤ B. Mutation, selection, and every RNG draw are unchanged, so
// unit-cost runs with B = k are bit-for-bit identical to cardinality runs.
func EA(p Problem, opts EAOptions, rng *xrand.Rand) EAResult {
	numCand := p.NumCandidates()
	workers := ResolveParallelism(opts.Parallelism)
	ctx, cancel := superviseCtx(opts.Context, opts.Deadline)
	defer cancel()
	bp, budgeted := asBudgeted(p)
	solCost := func(sel []int) float64 {
		if budgeted {
			return bp.CostOf(sel)
		}
		return float64(len(sel))
	}
	feasLimit := float64(p.K())
	if budgeted {
		feasLimit = bp.Budget()
	}
	res := EAResult{}
	var pop []eaSol
	var bestFeasible eaSol
	startIter := 0
	if cp := opts.Resume; cp != nil {
		checkResume("ea", cp, opts.Iterations)
		restoreRNG(rng, cp)
		pop = make([]eaSol, len(cp.Population))
		for i, s := range cp.Population {
			sel := append([]int(nil), s.Selection...)
			pop[i] = eaSol{sel: sel, sigma: s.Sigma, cost: solCost(sel)}
		}
		best := append([]int(nil), cp.Best.Selection...)
		bestFeasible = eaSol{sel: best, sigma: cp.Best.Sigma, cost: solCost(best)}
		res.Evaluations = cp.Evaluations
		startIter = cp.Round
	} else {
		pop = []eaSol{{sel: nil, sigma: p.SigmaPar(nil, workers)}}
		res.Evaluations++
		bestFeasible = eaSol{sel: nil, sigma: pop[0].sigma}
	}
	if opts.RecordTrace {
		res.Trace = make([]int, 0, opts.Iterations-startIter)
	}
	stop := StopInfo{Reason: StopEvalBudget, Rounds: startIter}
	checkpoint := func() {
		if opts.CheckpointSink == nil {
			return
		}
		seed, draws := rng.State()
		cp := telemetry.CheckpointEvent{
			Algorithm:   "ea",
			Round:       stop.Rounds,
			Seed:        seed,
			Draws:       draws,
			Population:  make([]telemetry.CheckpointSolution, len(pop)),
			Best:        snapshotSolution(bestFeasible.sel, bestFeasible.sigma),
			Evaluations: res.Evaluations,
		}
		for i, s := range pop {
			cp.Population[i] = snapshotSolution(s.sel, s.sigma)
		}
		opts.CheckpointSink.Emit(cp)
	}

	flipProb := 1 / float64(numCand)
	obsOn := obs.Enabled()
	for iter := startIter; iter < opts.Iterations; iter++ {
		// The supervision check precedes the iteration's RNG draws, so a
		// canceled run stops at a clean iteration boundary — exactly the
		// state a checkpoint captures.
		if err := ctxErr(ctx); err != nil {
			stop.Reason = stopReasonFor(err)
			break
		}
		var start time.Time
		if opts.Sink != nil || obsOn {
			start = time.Now()
		}
		parent := pop[rng.Intn(len(pop))]
		child := mutate(parent.sel, numCand, flipProb, rng)
		childSigma := p.SigmaPar(child, workers)
		childCost := solCost(child)
		res.Evaluations++
		insertPareto(&pop, eaSol{sel: child, sigma: childSigma, cost: childCost})
		if childCost <= feasLimit && betterFeasible(childSigma, childCost, bestFeasible) {
			bestFeasible = eaSol{sel: child, sigma: childSigma, cost: childCost}
		}
		stop.Rounds = iter + 1
		if opts.RecordTrace {
			res.Trace = append(res.Trace, bestFeasible.sigma)
		}
		if obsOn {
			obs.ObserveRound(time.Since(start))
		}
		if opts.Sink != nil {
			mu, nu := p.Mu(child), p.Nu(child)
			opts.Sink.Emit(telemetry.RoundEvent{
				Algorithm:  "ea",
				Round:      iter,
				Gain:       childSigma - parent.sigma,
				Sigma:      bestFeasible.sigma,
				Selected:   len(child),
				Candidates: numCand,
				Mu:         mu,
				Nu:         nu,
				ElapsedNS:  time.Since(start).Nanoseconds(),
			})
		}
		if stop.Rounds < opts.Iterations && checkpointDue(stop.Rounds, opts.Iterations, opts.CheckpointEvery) {
			checkpoint()
		}
	}
	checkpoint()
	res.Best = stoppedPlacement(p, bestFeasible.sel, stop)
	res.PopulationSize = len(pop)
	return res
}

func betterFeasible(sigma int, cost float64, cur eaSol) bool {
	if sigma != cur.sigma {
		return sigma > cur.sigma
	}
	return cost < cur.cost
}

// mutate flips each of the numCand membership bits with probability
// flipProb. Rather than walking all N bits, it samples the flip count from
// Binomial(N, flipProb) and picks that many distinct positions — O(flips)
// expected work (the EAMutation ablation bench quantifies the win).
func mutate(parent []int, numCand int, flipProb float64, rng *xrand.Rand) []int {
	flips := rng.Binomial(numCand, flipProb)
	if flips == 0 {
		return append([]int(nil), parent...)
	}
	positions := rng.SampleDistinct(numCand, flips)
	member := make(map[int]bool, len(parent)+flips)
	for _, c := range parent {
		member[c] = true
	}
	for _, f := range positions {
		member[f] = !member[f]
	}
	child := make([]int, 0, len(member))
	for c, in := range member {
		if in {
			child = append(child, c)
		}
	}
	sort.Ints(child)
	return child
}

// insertPareto maintains the (σ, −cost) Pareto archive (cost is |F| on
// cardinality problems): the child is discarded when some member weakly
// dominates it; otherwise it joins and every member it weakly dominates
// leaves.
func insertPareto(pop *[]eaSol, child eaSol) {
	for _, s := range *pop {
		if s.sigma >= child.sigma && s.cost <= child.cost {
			return // weakly dominated (covers exact duplicates too)
		}
	}
	kept := (*pop)[:0]
	for _, s := range *pop {
		if child.sigma >= s.sigma && child.cost <= s.cost {
			continue // child dominates s
		}
		kept = append(kept, s)
	}
	*pop = append(kept, child)
}
