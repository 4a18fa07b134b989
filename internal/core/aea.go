package core

import (
	"slices"
	"time"

	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// AEAOptions tune the adaptive evolutionary algorithm.
type AEAOptions struct {
	// Iterations is the adjustment count r (paper uses r = 500).
	Iterations int
	// PopSize is the candidate-solution-set size l (paper uses l = 10).
	PopSize int
	// Delta is the random-exploration probability δ, close to 0 (paper
	// uses δ = 0.05). With probability 1−δ an iteration performs the
	// greedy remove-then-add swap; otherwise a uniformly random swap.
	Delta float64
	// RecordTrace enables per-iteration best-σ recording (Fig. 4).
	RecordTrace bool
	// SeedGreedy seeds the initial population with the greedy-σ placement
	// instead of a uniform random one. This is an extension beyond the
	// paper (Algorithm 2 seeds randomly): it guarantees AEA never returns
	// a worse placement than the F_σ arm of the sandwich algorithm, at
	// the cost of one greedy run before the evolutionary loop. The greedy
	// runs under RunOptions: its rounds reach the sink as greedy_sigma
	// events, and a cancellation or deadline stops it mid-greedy.
	SeedGreedy bool
	// RunOptions are the run's workers, sink, context and deadline. The
	// workers shard the swap scans (drop re-evaluations and the
	// candidate-addition grid), and the rng draws only on fully reduced
	// scan results; the sink receives one RoundEvent per iteration (the
	// added shortcut, the child's gain over its parent, the best value so
	// far, the child's size, μ and ν); the context is checked at each
	// iteration boundary, and once done the loop stops with the best
	// solution so far and Best.Stop.Reason set accordingly.
	RunOptions
	// Resume continues from a checkpoint with Algorithm "aea": RNG
	// repositioned, population and best restored, iteration Resume.Round
	// runs next.
	Resume *telemetry.CheckpointEvent
	// CheckpointSink receives CheckpointEvent snapshots: one at the end of
	// the run, plus one every CheckpointEvery iterations when > 0.
	CheckpointSink  telemetry.Sink
	CheckpointEvery int
}

// DefaultAEAOptions mirror the paper's evaluation settings (§VII-D).
func DefaultAEAOptions() AEAOptions {
	return AEAOptions{Iterations: 500, PopSize: 10, Delta: 0.05}
}

// AEAResult reports an AEA run.
type AEAResult struct {
	Best Placement
	// Trace[t] is the best objective value (σ on fault-free problems)
	// found within the first t+1 iterations (recorded only with
	// RecordTrace).
	Trace []int
}

// AEA is the adaptive evolutionary algorithm of §V-D (Algorithm 2). Unlike
// EA it searches only the feasible region |F| = k: it seeds a random
// placement of k shortcuts, then repeatedly derives a new solution from a
// uniformly chosen population member by a swap — greedy with probability
// 1−δ (drop the edge whose removal hurts σ least, then add the edge with
// the largest σ gain), uniformly random with probability δ. The new
// solution replaces the population's worst member when strictly better,
// and the population keeps at most l members for diversity.
//
// The paper's argmax steps leave ties unspecified; AEA breaks all of them
// uniformly at random. Random tie-breaking matters: on plateaus (several
// removals or additions with equal σ effect) a deterministic tie-break
// regenerates the same child forever, while randomized argmax keeps
// exploring the plateau — the AEADelta ablation bench quantifies the
// difference. When every addition has zero gain, every candidate is an
// argmax and AEA draws one uniformly from the absent candidates.
//
// On a budgeted problem AEA searches the budget-feasible region instead of
// |F| = k: the seed is a random affordable fill, and both swap flavors
// restrict the incoming candidate to those fitting the budget freed by the
// drop (skipping the add when nothing fits). Under unit costs with B = k
// the draw sequence matches the cardinality run exactly whenever the seed
// fill takes SampleDistinct's rejection branch (k·3 < N).
//
// Every member is ranked by the problem's objective, so on a survivable
// problem AEA maximizes (σ⁻, σ) lexicographically.
func AEA(p Problem, opts AEAOptions, rng *xrand.Rand) AEAResult {
	if opts.PopSize < 1 {
		opts.PopSize = 1
	}
	run, release := opts.resolve()
	defer release()
	numCand := p.NumCandidates()
	bp, _ := asBudgeted(p) // nil on cardinality problems
	k := p.K()
	if k > numCand {
		k = numCand
	}

	var pop []eaSol
	var best eaSol
	startIter := 0
	if cp := opts.Resume; cp != nil {
		pop, best = resumeFrom("aea", cp, opts.Iterations, rng)
		startIter = cp.Round
	} else {
		var seed []int
		if bp != nil {
			seed = affordableFill(bp, rng)
		} else {
			seed = rng.SampleDistinct(numCand, k)
		}
		if opts.SeedGreedy {
			seed = greedySeed(p, bp, k, numCand, rng, run)
		}
		pop = []eaSol{{sel: seed, sigma: objective(p, seed, run.Parallelism)}}
		best = pop[0]
	}
	res := AEAResult{}
	if opts.RecordTrace {
		res.Trace = make([]int, 0, opts.Iterations-startIter)
	}
	stop := StopInfo{Reason: StopEvalBudget, Rounds: startIter}
	var scratch aeaScratch // the greedy swaps' search and tie buffer, reused across children

	timed := run.timed()
	for iter := startIter; iter < opts.Iterations; iter++ {
		// Supervision precedes the iteration's RNG draws: cancellation
		// lands on a clean iteration boundary, the state checkpoints
		// capture.
		if err := run.err(); err != nil {
			stop.Reason = stopReasonFor(err)
			break
		}
		var start time.Time
		if timed {
			start = time.Now()
		}
		parent := pop[rng.Intn(len(pop))]
		child := deriveChild(p, bp, parent, opts.Delta, rng, run.Parallelism, &scratch)
		if child.sigma > best.sigma {
			best = child
		}
		updatePopulation(&pop, child, opts.PopSize)
		stop.Rounds = iter + 1
		if opts.RecordTrace {
			res.Trace = append(res.Trace, best.sigma)
		}
		if timed {
			ev := telemetry.RoundEvent{Algorithm: "aea", Round: iter, Gain: child.sigma - parent.sigma}
			// The swap's added candidate sits at the end of the child
			// selection (both greedy and random swaps append it last).
			if len(child.sel) > 0 {
				e := p.CandidateEdge(child.sel[len(child.sel)-1])
				ev.Shortcut = &[2]int32{int32(e.U), int32(e.V)}
			}
			run.endRound(p, start, ev, child.sel, best.sigma)
		}
		if stop.Rounds < opts.Iterations && checkpointDue(stop.Rounds, opts.Iterations, opts.CheckpointEvery) {
			emitCheckpoint(opts.CheckpointSink, "aea", stop.Rounds, rng, pop, best, 0)
		}
	}
	emitCheckpoint(opts.CheckpointSink, "aea", stop.Rounds, rng, pop, best, 0)
	res.Best = stoppedPlacement(p, best.sel, stop)
	return res
}

// greedySeed starts from the greedy-σ placement and tops it up with random
// extras so the swap moves operate on a full budget: to k shortcuts on
// cardinality problems, to budget exhaustion on budgeted ones (bp != nil).
// The greedy runs under the AEA's own run, so a cancellation or deadline
// stops it too, keeping what it placed so far.
func greedySeed(p Problem, bp BudgetProblem, k, numCand int, rng *xrand.Rand, run RunOptions) []int {
	seed := GreedySigma(p, run).Selection
	var fits func(int) bool
	rem := 0.0
	if bp != nil {
		rem = bp.Budget() - bp.CostOf(seed)
		fits = func(c int) bool { return bp.Cost(c) <= rem }
	}
	for fits != nil || len(seed) < k {
		c := randomAbsent(seed, fits, numCand, rng)
		if c < 0 {
			break
		}
		seed = append(seed, c)
		if bp != nil {
			rem -= bp.Cost(c)
		}
	}
	return seed
}

// aeaScratch is what the greedy swaps reuse from child to child: the search
// and the buffer the argmax draws collect their ties in.
type aeaScratch struct {
	search Search
	ties   []int
}

// deriveChild produces a new feasible solution from parent via one swap:
// a drop, then an add. The greedy swap's drop and add scans shard across
// the given workers; the rng consumes draws only from fully reduced scan
// results, so the child is identical for every worker count. On budgeted
// problems (bp != nil) the incoming candidate must fit the budget headroom
// after the drop; when nothing fits the swap degenerates to a pure drop.
// The child's value is the problem's objective.
func deriveChild(p Problem, bp BudgetProblem, parent eaSol, delta float64, rng *xrand.Rand, workers int, scratch *aeaScratch) eaSol {
	numCand := p.NumCandidates()
	if numCand == 0 {
		// Degenerate universe: nothing to swap in (and randomAbsent would
		// spin forever). Keep the parent.
		return eaSol{sel: append([]int(nil), parent.sel...), sigma: parent.sigma}
	}
	var s Search // the greedy swap's search; nil for a random swap
	var child []int
	if rng.Float64() <= 1-delta {
		// Greedy swap on an incremental search state, argmax ties broken
		// uniformly at random.
		s = childSearch(p, &scratch.search, parent.sel)
		s.SetWorkers(workers)
		if s.Len() > 0 {
			s.RemoveAt(randomBestDrop(s, rng, &scratch.ties))
		}
		child = s.Selection()
	} else {
		child = append([]int(nil), parent.sel...)
		if len(child) > 0 {
			i := rng.Intn(len(child))
			child[i] = child[len(child)-1]
			child = child[:len(child)-1]
		}
	}
	var fits func(int) bool
	if bp != nil {
		rem := bp.Budget() - bp.CostOf(child)
		fits = func(c int) bool { return bp.Cost(c) <= rem }
	}
	cand := -1
	if s != nil {
		cand = randomBestAdd(s, fits, rng, &scratch.ties)
	}
	if cand < 0 {
		cand = randomAbsent(child, fits, numCand, rng)
	}
	if s != nil {
		if cand >= 0 {
			s.Add(cand)
		}
		return eaSol{sel: s.Selection(), sigma: s.Sigma()}
	}
	if cand >= 0 {
		child = append(child, cand)
	}
	return eaSol{sel: child, sigma: objective(p, child, workers)}
}

// positioner is a search that moves to another selection in place,
// keeping its buffers: the plain search and the composite.
type positioner interface{ position(sel []int) }

// childSearch returns a search positioned at sel. A search left in
// *scratch by an earlier child is repositioned when it can be, so its
// balls, near lists and gains arrays — every member's, for a dynamic or
// survivable search — are reused instead of reallocated every iteration;
// any other search is built fresh and kept in *scratch.
func childSearch(p Problem, scratch *Search, sel []int) Search {
	if s, ok := (*scratch).(positioner); ok {
		s.position(sel)
		return *scratch
	}
	s := p.NewSearch(sel)
	*scratch = s
	return s
}

// randomBestDrop returns a uniformly random position among those whose
// removal leaves the maximal σ. The per-position σ values come from one
// (possibly sharded) SigmaDrops pass; tie collection and the rng draw stay
// serial, so the choice matches the serial scan draw for draw. The ties
// are collected in *ties, which the caller keeps for reuse.
func randomBestDrop(s Search, rng *xrand.Rand, ties *[]int) int {
	drops := s.SigmaDrops()
	bestSigma := -1
	t := (*ties)[:0]
	for pos, sig := range drops {
		switch {
		case sig > bestSigma:
			bestSigma = sig
			t = append(t[:0], pos)
		case sig == bestSigma:
			t = append(t, pos)
		}
	}
	*ties = t
	return t[rng.Intn(len(t))]
}

// randomBestAdd returns a uniformly random candidate among those with the
// maximal positive gain that pass fits (every candidate when fits is nil,
// as on cardinality problems), or -1 when none gains anything. One pass
// over the gains collects the maximizers in ascending order in *ties, so
// rng.Intn(len) picks the same candidate a count-then-rescan draw would.
func randomBestAdd(s Search, fits func(cand int) bool, rng *xrand.Rand, ties *[]int) int {
	bestGain := 0
	t := (*ties)[:0]
	for c, g := range s.GainsAdd() {
		// fits is called off the common path: with the call folded into
		// this first test the loop keeps its state in memory, and a scan
		// of 79 800 gains took twice as long (Go 1.24, amd64).
		if g < bestGain || g <= 0 {
			continue
		}
		if fits != nil && !fits(c) {
			continue
		}
		if g > bestGain {
			bestGain = g
			t = t[:0]
		}
		t = append(t, c)
	}
	*ties = t
	if len(t) == 0 {
		return -1
	}
	return t[rng.Intn(len(t))]
}

// randomAbsent draws a uniform candidate absent from sel that passes fits.
// With a check it returns -1 when no candidate qualifies, found by a scan
// that draws nothing, so the draws match the unchecked ones; with fits nil
// (cardinality problems, where sel is shorter than the universe) it always
// draws one.
func randomAbsent(sel []int, fits func(cand int) bool, numCand int, rng *xrand.Rand) int {
	ok := func(c int) bool { return !slices.Contains(sel, c) && (fits == nil || fits(c)) }
	if fits != nil {
		exists := false
		for c := 0; c < numCand && !exists; c++ {
			exists = ok(c)
		}
		if !exists {
			return -1
		}
	}
	for {
		if c := rng.Intn(numCand); ok(c) {
			return c
		}
	}
}

// updatePopulation inserts child, evicting the worst member when the
// population is full and the child strictly improves on it.
func updatePopulation(pop *[]eaSol, child eaSol, popSize int) {
	if len(*pop) < popSize {
		*pop = append(*pop, child)
		return
	}
	worst := 0
	for i := 1; i < len(*pop); i++ {
		if (*pop)[i].sigma < (*pop)[worst].sigma {
			worst = i
		}
	}
	if (*pop)[worst].sigma < child.sigma {
		(*pop)[worst] = child
	}
}
