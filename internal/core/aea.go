package core

import (
	"context"
	"time"

	"msc/internal/obs"
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
	// the cost of one greedy run before the evolutionary loop.
	SeedGreedy bool
	// Parallelism shards the swap scans (drop re-evaluations and the
	// candidate-addition grid) across workers; 1 forces the serial path,
	// <= 0 resolves via ResolveParallelism. The run is identical for every
	// worker count: the rng draws only on fully reduced scan results.
	Parallelism int
	// Sink, when non-nil, receives one RoundEvent per iteration (the
	// child's σ gain over its parent and the best σ so far). Tracing never
	// touches the RNG, so runs are identical with and without a sink.
	Sink telemetry.Sink
	// Context supervises the run: checked at each iteration boundary;
	// once done the loop stops with the best solution so far and
	// Best.Stop.Reason set accordingly. nil means never canceled.
	Context context.Context
	// Deadline bounds the run in wall-clock time (composes with Context).
	Deadline time.Duration
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
	// Trace[t] is the best σ found within the first t+1 iterations
	// (recorded only with RecordTrace).
	Trace []int
}

// aeaSol is one population member.
type aeaSol struct {
	sel   []int
	sigma int
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
func AEA(p Problem, opts AEAOptions, rng *xrand.Rand) AEAResult {
	if opts.PopSize < 1 {
		opts.PopSize = 1
	}
	workers := ResolveParallelism(opts.Parallelism)
	numCand := p.NumCandidates()
	bp, _ := asBudgeted(p) // nil on cardinality problems
	k := p.K()
	if k > numCand {
		k = numCand
	}

	ctx, cancel := superviseCtx(opts.Context, opts.Deadline)
	defer cancel()
	var pop []aeaSol
	var best aeaSol
	startIter := 0
	if cp := opts.Resume; cp != nil {
		checkResume("aea", cp, opts.Iterations)
		restoreRNG(rng, cp)
		pop = make([]aeaSol, len(cp.Population))
		for i, s := range cp.Population {
			pop[i] = aeaSol{sel: append([]int(nil), s.Selection...), sigma: s.Sigma}
		}
		best = aeaSol{sel: append([]int(nil), cp.Best.Selection...), sigma: cp.Best.Sigma}
		startIter = cp.Round
	} else {
		var seed []int
		if bp != nil {
			seed = affordableFill(bp, rng)
		} else {
			seed = rng.SampleDistinct(numCand, k)
		}
		if opts.SeedGreedy {
			seed = greedySeed(p, bp, k, numCand, rng, workers)
		}
		pop = []aeaSol{{sel: seed, sigma: p.SigmaPar(seed, workers)}}
		best = pop[0]
	}
	res := AEAResult{}
	if opts.RecordTrace {
		res.Trace = make([]int, 0, opts.Iterations-startIter)
	}
	stop := StopInfo{Reason: StopEvalBudget, Rounds: startIter}
	var scratch aeaScratch // the greedy swaps' search and tie buffer, reused across children
	checkpoint := func() {
		if opts.CheckpointSink == nil {
			return
		}
		seed, draws := rng.State()
		cp := telemetry.CheckpointEvent{
			Algorithm:  "aea",
			Round:      stop.Rounds,
			Seed:       seed,
			Draws:      draws,
			Population: make([]telemetry.CheckpointSolution, len(pop)),
			Best:       snapshotSolution(best.sel, best.sigma),
		}
		for i, s := range pop {
			cp.Population[i] = snapshotSolution(s.sel, s.sigma)
		}
		opts.CheckpointSink.Emit(cp)
	}

	obsOn := obs.Enabled()
	for iter := startIter; iter < opts.Iterations; iter++ {
		// Supervision precedes the iteration's RNG draws: cancellation
		// lands on a clean iteration boundary, the state checkpoints
		// capture.
		if err := ctxErr(ctx); err != nil {
			stop.Reason = stopReasonFor(err)
			break
		}
		var start time.Time
		if opts.Sink != nil || obsOn {
			start = time.Now()
		}
		parent := pop[rng.Intn(len(pop))]
		child := deriveChild(p, bp, parent, opts.Delta, rng, workers, &scratch)
		if child.sigma > best.sigma {
			best = child
		}
		updatePopulation(&pop, child, opts.PopSize)
		stop.Rounds = iter + 1
		if opts.RecordTrace {
			res.Trace = append(res.Trace, best.sigma)
		}
		if obsOn {
			obs.ObserveRound(time.Since(start))
		}
		if opts.Sink != nil {
			// The swap's added candidate sits at the end of the child
			// selection (both greedy and random swaps append it last).
			var added *[2]int32
			if len(child.sel) > 0 {
				e := p.CandidateEdge(child.sel[len(child.sel)-1])
				added = &[2]int32{int32(e.U), int32(e.V)}
			}
			mu, nu := p.Mu(child.sel), p.Nu(child.sel)
			opts.Sink.Emit(telemetry.RoundEvent{
				Algorithm:  "aea",
				Round:      iter,
				Shortcut:   added,
				Gain:       child.sigma - parent.sigma,
				Sigma:      best.sigma,
				Selected:   len(child.sel),
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
	res.Best = stoppedPlacement(p, best.sel, stop)
	return res
}

// greedySeed starts from the greedy-σ placement and tops it up with random
// extras so the swap moves operate on a full budget: to k shortcuts on
// cardinality problems, to budget exhaustion on budgeted ones (bp != nil).
func greedySeed(p Problem, bp BudgetProblem, k, numCand int, rng *xrand.Rand, workers int) []int {
	seed := GreedySigma(p, Parallelism(workers)).Selection
	if bp != nil {
		rem := bp.Budget() - bp.CostOf(seed)
		for {
			if c := randomAbsentSelAffordable(seed, bp, rem, numCand, rng); c >= 0 {
				seed = append(seed, c)
				rem -= bp.Cost(c)
				continue
			}
			return seed
		}
	}
	for len(seed) < k {
		c := rng.Intn(numCand)
		dup := false
		for _, x := range seed {
			if x == c {
				dup = true
				break
			}
		}
		if !dup {
			seed = append(seed, c)
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

// deriveChild produces a new feasible solution from parent via one swap.
// The greedy swap's drop and add scans shard across the given workers; the
// rng consumes draws only from fully reduced scan results, so the child is
// identical for every worker count. On budgeted problems (bp != nil) the
// incoming candidate must fit the budget headroom after the drop; when
// nothing fits the swap degenerates to a pure drop.
func deriveChild(p Problem, bp BudgetProblem, parent aeaSol, delta float64, rng *xrand.Rand, workers int, scratch *aeaScratch) aeaSol {
	numCand := p.NumCandidates()
	if numCand == 0 {
		// Degenerate universe: nothing to swap in (and randomAbsent would
		// spin forever). Keep the parent.
		return aeaSol{sel: append([]int(nil), parent.sel...), sigma: parent.sigma}
	}
	if rng.Float64() <= 1-delta {
		// Greedy swap on an incremental search state, argmax ties broken
		// uniformly at random.
		s := childSearch(p, &scratch.search, parent.sel)
		s.SetWorkers(workers)
		if s.Len() > 0 {
			s.RemoveAt(randomBestDrop(s, rng, &scratch.ties))
		}
		if bp != nil {
			rem := bp.Budget() - bp.CostOf(s.Selection())
			cand := randomBestAddBudget(s, bp, rem, rng, &scratch.ties)
			if cand < 0 {
				cand = randomAbsentAffordable(s, bp, rem, numCand, rng)
			}
			if cand >= 0 {
				s.Add(cand)
			}
			return aeaSol{sel: s.Selection(), sigma: s.Sigma()}
		}
		cand := randomBestAdd(s, rng, &scratch.ties)
		if cand < 0 {
			cand = randomAbsent(s, numCand, rng)
		}
		s.Add(cand)
		return aeaSol{sel: s.Selection(), sigma: s.Sigma()}
	}
	// Random swap.
	child := append([]int(nil), parent.sel...)
	if len(child) > 0 {
		i := rng.Intn(len(child))
		child[i] = child[len(child)-1]
		child = child[:len(child)-1]
	}
	if bp != nil {
		rem := bp.Budget() - bp.CostOf(child)
		if c := randomAbsentSelAffordable(child, bp, rem, numCand, rng); c >= 0 {
			child = append(child, c)
		}
		return aeaSol{sel: child, sigma: p.SigmaPar(child, workers)}
	}
	child = append(child, randomAbsentSel(child, numCand, rng))
	return aeaSol{sel: child, sigma: p.SigmaPar(child, workers)}
}

// childSearch returns a search positioned at sel. A plain σ search left in
// *scratch by an earlier child is repositioned, so its balls, near lists
// and gains array are reused instead of reallocated every iteration; any
// other search is built fresh and kept in *scratch.
func childSearch(p Problem, scratch *Search, sel []int) Search {
	if s, ok := (*scratch).(*instSearch); ok {
		s.reposition(sel)
		return s
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
// maximal positive σ gain, or -1 when no addition gains anything. One pass
// over the gains collects the maximizers in ascending order in *ties, so
// rng.Intn(len) picks the same candidate a count-then-rescan draw would.
func randomBestAdd(s Search, rng *xrand.Rand, ties *[]int) int {
	bestGain := 0
	t := (*ties)[:0]
	for c, g := range s.GainsAdd() {
		switch {
		case g < bestGain || g <= 0:
		case g > bestGain:
			bestGain = g
			t = append(t[:0], c)
		default:
			t = append(t, c)
		}
	}
	*ties = t
	if len(t) == 0 {
		return -1
	}
	return t[rng.Intn(len(t))]
}

// randomAbsent draws a uniform candidate not in the search's selection.
func randomAbsent(s Search, numCand int, rng *xrand.Rand) int {
	for {
		c := rng.Intn(numCand)
		if !s.Contains(c) {
			return c
		}
	}
}

// randomBestAddBudget is randomBestAdd restricted to candidates affordable
// within rem. Under unit costs with full headroom every candidate is
// affordable and the draw sequence matches randomBestAdd exactly.
func randomBestAddBudget(s Search, bp BudgetProblem, rem float64, rng *xrand.Rand, ties *[]int) int {
	bestGain := 0
	t := (*ties)[:0]
	for c, g := range s.GainsAdd() {
		switch {
		case g < bestGain || g <= 0 || bp.Cost(c) > rem:
		case g > bestGain:
			bestGain = g
			t = append(t[:0], c)
		default:
			t = append(t, c)
		}
	}
	*ties = t
	if len(t) == 0 {
		return -1
	}
	return t[rng.Intn(len(t))]
}

// randomAbsentAffordable draws a uniform candidate that is absent from the
// search's selection and affordable within rem, or -1 when none exists (the
// existence scan consumes no rng draws, preserving unit-cost parity with
// randomAbsent).
func randomAbsentAffordable(s Search, bp BudgetProblem, rem float64, numCand int, rng *xrand.Rand) int {
	exists := false
	for c := 0; c < numCand; c++ {
		if !s.Contains(c) && bp.Cost(c) <= rem {
			exists = true
			break
		}
	}
	if !exists {
		return -1
	}
	for {
		c := rng.Intn(numCand)
		if !s.Contains(c) && bp.Cost(c) <= rem {
			return c
		}
	}
}

// randomAbsentSelAffordable is randomAbsentAffordable over a plain selection
// slice.
func randomAbsentSelAffordable(sel []int, bp BudgetProblem, rem float64, numCand int, rng *xrand.Rand) int {
	contains := func(c int) bool {
		for _, x := range sel {
			if x == c {
				return true
			}
		}
		return false
	}
	exists := false
	for c := 0; c < numCand; c++ {
		if !contains(c) && bp.Cost(c) <= rem {
			exists = true
			break
		}
	}
	if !exists {
		return -1
	}
	for {
		c := rng.Intn(numCand)
		if !contains(c) && bp.Cost(c) <= rem {
			return c
		}
	}
}

func randomAbsentSel(sel []int, numCand int, rng *xrand.Rand) int {
	for {
		c := rng.Intn(numCand)
		dup := false
		for _, x := range sel {
			if x == c {
				dup = true
				break
			}
		}
		if !dup {
			return c
		}
	}
}

// updatePopulation inserts child, evicting the worst member when the
// population is full and the child strictly improves on it.
func updatePopulation(pop *[]aeaSol, child aeaSol, popSize int) {
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
