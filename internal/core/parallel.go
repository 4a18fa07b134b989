package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"msc/internal/telemetry"
)

// This file is the shared parallel candidate-scan engine. Every placement
// algorithm bottoms out in a scan over the N = n(n−1)/2 candidate shortcuts
// (GreedySigma and AEA through Search.GainsAdd, LocalSearch through its
// drop×add neighborhood, RandomPlacement and Exhaustive through repeated σ
// evaluations); the engine shards those scans across workers while keeping
// the results byte-identical to the serial code path.
//
// Determinism contract: for every worker count, each scan produces exactly
// the values the serial scan produces. Shards are contiguous index blocks
// writing to disjoint output ranges (no shared mutable state, no atomics on
// the hot path), integer reductions are exact, and per-shard argmax results
// are reduced in shard order with ties broken toward the lowest candidate
// index — the same tie-break the serial scans use. Parallel and serial runs
// therefore return identical placements; the equivalence suite in
// parallel_test.go locks the contract in under the race detector.

var _ ParallelSigma = (*Instance)(nil)

// Option configures a solver entry point (GreedySigma, Sandwich,
// RandomPlacement, Exhaustive, LocalSearch via its options struct). EA and
// AEA carry the equivalent Parallelism field on their options structs.
type Option func(*solveConfig)

type solveConfig struct {
	workers int
	sink    telemetry.Sink
	// ctx supervises the run (WithContext); nil means never canceled.
	ctx context.Context
	// timeout is a relative deadline (WithDeadline); resolveConfig wraps
	// ctx with it and records cancel for release().
	timeout time.Duration
	cancel  context.CancelFunc
}

// Parallelism fixes the number of candidate-scan workers a solver may use.
// n = 1 restores the fully serial code path; n <= 0 (and omitting the
// option) selects runtime.GOMAXPROCS(0).
func Parallelism(n int) Option {
	return func(c *solveConfig) { c.workers = n }
}

// WithSink attaches a telemetry sink to a solver run: GreedySigma emits one
// RoundEvent per greedy round, Sandwich additionally a SandwichEvent; other
// Option-taking solvers accept and ignore it. A nil sink (or omitting the
// option) disables tracing entirely — emission sites nil-check before doing
// any work, so detached telemetry adds no allocations and no time to the
// candidate-scan hot path, and placements are identical with or without a
// sink.
func WithSink(s telemetry.Sink) Option {
	return func(c *solveConfig) { c.sink = s }
}

// ResolveParallelism normalizes a Parallelism value: n >= 1 is returned
// unchanged; n <= 0 resolves to runtime.GOMAXPROCS(0).
func ResolveParallelism(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

func resolveOptions(opts []Option) int {
	return resolveConfig(opts).workers
}

func resolveConfig(opts []Option) solveConfig {
	var c solveConfig
	for _, o := range opts {
		o(&c)
	}
	c.workers = ResolveParallelism(c.workers)
	if c.timeout > 0 {
		c.ctx, c.cancel = superviseCtx(c.ctx, c.timeout)
	}
	return c
}

// ParallelSearch extends Search with sharded candidate scans. A Search
// remains single-caller (no concurrent method calls); SetWorkers only
// allows the implementation to fan each scan out internally, using
// goroutine-private scratch so results stay identical to a serial scan.
type ParallelSearch interface {
	Search
	// SetWorkers fixes the shard count for subsequent scans (GainsAdd,
	// BestAdd, SigmaDrops, BestDrop). 1 means fully serial; n <= 0 resolves
	// via ResolveParallelism.
	SetWorkers(n int)
	// SigmaDrops returns σ(S \ {S[pos]}) for every selection position in
	// one sharded pass. Like GainsAdd, the slice is scratch owned by the
	// Search: valid until the next call, not to be retained or modified.
	SigmaDrops() []int
}

// ScanTimer is implemented by searches that can time their sharded
// candidate scans for telemetry. Timing is off by default — recording costs
// two monotonic clock reads per shard per scan, so solvers enable it only
// when a trace sink is attached.
type ScanTimer interface {
	// EnableScanTiming turns per-shard timing of GainsAdd scans on or off.
	EnableScanTiming(on bool)
	// LastScanShards reports the fastest and slowest per-shard wall time of
	// the most recent timed gains scan and its shard count; zeros when no
	// timed scan has run.
	LastScanShards() (minNS, maxNS int64, shards int)
}

// EvalStats is implemented by searches that track the incremental
// evaluation engine's work (see search.go): how many endpoint balls the
// committed shortcuts' O(ball) merges changed vs. proved untouched, and
// how many pairs the gains scans covered. pairsSkipped always reads 0 —
// every gains refresh is a cold scan — and stays in the signature for the
// RoundEvent field it fills. LastEvalStats drains the accumulators, so
// each call reports the work since the previous one — GreedySigma calls
// it once per committed round to fill the RoundEvent fields.
type EvalStats interface {
	LastEvalStats() (rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped int64)
}

// lastEvalStats drains a search's incremental-evaluation stats, or returns
// zeros for searches without incremental state.
func lastEvalStats(s Search) (rowsMerged, rowsUnchanged, pairsRescanned, pairsSkipped int64) {
	if es, ok := s.(EvalStats); ok {
		return es.LastEvalStats()
	}
	return 0, 0, 0, 0
}

// enableScanTiming turns scan timing on when the search supports it.
func enableScanTiming(s Search) {
	if st, ok := s.(ScanTimer); ok {
		st.EnableScanTiming(true)
	}
}

// lastScanShards reads the most recent timed scan's shard extrema, or zeros
// for searches without timing support.
func lastScanShards(s Search) (minNS, maxNS int64, shards int) {
	if st, ok := s.(ScanTimer); ok {
		return st.LastScanShards()
	}
	return 0, 0, 0
}

// setSearchWorkers applies a worker count when the search supports sharded
// scans; other implementations keep their serial behavior.
func setSearchWorkers(s Search, workers int) {
	if ps, ok := s.(ParallelSearch); ok {
		ps.SetWorkers(workers)
	}
}

// sigmaDrops returns σ(S \ {S[pos]}) for every position, using the sharded
// scan when available and a serial loop otherwise. buf is an optional
// scratch slice for the serial fallback.
func sigmaDrops(s Search, buf []int) []int {
	if ps, ok := s.(ParallelSearch); ok {
		return ps.SigmaDrops()
	}
	if cap(buf) < s.Len() {
		buf = make([]int, s.Len())
	}
	buf = buf[:s.Len()]
	for pos := range buf {
		buf[pos] = s.SigmaDrop(pos)
	}
	return buf
}

// ParallelSigma is implemented by problems whose σ oracle can shard its
// per-pair distance checks across workers. SigmaPar(sel, w) must equal
// Sigma(sel) for every worker count.
type ParallelSigma interface {
	SigmaPar(sel []int, workers int) int
}

// SigmaOf evaluates p.Sigma(sel) with the given parallelism when the
// problem supports it, falling back to the serial oracle otherwise.
func SigmaOf(p Problem, sel []int, workers int) int {
	if workers > 1 {
		if ps, ok := p.(ParallelSigma); ok {
			return ps.SigmaPar(sel, workers)
		}
	}
	return p.Sigma(sel)
}

// ParallelFor splits [0, n) into at most `workers` contiguous shards of
// near-equal size and runs fn(shard, lo, hi) on one goroutine per shard,
// returning when all complete. fn must confine its writes to
// shard-indexed or [lo, hi)-indexed state. With workers <= 1 (or n <= 1)
// fn runs inline on the caller's goroutine.
//
// Panic isolation: a panic inside a worker goroutine is recovered there,
// the remaining shards drain normally (the WaitGroup never deadlocks and no
// goroutine leaks), and the first panicking shard — in shard order, for
// determinism — is re-raised on the caller's goroutine as a typed
// *ShardPanicError carrying the shard's index range and stack. Nested
// ParallelFor calls propagate the innermost ShardPanicError unchanged, so
// the reported range always names the scan that actually failed.
func ParallelFor(workers, n int, fn func(shard, lo, hi int)) {
	if n <= 0 {
		return
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		fn(0, 0, n)
		return
	}
	panics := make([]*ShardPanicError, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		lo := n * w / workers
		hi := n * (w + 1) / workers
		if lo >= hi {
			continue
		}
		wg.Add(1)
		go func(shard, lo, hi int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if inner, ok := r.(*ShardPanicError); ok {
						panics[shard] = inner
						return
					}
					panics[shard] = &ShardPanicError{
						Shard: shard, Lo: lo, Hi: hi,
						Value: r, Stack: debug.Stack(),
					}
				}
			}()
			fn(shard, lo, hi)
		}(w, lo, hi)
	}
	wg.Wait()
	for _, p := range panics {
		if p != nil {
			panic(p)
		}
	}
}

// ParBestAdd returns the candidate with the largest σ gain (ties toward
// the lowest candidate index), computing the gains with the given
// parallelism when the search supports sharded scans. It is the parallel
// form of Search.BestAdd and returns identical results for every worker
// count.
func ParBestAdd(s Search, workers int) (cand, gain int) {
	setSearchWorkers(s, workers)
	return s.BestAdd()
}

// ParBestDrop returns the selection position whose removal leaves the
// largest σ (ties toward the lowest position), sharding the per-position
// evaluations when the search supports it. It is the parallel form of
// Search.BestDrop.
func ParBestDrop(s Search, workers int) (pos, sigma int) {
	setSearchWorkers(s, workers)
	return s.BestDrop()
}

// ParBestSwap scans the full (drop, add) swap neighborhood of sel: for
// each drop position it builds a private Search on the remaining selection
// and scans the best addition. Drop positions shard across workers — each
// worker owns its cloned Search and scratch distance buffers, so no state
// is shared — and the per-shard bests reduce deterministically: highest σ
// first, ties toward the lowest drop position, exactly as the serial scan
// resolves them. It returns drop = -1 when no swap yields σ > curSigma.
func ParBestSwap(p Problem, sel []int, curSigma, workers int) (drop, add, sigma int) {
	if len(sel) == 0 {
		return -1, -1, curSigma
	}
	// Workers beyond the position count flow into each position's own
	// candidate scan instead of going idle.
	inner := workers / len(sel)
	if inner < 1 {
		inner = 1
	}
	type swapBest struct {
		drop, add, sigma int
	}
	shards := workers
	if shards > len(sel) {
		shards = len(sel)
	}
	bests := make([]swapBest, shards)
	ParallelFor(workers, len(sel), func(shard, lo, hi int) {
		best := swapBest{drop: -1, add: -1, sigma: curSigma}
		rest := make([]int, 0, len(sel)-1)
		for pos := lo; pos < hi; pos++ {
			rest = append(rest[:0], sel[:pos]...)
			rest = append(rest, sel[pos+1:]...)
			sub := p.NewSearch(rest)
			setSearchWorkers(sub, inner)
			cand, gain := sub.BestAdd()
			if cand < 0 {
				continue // empty candidate universe: nothing to swap in
			}
			if sigma := sub.Sigma() + gain; sigma > best.sigma {
				best = swapBest{drop: pos, add: cand, sigma: sigma}
			}
		}
		bests[shard] = best
	})
	out := swapBest{drop: -1, add: -1, sigma: curSigma}
	for _, b := range bests[:shards] {
		if b.sigma > out.sigma {
			out = b
		}
	}
	return out.drop, out.add, out.sigma
}

// parBestSwapBudget is ParBestSwap under a knapsack budget: a swap is
// admissible only when the incoming candidate fits the headroom freed by
// the dropped one, B − CostOf(sel) + Cost(sel[pos]). The add scan is
// BestAdd's unconditional argmax (ties toward the lowest index, any gain
// sign — the σ > curSigma filter below rejects non-improving swaps)
// restricted to affordable candidates, so under unit costs with B = k it
// reproduces ParBestSwap exactly. Sharding and reduction are identical to
// ParBestSwap.
func parBestSwapBudget(bp BudgetProblem, sel []int, curSigma, workers int) (drop, add, sigma int) {
	if len(sel) == 0 {
		return -1, -1, curSigma
	}
	inner := workers / len(sel)
	if inner < 1 {
		inner = 1
	}
	spent := bp.CostOf(sel)
	type swapBest struct {
		drop, add, sigma int
	}
	shards := workers
	if shards > len(sel) {
		shards = len(sel)
	}
	bests := make([]swapBest, shards)
	ParallelFor(workers, len(sel), func(shard, lo, hi int) {
		best := swapBest{drop: -1, add: -1, sigma: curSigma}
		rest := make([]int, 0, len(sel)-1)
		for pos := lo; pos < hi; pos++ {
			rest = append(rest[:0], sel[:pos]...)
			rest = append(rest, sel[pos+1:]...)
			rem := bp.Budget() - spent + bp.Cost(sel[pos])
			sub := bp.NewSearch(rest)
			setSearchWorkers(sub, inner)
			gains := sub.GainsAdd()
			cand, gain := -1, 0
			for c, g := range gains {
				if bp.Cost(c) <= rem && (cand < 0 || g > gain) {
					cand, gain = c, g
				}
			}
			if cand < 0 {
				continue // no affordable candidate to swap in
			}
			if sigma := sub.Sigma() + gain; sigma > best.sigma {
				best = swapBest{drop: pos, add: cand, sigma: sigma}
			}
		}
		bests[shard] = best
	})
	out := swapBest{drop: -1, add: -1, sigma: curSigma}
	for _, b := range bests[:shards] {
		if b.sigma > out.sigma {
			out = b
		}
	}
	return out.drop, out.add, out.sigma
}

// triRowBounds splits the rows of the upper-triangular candidate grid over
// t nodes (row ai holds the t−1−ai cells with first endpoint ai) into at
// most `workers` contiguous row ranges of roughly equal cell count.
// bounds[w]..bounds[w+1] is shard w's row range; empty ranges are allowed.
func triRowBounds(t, workers int) []int {
	rows := t - 1
	if rows < 1 {
		rows = 1
	}
	if workers > rows {
		workers = rows
	}
	if workers < 1 {
		workers = 1
	}
	total := t * (t - 1) / 2
	bounds := make([]int, workers+1)
	for w := 1; w < workers; w++ {
		target := total * w / workers
		ai := bounds[w-1]
		for ai < rows && rowStart(t, ai) < target {
			ai++
		}
		bounds[w] = ai
	}
	bounds[workers] = rows
	return bounds
}
