package core

import (
	"context"
	"runtime"
	"runtime/debug"
	"sync"
	"time"

	"msc/internal/obs"
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

var _ Problem = (*Instance)(nil)

// RunOptions are the run conditions every solver shares: its worker
// count, trace sink, supervision context and deadline. GreedySigma,
// GreedySigmaCurve, Sandwich, RandomPlacement, Exhaustive and
// ExhaustiveBudget take them as Options; EAOptions, AEAOptions and
// LocalSearchOptions embed them. None of the four changes a placement: a
// run is identical for every worker count, with and without a sink, and
// with or without a context that never fires.
type RunOptions struct {
	// Parallelism is the number of candidate-scan workers: 1 is the fully
	// serial code path; <= 0 resolves via ResolveParallelism.
	Parallelism int
	// Sink, when non-nil, receives one RoundEvent per committed round (a
	// greedy round, an EA/AEA iteration, an applied local-search swap)
	// and, from Sandwich, one closing SandwichEvent; RandomPlacement and
	// the Exhaustive solvers emit nothing. Tracing reads solver state but
	// never steers it, and emission sites nil-check before doing any
	// work, so a nil sink adds nothing to the candidate-scan hot path.
	Sink telemetry.Sink
	// Context supervises the run (see supervise.go); nil means never
	// canceled.
	Context context.Context
	// Deadline bounds the run to this much wall-clock time, composing with
	// Context (whichever fires first wins); <= 0 means no deadline.
	Deadline time.Duration
}

// Option sets run conditions on a solver entry point that takes options:
// Parallelism, WithSink, WithContext and WithDeadline set one each, and a
// RunOptions value sets all four, replacing what earlier options set.
type Option interface{ apply(*RunOptions) }

type optionFunc func(*RunOptions)

func (f optionFunc) apply(r *RunOptions) { f(r) }

func (r RunOptions) apply(dst *RunOptions) { *dst = r }

// Parallelism fixes the number of candidate-scan workers a solver may use.
// n = 1 restores the fully serial code path; n <= 0 (and omitting the
// option) selects runtime.GOMAXPROCS(0).
func Parallelism(n int) Option {
	return optionFunc(func(r *RunOptions) { r.Parallelism = n })
}

// WithSink attaches a telemetry sink to a solver run (RunOptions.Sink). A
// nil sink (or omitting the option) disables tracing.
func WithSink(s telemetry.Sink) Option {
	return optionFunc(func(r *RunOptions) { r.Sink = s })
}

// ResolveParallelism normalizes a Parallelism value: n >= 1 is returned
// unchanged; n <= 0 resolves to runtime.GOMAXPROCS(0).
func ResolveParallelism(n int) int {
	if n >= 1 {
		return n
	}
	return runtime.GOMAXPROCS(0)
}

// resolve applies opts to r and returns the run every entry point
// executes: Parallelism resolved, and a positive Deadline folded into
// Context, with the cancel func that frees its timer (never nil; callers
// defer it). A resolved run resolves to itself, so an entry point can hand
// its run to another — as Sandwich hands its own to the F_σ arm — without
// restarting the clock.
func (r RunOptions) resolve(opts ...Option) (RunOptions, context.CancelFunc) {
	for _, o := range opts {
		o.apply(&r)
	}
	r.Parallelism = ResolveParallelism(r.Parallelism)
	cancel := context.CancelFunc(func() {})
	if r.Deadline > 0 {
		if r.Context == nil {
			r.Context = context.Background()
		}
		r.Context, cancel = context.WithTimeout(r.Context, r.Deadline)
		r.Deadline = 0
	}
	return r, cancel
}

// timed reports whether the run reads its rounds' wall time: only a sink
// or the ops plane does, so an untraced run reads no clock per round.
func (r RunOptions) timed() bool { return r.Sink != nil || obs.Enabled() }

// endRound closes a committed round that began at start: its wall time
// goes to the ops plane and, with a sink attached, ev goes out completed
// with the fields every solver fills alike — σ and σ⁻ split from the
// objective value, the size, μ and ν of the selection sel, the candidate
// count and the elapsed time.
func (r RunOptions) endRound(p Problem, start time.Time, ev telemetry.RoundEvent, sel []int, value int) {
	obs.ObserveRound(time.Since(start))
	if r.Sink == nil {
		return
	}
	ev.Sigma, ev.SigmaWorst = splitObjective(p, value)
	ev.Selected, ev.Candidates = len(sel), p.NumCandidates()
	ev.Mu, ev.Nu = p.Mu(sel), p.Nu(sel)
	ev.ElapsedNS = time.Since(start).Nanoseconds()
	r.Sink.Emit(ev)
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

// ParBestSwap scans the full (drop, add) swap neighborhood of sel: for
// each drop position it builds a private Search on the remaining selection
// and scans the best addition. Drop positions shard across workers — each
// worker owns its cloned Search and scratch distance buffers, so no state
// is shared — and the per-shard bests reduce deterministically: highest σ
// first, ties toward the lowest drop position, exactly as the serial scan
// resolves them. It returns drop = -1 when no swap yields σ > curSigma.
//
// On a budgeted problem a swap is admissible only when the incoming
// candidate fits the headroom freed by the dropped one,
// B − CostOf(sel) + Cost(sel[pos]). The add is then BestAdd's
// unconditional argmax (ties toward the lowest index, any gain sign — the
// σ > curSigma filter rejects non-improving swaps) restricted to
// affordable candidates, so under unit costs with B = k it reproduces the
// cardinality scan exactly. The cardinality scan keeps BestAdd, which
// never materializes the gains array on huge candidate universes.
func ParBestSwap(p Problem, sel []int, curSigma, workers int) (drop, add, sigma int) {
	if len(sel) == 0 {
		return -1, -1, curSigma
	}
	bp, budgeted := asBudgeted(p)
	spent := 0.0
	if budgeted {
		spent = bp.CostOf(sel)
	}
	// Workers beyond the position count flow into each position's own
	// candidate scan instead of going idle.
	inner := max(workers/len(sel), 1)
	type swapBest struct {
		drop, add, sigma int
	}
	bests := make([]swapBest, min(workers, len(sel)))
	ParallelFor(workers, len(sel), func(shard, lo, hi int) {
		best := swapBest{drop: -1, add: -1, sigma: curSigma}
		rest := make([]int, 0, len(sel)-1)
		for pos := lo; pos < hi; pos++ {
			rest = append(rest[:0], sel[:pos]...)
			rest = append(rest, sel[pos+1:]...)
			sub := p.NewSearch(rest)
			sub.SetWorkers(inner)
			var cand, gain int
			if budgeted {
				cand, gain = bestAffordableAdd(sub, bp, bp.Budget()-spent+bp.Cost(sel[pos]))
			} else {
				cand, gain = sub.BestAdd()
			}
			if cand < 0 {
				continue // no (affordable) candidate to swap in
			}
			if sigma := sub.Sigma() + gain; sigma > best.sigma {
				best = swapBest{drop: pos, add: cand, sigma: sigma}
			}
		}
		bests[shard] = best
	})
	out := swapBest{drop: -1, add: -1, sigma: curSigma}
	for _, b := range bests {
		if b.sigma > out.sigma {
			out = b
		}
	}
	return out.drop, out.add, out.sigma
}

// bestAffordableAdd is BestAdd restricted to candidates costing at most
// rem: the first candidate of largest gain among them, or (-1, 0) when
// none is affordable.
func bestAffordableAdd(s Search, bp BudgetProblem, rem float64) (cand, gain int) {
	cand = -1
	for c, g := range s.GainsAdd() {
		if bp.Cost(c) <= rem && (cand < 0 || g > gain) {
			cand, gain = c, g
		}
	}
	return cand, gain
}

// argmax returns the first index of the largest value in xs and that
// value, or (-1, 0) when xs is empty.
func argmax(xs []int) (idx, val int) {
	if len(xs) == 0 {
		return -1, 0
	}
	idx, val = 0, xs[0]
	for i := 1; i < len(xs); i++ {
		if xs[i] > val {
			idx, val = i, xs[i]
		}
	}
	return idx, val
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
