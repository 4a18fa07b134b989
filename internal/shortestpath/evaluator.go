package shortestpath

import (
	"fmt"
	"runtime/debug"
	"sync"

	"msc/internal/graph"
)

// PanicError carries a panic recovered from an evaluator worker goroutine
// back to the caller's goroutine. Without it an evaluator-shard panic
// would crash the whole process (nothing can recover a panic on another
// goroutine); with it the panic unwinds the caller's stack like any
// other, where core.ParallelFor or a test harness can catch and type it.
type PanicError struct {
	// Shard is the panicking worker's index; Lo/Hi its query range.
	Shard, Lo, Hi int
	// Value is the original panic value.
	Value any
	// Stack is the panicking goroutine's stack trace.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("shortestpath: panic in evaluator shard %d (queries [%d,%d)): %v", e.Shard, e.Lo, e.Hi, e.Value)
}

// Evaluator batches distance queries against one Overlay across multiple
// goroutines. An Overlay is immutable after construction, so per-pair Dist
// and per-source DistBall queries are embarrassingly parallel; the
// evaluator shards query lists into contiguous blocks, one goroutine per
// shard, and reduces per-shard totals in shard order. Results are
// therefore deterministic and identical to a serial scan for every worker
// count.
type Evaluator struct {
	ov      *Overlay
	workers int
}

// NewEvaluator wraps an overlay oracle with a worker count. workers <= 1
// yields serial evaluation.
func NewEvaluator(ov *Overlay, workers int) *Evaluator {
	if workers < 1 {
		workers = 1
	}
	return &Evaluator{ov: ov, workers: workers}
}

// CountWithin returns the total weight of query pairs (us[i], ws[i]) whose
// augmented distance is at most bound. weights may be nil, giving every
// pair weight 1. The per-shard sums are exact integer arithmetic, so the
// result equals the serial scan's for any worker count.
func (e *Evaluator) CountWithin(us, ws []graph.NodeID, weights []int32, bound float64) int {
	if len(us) != len(ws) {
		panic("shortestpath: CountWithin query length mismatch")
	}
	count := func(lo, hi int) int {
		total := 0
		for i := lo; i < hi; i++ {
			if e.ov.Dist(us[i], ws[i]) <= bound {
				if weights == nil {
					total++
				} else {
					total += int(weights[i])
				}
			}
		}
		return total
	}
	if e.workers <= 1 || len(us) < 2*e.workers {
		return count(0, len(us))
	}
	totals := make([]int, e.workers)
	e.shard(len(us), func(shard, lo, hi int) {
		totals[shard] = count(lo, hi)
	})
	total := 0
	for _, t := range totals {
		total += t
	}
	return total
}

// DistBalls sets balls[i] to the augmented ball of srcs[i] at bound (see
// Overlay.DistBall), reusing each entry's slices, one source per unit of
// sharded work; each shard merges in its own merger from mergers. Each
// call owns its output entry, so the balls are independent and identical
// for every worker count.
func (e *Evaluator) DistBalls(base BallSource, mergers *Mergers, bound float64, srcs []graph.NodeID, balls []Ball) {
	if len(srcs) != len(balls) {
		panic("shortestpath: DistBalls length mismatch")
	}
	run := func(_, lo, hi int) {
		m := mergers.Get()
		for i := lo; i < hi; i++ {
			balls[i] = e.ov.DistBall(base, m, srcs[i], bound, Ball{IDs: balls[i].IDs[:0], Dist: balls[i].Dist[:0]})
		}
		mergers.Put(m)
	}
	if e.workers <= 1 || len(srcs) < 2 {
		run(0, 0, len(srcs))
		return
	}
	e.shard(len(srcs), run)
}

// shard splits [0, n) into contiguous blocks, one goroutine per non-empty
// block, and waits for all of them. A panic inside a worker is recovered
// there — so every other shard drains and the WaitGroup completes — and
// the first panicking shard, in shard order, is re-raised on the caller's
// goroutine as a *PanicError.
func (e *Evaluator) shard(n int, fn func(shard, lo, hi int)) {
	workers := e.workers
	if workers > n {
		workers = n
	}
	panics := make([]*PanicError, workers)
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
					if inner, ok := r.(*PanicError); ok {
						panics[shard] = inner
						return
					}
					panics[shard] = &PanicError{Shard: shard, Lo: lo, Hi: hi, Value: r, Stack: debug.Stack()}
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
