package core

import (
	"context"
	"errors"
	"fmt"
	"time"
)

// This file is the solver supervision layer: cancellation, deadlines, stop
// reporting, panic isolation, and argument validation. Every solver entry
// point takes its context and deadline in its RunOptions (WithContext and
// WithDeadline, or the Context and Deadline fields the EA, AEA and
// LocalSearch options structs embed), resolves them once into one context
// (RunOptions.resolve), and honors it at round boundaries — always BEFORE
// committing the round's result, so a run that is never canceled
// produces byte-identical placements to a run with no context at all. Long
// sharded candidate scans additionally poll the context between rows
// (Search.SetContext), bounding cancellation latency on large instances
// without perturbing any scan result: a canceled scan's partial output is
// discarded by the solver, never merged.

// StopReason classifies why a solver run ended.
type StopReason string

const (
	// StopConverged: the solver ran to its natural end — greedy filled the
	// budget or ran out of positive gains, Exhaustive enumerated every
	// subset, LocalSearch reached a local optimum.
	StopConverged StopReason = "converged"
	// StopDeadline: the supervision context's deadline expired.
	StopDeadline StopReason = "deadline"
	// StopCanceled: the supervision context was canceled (e.g. SIGINT).
	StopCanceled StopReason = "canceled"
	// StopEvalBudget: a randomized solver exhausted its configured
	// iteration/trial budget without converging in any structural sense.
	StopEvalBudget StopReason = "eval_budget"
)

// StopInfo describes how a solver run ended: why it stopped, how many rounds
// (greedy rounds, EA/AEA iterations, random trials, local-search passes) it
// completed, and the σ of the placement it returned. Solvers attach it to
// Placement.Stop; a cancelled run still returns the best feasible placement
// found so far.
type StopInfo struct {
	Reason StopReason
	Rounds int
	Sigma  int
}

// WithContext attaches a supervision context to a solver run
// (RunOptions.Context). Solvers check it at round boundaries and inside
// sharded candidate scans; once the context is done they stop early and
// return the best feasible placement found so far, with
// Placement.Stop.Reason set to StopDeadline or StopCanceled. A nil ctx
// (or omitting the option) disables supervision. Uncancelled runs are
// byte-identical with or without a context.
func WithContext(ctx context.Context) Option {
	return optionFunc(func(r *RunOptions) { r.Context = ctx })
}

// WithDeadline bounds a solver run to d of wall-clock time
// (RunOptions.Deadline), composing with WithContext when both are given
// (whichever limit fires first wins). d <= 0 means no deadline.
func WithDeadline(d time.Duration) Option {
	return optionFunc(func(r *RunOptions) { r.Deadline = d })
}

// err reports the run's supervision status: nil while it may continue
// (always, without a context), the context error once it must stop.
func (r RunOptions) err() error {
	if r.Context == nil {
		return nil
	}
	return r.Context.Err()
}

// stopReasonFor maps a context error to the StopReason it represents.
func stopReasonFor(err error) StopReason {
	if errors.Is(err, context.DeadlineExceeded) {
		return StopDeadline
	}
	return StopCanceled
}

// ShardPanicError reports a panic recovered inside a ParallelFor worker
// goroutine. The shard supervisor recovers the panic, lets every other shard
// drain (no deadlocked WaitGroup, no leaked goroutines), and re-panics with
// this typed value on the caller's goroutine, preserving the candidate range
// the shard owned and the worker's stack trace.
type ShardPanicError struct {
	Shard  int    // shard index that panicked
	Lo, Hi int    // the half-open index range the shard owned
	Value  any    // the recovered panic value
	Stack  []byte // the worker goroutine's stack at panic time
}

func (e *ShardPanicError) Error() string {
	return fmt.Sprintf("core: panic in scan shard %d (range [%d,%d)): %v", e.Shard, e.Lo, e.Hi, e.Value)
}

// InputError reports a structurally invalid solver argument — a negative
// evaluation budget, more shortcuts requested than candidate edges exist —
// rejected up front instead of silently misbehaving.
type InputError struct {
	Param  string // the offending parameter name
	Value  any    // the rejected value; nil when the reason states it
	Reason string
}

func (e *InputError) Error() string {
	if e.Value == nil {
		return fmt.Sprintf("core: invalid %s: %s", e.Param, e.Reason)
	}
	return fmt.Sprintf("core: invalid %s = %v: %s", e.Param, e.Value, e.Reason)
}
