package core

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/xrand"
)

// This file locks in the anytime-solver contract: a canceled or expired
// context stops every solver at its next supervision point with the best
// feasible placement found so far and a typed stop reason; an uncancelled
// supervised run is bit-identical to an unsupervised one; and a panicking
// scan shard surfaces as a typed *ShardPanicError without leaking
// goroutines.

func canceledCtx() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func checkFeasibleStop(t *testing.T, what string, pl Placement, p Problem, want StopReason) {
	t.Helper()
	if pl.Stop.Reason != want {
		t.Fatalf("%s: Stop.Reason = %q, want %q", what, pl.Stop.Reason, want)
	}
	if len(pl.Selection) > p.K() {
		t.Fatalf("%s: |F| = %d exceeds budget %d", what, len(pl.Selection), p.K())
	}
	if got := p.Sigma(pl.Selection); got != pl.Sigma {
		t.Fatalf("%s: reported σ = %d, recomputed %d", what, pl.Sigma, got)
	}
	if pl.Stop.Sigma != pl.Sigma {
		t.Fatalf("%s: Stop.Sigma = %d, placement σ = %d", what, pl.Stop.Sigma, pl.Sigma)
	}
}

func TestGreedySigmaCanceledReturnsBestSoFar(t *testing.T) {
	inst := testInstance(t, 24, 10, 4, 0.9, xrand.New(11))
	pl := GreedySigma(inst, WithContext(canceledCtx()))
	checkFeasibleStop(t, "GreedySigma", pl, inst, StopCanceled)
	if pl.Stop.Rounds != 0 {
		t.Fatalf("pre-canceled run committed %d rounds", pl.Stop.Rounds)
	}
}

func TestGreedySigmaDeadline(t *testing.T) {
	inst := testInstance(t, 24, 10, 4, 0.9, xrand.New(12))
	pl := GreedySigma(inst, WithDeadline(time.Nanosecond))
	checkFeasibleStop(t, "GreedySigma", pl, inst, StopDeadline)
}

func TestSandwichDeadline(t *testing.T) {
	inst := testInstance(t, 24, 10, 4, 0.9, xrand.New(13))
	res := Sandwich(inst, WithDeadline(time.Nanosecond))
	if res.Best.Stop.Reason != StopDeadline {
		t.Fatalf("Sandwich Stop.Reason = %q, want %q", res.Best.Stop.Reason, StopDeadline)
	}
	if len(res.Best.Selection) > inst.K() {
		t.Fatalf("|F| = %d exceeds budget %d", len(res.Best.Selection), inst.K())
	}
}

func TestEADeadlineAndCancel(t *testing.T) {
	inst := testInstance(t, 20, 8, 3, 0.9, xrand.New(14))
	res := EA(inst, EAOptions{Iterations: 50, RunOptions: RunOptions{Context: canceledCtx()}}, xrand.New(1))
	checkFeasibleStop(t, "EA canceled", res.Best, inst, StopCanceled)
	if res.Best.Stop.Rounds != 0 {
		t.Fatalf("pre-canceled EA committed %d rounds", res.Best.Stop.Rounds)
	}
	res = EA(inst, EAOptions{Iterations: 50, RunOptions: RunOptions{Deadline: time.Nanosecond}}, xrand.New(1))
	checkFeasibleStop(t, "EA deadline", res.Best, inst, StopDeadline)
}

func TestAEADeadlineAndCancel(t *testing.T) {
	inst := testInstance(t, 20, 8, 3, 0.9, xrand.New(15))
	opts := DefaultAEAOptions()
	opts.Iterations = 50
	opts.Context = canceledCtx()
	res := AEA(inst, opts, xrand.New(1))
	checkFeasibleStop(t, "AEA canceled", res.Best, inst, StopCanceled)
	opts.Context = nil
	opts.Deadline = time.Nanosecond
	res = AEA(inst, opts, xrand.New(1))
	checkFeasibleStop(t, "AEA deadline", res.Best, inst, StopDeadline)
}

// scanCounter counts the BestAdd scans of its searches and calls onScan
// after each one.
type scanCounter struct {
	*Instance
	onScan func()
	scans  int
}

func (p *scanCounter) NewSearch(sel []int) Search {
	return &countedSearch{Search: p.Instance.NewSearch(sel), p: p}
}

type countedSearch struct {
	Search
	p *scanCounter
}

func (s *countedSearch) BestAdd() (cand, gain int) {
	cand, gain = s.Search.BestAdd()
	s.p.scans++
	s.p.onScan()
	return cand, gain
}

// TestSeedGreedyCanceled checks that AEA's seed greedy runs under the
// AEA's run control: a context canceled during the greedy's first scan, or
// a deadline that has expired by then, stops the greedy after that scan,
// and the AEA stops before its first iteration.
func TestSeedGreedyCanceled(t *testing.T) {
	inst := testInstance(t, 20, 8, 3, 0.9, xrand.New(15))
	if full := GreedySigma(inst); len(full.Selection) < 2 {
		t.Fatalf("the uncanceled greedy places %d shortcuts; the test needs a second round", len(full.Selection))
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	for _, tc := range []struct {
		name string
		run  RunOptions
		stop StopReason
	}{
		{"canceled", RunOptions{Context: ctx}, StopCanceled},
		{"deadline", RunOptions{Deadline: time.Nanosecond}, StopDeadline},
	} {
		p := &scanCounter{Instance: inst, onScan: cancel}
		if tc.stop == StopDeadline {
			p.onScan = func() { time.Sleep(time.Millisecond) }
		}
		opts := AEAOptions{Iterations: 50, PopSize: 4, Delta: 0.05, SeedGreedy: true, RunOptions: tc.run}
		res := AEA(p, opts, xrand.New(1))
		if p.scans != 1 {
			t.Errorf("%s: the seed greedy ran %d scans, want 1", tc.name, p.scans)
		}
		checkFeasibleStop(t, "SeedGreedy AEA "+tc.name, res.Best, inst, tc.stop)
		if res.Best.Stop.Rounds != 0 {
			t.Errorf("%s: AEA ran %d iterations after its seed greedy stopped", tc.name, res.Best.Stop.Rounds)
		}
	}
}

func TestLocalSearchCanceled(t *testing.T) {
	inst := testInstance(t, 20, 8, 3, 0.9, xrand.New(16))
	start := xrand.New(2).SampleDistinct(inst.NumCandidates(), inst.K())
	pl := LocalSearch(inst, start, LocalSearchOptions{RunOptions: RunOptions{Context: canceledCtx()}})
	checkFeasibleStop(t, "LocalSearch", pl, inst, StopCanceled)
}

func TestRandomPlacementCanceled(t *testing.T) {
	inst := testInstance(t, 20, 8, 3, 0.9, xrand.New(17))
	for _, workers := range []int{1, 4} {
		pl, err := RandomPlacement(inst, 30, xrand.New(3), WithContext(canceledCtx()), Parallelism(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		checkFeasibleStop(t, "RandomPlacement", pl, inst, StopCanceled)
		if pl.Stop.Rounds != 0 {
			t.Fatalf("workers=%d: pre-canceled run evaluated %d trials", workers, pl.Stop.Rounds)
		}
	}
}

func TestExhaustiveCanceled(t *testing.T) {
	inst := testInstance(t, 12, 5, 2, 0.9, xrand.New(18))
	for _, workers := range []int{1, 4} {
		pl, err := Exhaustive(inst, 1<<20, WithContext(canceledCtx()), Parallelism(workers))
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		if pl.Stop.Reason != StopCanceled {
			t.Fatalf("workers=%d: Stop.Reason = %q, want %q", workers, pl.Stop.Reason, StopCanceled)
		}
		// Canceled before any evaluation: the honest answer is the empty
		// placement with its true σ, not a junk selection.
		if got := inst.Sigma(pl.Selection); got != pl.Sigma {
			t.Fatalf("workers=%d: reported σ = %d, recomputed %d", workers, pl.Sigma, got)
		}
	}
}

// TestSupervisedUncancelledIdentical is the determinism half of the
// contract: attaching a live context must not change any placement bit.
func TestSupervisedUncancelledIdentical(t *testing.T) {
	inst := testInstance(t, 24, 10, 4, 0.9, xrand.New(19))
	ctx := context.Background()

	plain := GreedySigma(inst)
	ctxed := GreedySigma(inst, WithContext(ctx))
	comparePlacements(t, "GreedySigma", plain, ctxed)

	swPlain := Sandwich(inst)
	swCtx := Sandwich(inst, WithContext(ctx))
	comparePlacements(t, "Sandwich.Best", swPlain.Best, swCtx.Best)

	eaPlain := EA(inst, EAOptions{Iterations: 40}, xrand.New(7))
	eaCtx := EA(inst, EAOptions{Iterations: 40, RunOptions: RunOptions{Context: ctx}}, xrand.New(7))
	comparePlacements(t, "EA.Best", eaPlain.Best, eaCtx.Best)
	if eaPlain.Evaluations != eaCtx.Evaluations {
		t.Fatalf("EA evaluations differ: %d vs %d", eaPlain.Evaluations, eaCtx.Evaluations)
	}

	aeaOpts := DefaultAEAOptions()
	aeaOpts.Iterations = 40
	aeaPlain := AEA(inst, aeaOpts, xrand.New(7))
	aeaOpts.Context = ctx
	aeaCtx := AEA(inst, aeaOpts, xrand.New(7))
	comparePlacements(t, "AEA.Best", aeaPlain.Best, aeaCtx.Best)
}

func TestInputErrors(t *testing.T) {
	inst := testInstance(t, 16, 6, 3, 0.9, xrand.New(20))
	var ierr *InputError

	if _, err := RandomPlacement(inst, 0, xrand.New(1)); !errors.As(err, &ierr) || ierr.Param != "trials" {
		t.Fatalf("RandomPlacement(trials=0) err = %v", err)
	}
	if _, err := RandomPlacement(inst, -3, xrand.New(1)); !errors.As(err, &ierr) {
		t.Fatalf("RandomPlacement(trials=-3) err = %v", err)
	}
	if _, err := Exhaustive(inst, 0); !errors.As(err, &ierr) || ierr.Param != "maxEvals" {
		t.Fatalf("Exhaustive(maxEvals=0) err = %v", err)
	}

	// A budget above the candidate count is structurally impossible to
	// fill with distinct edges: typed error, not a silent clamp.
	big := overBudgetInstance(t)
	if _, err := RandomPlacement(big, 5, xrand.New(1)); !errors.As(err, &ierr) || ierr.Param != "k" {
		t.Fatalf("RandomPlacement(k>numCand) err = %v", err)
	}
	if _, err := Exhaustive(big, 100); !errors.As(err, &ierr) || ierr.Param != "k" {
		t.Fatalf("Exhaustive(k>numCand) err = %v", err)
	}
}

// TestInputErrorMessage pins the message of both kinds of *InputError
// site: a site that names the rejected value prints it (also when it is
// 0), and a site whose reason already states it prints no value.
func TestInputErrorMessage(t *testing.T) {
	inst := testInstance(t, 16, 6, 3, 0.9, xrand.New(20))
	g, ps := inst.Graph(), inst.Pairs()
	errOf := func(_ any, err error) error { return err }
	for _, tc := range []struct {
		name string
		err  error
		want string
	}{
		{"trials = 0", errOf(RandomPlacement(inst, 0, xrand.New(1))),
			"core: invalid trials = 0: must be at least 1"},
		{"k over the candidates", errOf(Exhaustive(overBudgetInstance(t), 100)),
			"core: invalid k = 5: budget exceeds the 3 candidate edges"},
		{"cost table length", errOf(NewInstance(g, ps, thrD(0.9), 3, &Options{AllowTrivial: true, Costs: []float64{1, 2}})),
			"core: invalid costs = 2: cost table length does not match the 120 candidate edges"},
		{"NaN threshold", errOf(NewInstance(g, ps, thrD(math.NaN()), 3, &Options{AllowTrivial: true})),
			"core: invalid threshold: d_t must not be NaN"},
		{"NaN budget", errOf(NewInstance(g, ps, thrD(0.9), 3, &Options{AllowTrivial: true, Budget: math.NaN()})),
			"core: invalid budget: budget B = NaN must be finite and non-negative"},
	} {
		var ie *InputError
		if !errors.As(tc.err, &ie) {
			t.Errorf("%s: got %v, want *InputError", tc.name, tc.err)
			continue
		}
		if got := ie.Error(); got != tc.want {
			t.Errorf("%s: message %q, want %q", tc.name, got, tc.want)
		}
	}
}

// overBudgetInstance builds a 3-node path instance whose budget k = 5
// exceeds its 3 candidate edges.
func overBudgetInstance(t *testing.T) *Instance {
	t.Helper()
	g, err := graph.NewBuilder(3).AddEdge(0, 1, 1).AddEdge(1, 2, 1).Build()
	if err != nil {
		t.Fatal(err)
	}
	ps, err := pairs.NewSet(3, []pairs.Pair{{U: 0, W: 2}})
	if err != nil {
		t.Fatal(err)
	}
	inst, err := NewInstance(g, ps, failprob.Threshold{P: 1 - math.Exp(-0.5), D: 0.5}, 5,
		&Options{AllowTrivial: true})
	if err != nil {
		t.Fatal(err)
	}
	if inst.K() <= inst.NumCandidates() {
		t.Fatalf("instance has k=%d <= %d candidates; fixture broken", inst.K(), inst.NumCandidates())
	}
	return inst
}

func TestShardPanicIsolation(t *testing.T) {
	before := runtime.NumGoroutine()
	var got *ShardPanicError
	func() {
		defer func() {
			r := recover()
			if r == nil {
				t.Fatal("panic did not propagate")
			}
			var ok bool
			got, ok = r.(*ShardPanicError)
			if !ok {
				t.Fatalf("recovered %T, want *ShardPanicError", r)
			}
		}()
		ParallelFor(4, 100, func(shard, lo, hi int) {
			if shard == 2 {
				panic("injected shard failure")
			}
		})
	}()
	if got.Shard != 2 {
		t.Fatalf("Shard = %d, want 2", got.Shard)
	}
	if got.Lo >= got.Hi || got.Lo < 0 || got.Hi > 100 {
		t.Fatalf("range [%d, %d) not a sub-range of [0, 100)", got.Lo, got.Hi)
	}
	if got.Value != "injected shard failure" {
		t.Fatalf("Value = %v", got.Value)
	}
	if len(got.Stack) == 0 {
		t.Fatal("no stack captured")
	}
	if !strings.Contains(got.Error(), "shard 2") {
		t.Fatalf("Error() = %q, want shard index mentioned", got.Error())
	}
	// All non-panicking shards must have drained: no goroutine leak.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if after := runtime.NumGoroutine(); after > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, after)
	}
}

// TestShardPanicFirstInShardOrder pins the deterministic choice when
// several shards panic at once.
func TestShardPanicFirstInShardOrder(t *testing.T) {
	defer func() {
		r := recover()
		sp, ok := r.(*ShardPanicError)
		if !ok {
			t.Fatalf("recovered %T, want *ShardPanicError", r)
		}
		if sp.Shard != 1 {
			t.Fatalf("Shard = %d, want lowest panicking shard 1", sp.Shard)
		}
	}()
	ParallelFor(4, 40, func(shard, lo, hi int) {
		if shard >= 1 {
			panic(shard)
		}
	})
}

// TestShardPanicNestedUnchanged: a ShardPanicError crossing an outer
// ParallelFor keeps naming the scan that actually failed.
func TestShardPanicNestedUnchanged(t *testing.T) {
	defer func() {
		sp, ok := recover().(*ShardPanicError)
		if !ok {
			t.Fatal("want *ShardPanicError")
		}
		// The inner scan splits [0, 5) over 2 shards; its first panicking
		// shard is 0 with range [0, 2). The outer ParallelFor must pass
		// that error through untouched, not rewrap it with its own range.
		if sp.Value != "inner" || sp.Shard != 0 || sp.Lo != 0 || sp.Hi != 2 {
			t.Fatalf("inner error rewritten: %+v", sp)
		}
	}()
	ParallelFor(2, 10, func(shard, lo, hi int) {
		if shard == 1 {
			ParallelFor(2, 5, func(s, l, h int) {
				panic("inner")
			})
		}
	})
}

// TestGreedySigmaLiveCancelMidRun drives a real mid-run cancellation (not
// a pre-canceled context) through the in-scan polling path and checks the
// result is still a feasible prefix of the greedy run.
func TestGreedySigmaLiveCancelMidRun(t *testing.T) {
	inst := testInstance(t, 40, 16, 6, 0.95, xrand.New(22))
	full := GreedySigma(inst)
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(100 * time.Microsecond)
		cancel()
	}()
	pl := GreedySigma(inst, WithContext(ctx))
	if len(pl.Selection) > len(full.Selection) {
		t.Fatalf("canceled run selected more (%d) than full run (%d)", len(pl.Selection), len(full.Selection))
	}
	switch pl.Stop.Reason {
	case StopCanceled:
		// The committed rounds must be a prefix of the uncancelled run:
		// greedy's choice sequence is deterministic.
		for i, c := range pl.Selection {
			if full.Selection[i] != c {
				t.Fatalf("canceled selection %v not a prefix of %v", pl.Selection, full.Selection)
			}
		}
	case StopConverged:
		comparePlacements(t, "GreedySigma raced-to-completion", full, pl)
	default:
		t.Fatalf("unexpected stop reason %q", pl.Stop.Reason)
	}
}
