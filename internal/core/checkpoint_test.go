package core

import (
	"bytes"
	"context"
	"reflect"
	"testing"

	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// This file locks in the checkpoint/resume contract for the evolutionary
// algorithms: a run stopped at iteration r and resumed from its
// checkpoint is bit-identical — population, best, RNG position,
// evaluation counts, final placement — to the run that never stopped.

// lastCheckpointOf pulls the final CheckpointEvent a memSink collected.
func lastCheckpointOf(t *testing.T, s *memSink) *telemetry.CheckpointEvent {
	t.Helper()
	s.mu.Lock()
	defer s.mu.Unlock()
	var last *telemetry.CheckpointEvent
	for _, e := range s.events {
		if cp, ok := e.(telemetry.CheckpointEvent); ok {
			c := cp
			last = &c
		}
	}
	if last == nil {
		t.Fatal("sink collected no checkpoint")
	}
	return last
}

// cancelAfterSink cancels a context once it has seen n RoundEvents —
// a deterministic mid-run cancellation landing exactly on the iteration
// boundary after round n.
type cancelAfterSink struct {
	n      int
	seen   int
	cancel context.CancelFunc
}

func (s *cancelAfterSink) Emit(e telemetry.Event) {
	if _, ok := e.(telemetry.RoundEvent); !ok {
		return
	}
	s.seen++
	if s.seen == s.n {
		s.cancel()
	}
}

func TestEACheckpointResumeBitIdentical(t *testing.T) {
	inst := testInstance(t, 24, 10, 4, 0.9, xrand.New(31))
	const total, stopAt = 80, 33

	// Straight-through reference run.
	refSink := &memSink{}
	ref := EA(inst, EAOptions{Iterations: total, CheckpointSink: refSink}, xrand.New(5))
	refCP := lastCheckpointOf(t, refSink)

	// Stage 1: same run, canceled deterministically after stopAt rounds.
	ctx, cancel := context.WithCancel(context.Background())
	stage1Sink := &memSink{}
	stage1 := EA(inst, EAOptions{
		Iterations:     total,
		RunOptions:     RunOptions{Context: ctx, Sink: &cancelAfterSink{n: stopAt, cancel: cancel}},
		CheckpointSink: stage1Sink,
	}, xrand.New(5))
	cancel()
	if stage1.Best.Stop.Reason != StopCanceled {
		t.Fatalf("stage 1 Stop.Reason = %q, want %q", stage1.Best.Stop.Reason, StopCanceled)
	}
	if stage1.Best.Stop.Rounds != stopAt {
		t.Fatalf("stage 1 stopped after %d rounds, want %d", stage1.Best.Stop.Rounds, stopAt)
	}
	cp := lastCheckpointOf(t, stage1Sink)
	if cp.Round != stopAt {
		t.Fatalf("checkpoint at round %d, want %d", cp.Round, stopAt)
	}

	// Stage 2: resume from the cancellation checkpoint to the same total.
	stage2Sink := &memSink{}
	stage2 := EA(inst, EAOptions{
		Iterations:     total,
		Resume:         cp,
		CheckpointSink: stage2Sink,
	}, xrand.New(999)) // seed irrelevant: Resume repositions the RNG
	resCP := lastCheckpointOf(t, stage2Sink)

	comparePlacements(t, "EA resumed vs straight", ref.Best, stage2.Best)
	if ref.Evaluations != stage2.Evaluations {
		t.Fatalf("evaluations differ: straight %d, resumed %d", ref.Evaluations, stage2.Evaluations)
	}
	if ref.PopulationSize != stage2.PopulationSize {
		t.Fatalf("population sizes differ: straight %d, resumed %d", ref.PopulationSize, stage2.PopulationSize)
	}
	if !reflect.DeepEqual(refCP, resCP) {
		t.Fatalf("final checkpoints differ:\nstraight: %+v\nresumed:  %+v", refCP, resCP)
	}
}

func TestAEACheckpointResumeBitIdentical(t *testing.T) {
	inst := testInstance(t, 24, 10, 4, 0.9, xrand.New(32))
	const total, stopAt = 60, 21

	base := DefaultAEAOptions()
	base.Iterations = total

	refOpts := base
	refSink := &memSink{}
	refOpts.CheckpointSink = refSink
	ref := AEA(inst, refOpts, xrand.New(6))
	refCP := lastCheckpointOf(t, refSink)

	ctx, cancel := context.WithCancel(context.Background())
	s1Opts := base
	s1Sink := &memSink{}
	s1Opts.Context = ctx
	s1Opts.Sink = &cancelAfterSink{n: stopAt, cancel: cancel}
	s1Opts.CheckpointSink = s1Sink
	stage1 := AEA(inst, s1Opts, xrand.New(6))
	cancel()
	if stage1.Best.Stop.Reason != StopCanceled || stage1.Best.Stop.Rounds != stopAt {
		t.Fatalf("stage 1 stop = %+v, want canceled at round %d", stage1.Best.Stop, stopAt)
	}
	cp := lastCheckpointOf(t, s1Sink)
	if cp.Round != stopAt {
		t.Fatalf("checkpoint at round %d, want %d", cp.Round, stopAt)
	}

	s2Opts := base
	s2Sink := &memSink{}
	s2Opts.Resume = cp
	s2Opts.CheckpointSink = s2Sink
	stage2 := AEA(inst, s2Opts, xrand.New(404))
	resCP := lastCheckpointOf(t, s2Sink)

	comparePlacements(t, "AEA resumed vs straight", ref.Best, stage2.Best)
	if !reflect.DeepEqual(refCP, resCP) {
		t.Fatalf("final checkpoints differ:\nstraight: %+v\nresumed:  %+v", refCP, resCP)
	}
}

// TestEACheckpointCadence: CheckpointEvery > 0 emits periodic snapshots
// plus the final one; every intermediate snapshot is itself resumable to
// the same end state.
func TestEACheckpointCadence(t *testing.T) {
	inst := testInstance(t, 20, 8, 3, 0.9, xrand.New(33))
	const total, every = 40, 10
	sink := &memSink{}
	ref := EA(inst, EAOptions{Iterations: total, CheckpointSink: sink, CheckpointEvery: every}, xrand.New(9))

	sink.mu.Lock()
	var cps []telemetry.CheckpointEvent
	for _, e := range sink.events {
		if cp, ok := e.(telemetry.CheckpointEvent); ok {
			cps = append(cps, cp)
		}
	}
	sink.mu.Unlock()
	// Rounds 10, 20, 30 periodic + 40 final.
	wantRounds := []int{10, 20, 30, 40}
	if len(cps) != len(wantRounds) {
		t.Fatalf("got %d checkpoints, want %d", len(cps), len(wantRounds))
	}
	for i, cp := range cps {
		if cp.Round != wantRounds[i] {
			t.Fatalf("checkpoint %d at round %d, want %d", i, cp.Round, wantRounds[i])
		}
	}
	for _, cp := range cps[:len(cps)-1] {
		c := cp
		resumed := EA(inst, EAOptions{Iterations: total, Resume: &c}, xrand.New(123))
		comparePlacements(t, "EA resumed from cadence checkpoint", ref.Best, resumed.Best)
		if resumed.Evaluations != ref.Evaluations {
			t.Fatalf("resume from round %d: evaluations %d, want %d", c.Round, resumed.Evaluations, ref.Evaluations)
		}
	}
}

// TestCheckpointRoundTripsThroughJSONL: the file protocol mscplace uses —
// JSONLSink out, LastCheckpoint back — preserves the snapshot exactly.
func TestCheckpointRoundTripsThroughJSONL(t *testing.T) {
	inst := testInstance(t, 20, 8, 3, 0.9, xrand.New(34))
	var buf bytes.Buffer
	jsink := telemetry.NewJSONL(&buf)
	ref := EA(inst, EAOptions{Iterations: 30, CheckpointSink: jsink, CheckpointEvery: 7}, xrand.New(11))
	if err := jsink.Err(); err != nil {
		t.Fatal(err)
	}
	cp, err := telemetry.LastCheckpoint(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if cp.Algorithm != "ea" || cp.Round != 30 {
		t.Fatalf("last checkpoint = %+v, want ea at round 30", cp)
	}
	resumed := EA(inst, EAOptions{Iterations: 30, Resume: cp}, xrand.New(77))
	comparePlacements(t, "EA resumed from JSONL", ref.Best, resumed.Best)
}

func TestLastCheckpointErrors(t *testing.T) {
	if _, err := telemetry.LastCheckpoint(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream should error")
	}
	if _, err := telemetry.LastCheckpoint(bytes.NewReader([]byte("{\"event\":\"round\"}\n"))); err == nil {
		t.Fatal("stream without checkpoints should error")
	}
	if _, err := telemetry.LastCheckpoint(bytes.NewReader([]byte("not json\n"))); err == nil {
		t.Fatal("malformed stream should error")
	}
}

func TestCheckpointDue(t *testing.T) {
	cases := []struct {
		done, total, every int
		want               bool
	}{
		{10, 100, 10, true},
		{15, 100, 10, false},
		{100, 100, 10, true}, // final state always snapshots
		{100, 100, 0, true},
		{50, 100, 0, false},
	}
	for _, tc := range cases {
		if got := checkpointDue(tc.done, tc.total, tc.every); got != tc.want {
			t.Errorf("checkpointDue(%d, %d, %d) = %v, want %v", tc.done, tc.total, tc.every, got, tc.want)
		}
	}
}

func TestCheckResumePanicsOnMismatch(t *testing.T) {
	cp := &telemetry.CheckpointEvent{Algorithm: "ea", Round: 10}
	mustPanic := func(name string, f func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Fatalf("%s: expected panic", name)
			}
		}()
		f()
	}
	mustPanic("algorithm mismatch", func() { checkResume("aea", cp, 100) })
	mustPanic("round beyond budget", func() { checkResume("ea", cp, 5) })
}
