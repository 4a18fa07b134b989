package sweep

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"msc/internal/telemetry"
)

// fakeRunner implements Runner in-process: per-scenario canned records or
// errors, with concurrency accounting.
type fakeRunner struct {
	mu          sync.Mutex
	inFlight    int
	maxInFlight int
	calls       atomic.Int64
	delay       time.Duration
	fail        func(sc Scenario) error
	record      func(sc Scenario) telemetry.RunRecord
}

func (f *fakeRunner) Run(ctx context.Context, sc Scenario) (telemetry.RunRecord, error) {
	f.calls.Add(1)
	f.mu.Lock()
	f.inFlight++
	if f.inFlight > f.maxInFlight {
		f.maxInFlight = f.inFlight
	}
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.inFlight--
		f.mu.Unlock()
	}()
	if f.delay > 0 {
		time.Sleep(f.delay)
	}
	if f.fail != nil {
		if err := f.fail(sc); err != nil {
			return telemetry.RunRecord{}, err
		}
	}
	if f.record != nil {
		return f.record(sc), nil
	}
	return telemetry.RunRecord{Name: sc.Solver, Seed: sc.Seed, Sigma: 1, WallMS: 1}, nil
}

func quickScenarios(t *testing.T) []Scenario {
	t.Helper()
	scs, err := QuickMatrix().Expand()
	if err != nil {
		t.Fatal(err)
	}
	return scs
}

func TestRunAllPreservesExpansionOrder(t *testing.T) {
	scs := quickScenarios(t)
	f := &fakeRunner{record: func(sc Scenario) telemetry.RunRecord {
		return telemetry.RunRecord{Name: sc.Key(), Seed: sc.Seed}
	}}
	results := RunAll(context.Background(), f, scs, 8, nil)
	if len(results) != len(scs) {
		t.Fatalf("%d results for %d scenarios", len(results), len(scs))
	}
	for i, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
		if res.Scenario != scs[i] || res.Record.Name != scs[i].Key() || res.Record.Seed != scs[i].Seed {
			t.Fatalf("result %d out of order: %+v", i, res)
		}
	}
	if got := f.calls.Load(); got != int64(len(scs)) {
		t.Fatalf("runner called %d times for %d scenarios", got, len(scs))
	}
}

func TestRunAllBoundsConcurrency(t *testing.T) {
	scs := quickScenarios(t)
	f := &fakeRunner{delay: 2 * time.Millisecond}
	RunAll(context.Background(), f, scs, 3, nil)
	if f.maxInFlight > 3 {
		t.Fatalf("observed %d concurrent runs with a pool of 3", f.maxInFlight)
	}
}

func TestRunAllCollectsPerRunErrors(t *testing.T) {
	scs := quickScenarios(t)
	boom := errors.New("child exploded")
	f := &fakeRunner{fail: func(sc Scenario) error {
		if sc.Seed == 2 {
			return fmt.Errorf("seed 2: %w", boom)
		}
		return nil
	}}
	var progressed atomic.Int64
	results := RunAll(context.Background(), f, scs, 4, func(Result) { progressed.Add(1) })
	var failed, ok int
	for _, res := range results {
		if res.Err != nil {
			failed++
			if !errors.Is(res.Err, boom) {
				t.Fatalf("error lost its cause: %v", res.Err)
			}
		} else {
			ok++
		}
	}
	// One seed of three fails per scenario key (25 keys).
	if failed != 25 || ok != 50 {
		t.Fatalf("failed=%d ok=%d, want 25/50", failed, ok)
	}
	if progressed.Load() != int64(len(scs)) {
		t.Fatalf("progress called %d times for %d runs", progressed.Load(), len(scs))
	}
}

func TestRunAllCanceledContextFailsQueuedRuns(t *testing.T) {
	scs := quickScenarios(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	f := &fakeRunner{}
	results := RunAll(ctx, f, scs, 2, nil)
	for i, res := range results {
		if res.Err == nil {
			t.Fatalf("run %d succeeded under a canceled context", i)
		}
		if !errors.Is(res.Err, context.Canceled) {
			t.Fatalf("run %d error does not unwrap to context.Canceled: %v", i, res.Err)
		}
	}
	if f.calls.Load() != 0 {
		t.Fatalf("runner invoked %d times under a pre-canceled context", f.calls.Load())
	}
}

func TestRunAllZeroWorkersStillRuns(t *testing.T) {
	scs := quickScenarios(t)[:2]
	f := &fakeRunner{}
	results := RunAll(context.Background(), f, scs, 0, nil)
	for _, res := range results {
		if res.Err != nil {
			t.Fatal(res.Err)
		}
	}
	if f.maxInFlight != 1 {
		t.Fatalf("workers=0 should clamp to serial, observed %d in flight", f.maxInFlight)
	}
}
