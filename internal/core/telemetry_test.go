package core

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// This file locks in the telemetry contract: with a sink attached, every
// iterative solver emits a faithful per-round trace; with the sink
// detached, placements are identical and the candidate-scan hot path adds
// zero allocations.

// memSink collects events in memory for assertions.
type memSink struct {
	mu     sync.Mutex
	events []telemetry.Event
}

func (s *memSink) Emit(e telemetry.Event) {
	s.mu.Lock()
	s.events = append(s.events, e)
	s.mu.Unlock()
}

func (s *memSink) rounds(alg string) []telemetry.RoundEvent {
	s.mu.Lock()
	defer s.mu.Unlock()
	var out []telemetry.RoundEvent
	for _, e := range s.events {
		if r, ok := e.(telemetry.RoundEvent); ok && r.Algorithm == alg {
			out = append(out, r)
		}
	}
	return out
}

// TestGreedySigmaTraceMatchesReport is the acceptance check for the trace
// layer: GreedySigma with a sink emits exactly one RoundEvent per greedy
// round, and the σ trajectory those events report agrees with the final
// placement, with a σ oracle replay of the selection prefixes, and with
// Report/Summarize.
func TestGreedySigmaTraceMatchesReport(t *testing.T) {
	rng := xrand.New(301)
	inst := testInstance(t, 24, 10, 4, 0.8, rng)
	sink := &memSink{}
	pl := GreedySigma(inst, WithSink(sink))

	rounds := sink.rounds("greedy_sigma")
	if len(rounds) != len(pl.Selection) {
		t.Fatalf("%d round events for %d greedy rounds", len(rounds), len(pl.Selection))
	}
	if len(rounds) == 0 {
		t.Skip("greedy found no improving shortcut on this instance")
	}
	prevSigma := inst.BaseSigma()
	for i, ev := range rounds {
		if ev.Round != i {
			t.Fatalf("event %d has round index %d", i, ev.Round)
		}
		if ev.Shortcut == nil {
			t.Fatalf("round %d event carries no shortcut", i)
		}
		e := inst.CandidateEdge(pl.Selection[i])
		if got := *ev.Shortcut; got != [2]int32{int32(e.U), int32(e.V)} {
			t.Fatalf("round %d shortcut %v, placement edge %v", i, got, e)
		}
		// σ after the round must match an oracle replay of the prefix.
		if oracle := inst.Sigma(pl.Selection[:i+1]); ev.Sigma != oracle {
			t.Fatalf("round %d σ %d, oracle %d", i, ev.Sigma, oracle)
		}
		if ev.Gain != ev.Sigma-prevSigma {
			t.Fatalf("round %d gain %d, σ step %d−%d", i, ev.Gain, ev.Sigma, prevSigma)
		}
		if ev.Gain <= 0 {
			t.Fatalf("round %d committed a non-positive gain %d", i, ev.Gain)
		}
		if ev.Selected != i+1 {
			t.Fatalf("round %d selected %d", i, ev.Selected)
		}
		if ev.Candidates != inst.NumCandidates() {
			t.Fatalf("round %d candidates %d, universe %d", i, ev.Candidates, inst.NumCandidates())
		}
		// Sandwich bounds of the traced selection: μ ≤ σ ≤ ν.
		if ev.Mu > float64(ev.Sigma)+1e-9 || float64(ev.Sigma) > ev.Nu+1e-9 {
			t.Fatalf("round %d bounds violated: μ=%v σ=%d ν=%v", i, ev.Mu, ev.Sigma, ev.Nu)
		}
		// The greedy candidate scan is instrumented: shard extrema are
		// populated and ordered.
		if ev.Shards < 1 {
			t.Fatalf("round %d reports %d scan shards", i, ev.Shards)
		}
		if ev.ShardMinNS < 0 || ev.ShardMaxNS < ev.ShardMinNS {
			t.Fatalf("round %d shard times out of order: min=%d max=%d", i, ev.ShardMinNS, ev.ShardMaxNS)
		}
		prevSigma = ev.Sigma
	}
	last := rounds[len(rounds)-1]
	if last.Sigma != pl.Sigma {
		t.Fatalf("final event σ %d, placement σ %d", last.Sigma, pl.Sigma)
	}
	// The trace agrees with the operator-facing diagnostics.
	sum := Summarize(inst.Report(pl.Selection))
	if sum.Maintained != pl.Sigma || sum.Maintained != last.Sigma {
		t.Fatalf("Summarize maintained %d, placement σ %d, trace σ %d", sum.Maintained, pl.Sigma, last.Sigma)
	}
}

// TestSandwichTrace checks the closing SandwichEvent against the result
// struct and that the F_σ arm's per-round trace rode along.
func TestSandwichTrace(t *testing.T) {
	rng := xrand.New(302)
	inst := testInstance(t, 20, 8, 3, 0.8, rng)
	sink := &memSink{}
	res := Sandwich(inst, WithSink(sink))

	var sw []telemetry.SandwichEvent
	for _, e := range sink.events {
		if s, ok := e.(telemetry.SandwichEvent); ok {
			sw = append(sw, s)
		}
	}
	if len(sw) != 1 {
		t.Fatalf("want 1 sandwich event, got %d", len(sw))
	}
	ev := sw[0]
	if ev.Sigma != res.Best.Sigma || ev.SigmaMu != res.FMu.Sigma ||
		ev.SigmaSigma != res.FSigma.Sigma || ev.SigmaNu != res.FNu.Sigma {
		t.Fatalf("sandwich event %+v disagrees with result", ev)
	}
	if ev.Ratio != res.Ratio || ev.ApproxFactor != res.ApproxFactor || ev.NuAtFSigma != res.NuAtFSigma {
		t.Fatalf("bound fields %+v disagree with result", ev)
	}
	switch ev.Best {
	case "mu", "sigma", "nu":
	default:
		t.Fatalf("best arm %q", ev.Best)
	}
	if rounds := sink.rounds("greedy_sigma"); len(rounds) != len(res.FSigma.Selection) {
		t.Fatalf("F_σ arm traced %d rounds for %d shortcuts", len(rounds), len(res.FSigma.Selection))
	}
}

// TestIterativeSolversEmitPerIteration pins the event cadence of EA, AEA,
// and LocalSearch: EA/AEA one RoundEvent per iteration, LocalSearch one per
// applied swap with strictly positive gains.
func TestIterativeSolversEmitPerIteration(t *testing.T) {
	rng := xrand.New(303)
	inst := testInstance(t, 20, 8, 3, 0.8, rng)
	const iters = 25

	sink := &memSink{}
	EA(inst, EAOptions{Iterations: iters, Sink: sink}, xrand.New(7))
	if got := len(sink.rounds("ea")); got != iters {
		t.Fatalf("EA emitted %d events for %d iterations", got, iters)
	}

	sink = &memSink{}
	aopts := DefaultAEAOptions()
	aopts.Iterations = iters
	aopts.Sink = sink
	AEA(inst, aopts, xrand.New(7))
	if got := len(sink.rounds("aea")); got != iters {
		t.Fatalf("AEA emitted %d events for %d iterations", got, iters)
	}

	sink = &memSink{}
	start := xrand.New(9).SampleDistinct(inst.NumCandidates(), inst.K())
	refined := LocalSearch(inst, start, LocalSearchOptions{Sink: sink})
	swaps := sink.rounds("local_search")
	sigma := inst.Sigma(start)
	for i, ev := range swaps {
		if ev.Gain <= 0 {
			t.Fatalf("swap %d committed gain %d", i, ev.Gain)
		}
		if ev.Sigma != sigma+ev.Gain {
			t.Fatalf("swap %d σ %d, previous %d + gain %d", i, ev.Sigma, sigma, ev.Gain)
		}
		sigma = ev.Sigma
	}
	if len(swaps) > 0 && swaps[len(swaps)-1].Sigma != refined.Sigma {
		t.Fatalf("last swap σ %d, refined σ %d", swaps[len(swaps)-1].Sigma, refined.Sigma)
	}
}

// TestSinkDetachedPlacementsIdentical is the "telemetry is free" half of
// the contract: attaching a sink must not change any solver's output, and
// detaching it must reproduce the pre-telemetry placements exactly.
func TestSinkDetachedPlacementsIdentical(t *testing.T) {
	rng := xrand.New(304)
	inst := testInstance(t, 22, 9, 4, 0.8, rng)
	sink := &memSink{}

	plain := GreedySigma(inst)
	traced := GreedySigma(inst, WithSink(sink))
	if !reflect.DeepEqual(plain, traced) {
		t.Fatalf("GreedySigma differs with sink: %+v vs %+v", plain, traced)
	}

	sres := Sandwich(inst)
	stres := Sandwich(inst, WithSink(sink))
	if !reflect.DeepEqual(sres, stres) {
		t.Fatalf("Sandwich differs with sink")
	}

	ea := EA(inst, EAOptions{Iterations: 30}, xrand.New(5))
	eat := EA(inst, EAOptions{Iterations: 30, Sink: sink}, xrand.New(5))
	if !reflect.DeepEqual(ea.Best, eat.Best) {
		t.Fatalf("EA differs with sink: %+v vs %+v", ea.Best, eat.Best)
	}

	aopts := DefaultAEAOptions()
	aopts.Iterations = 30
	aea := AEA(inst, aopts, xrand.New(5))
	aopts.Sink = sink
	aeat := AEA(inst, aopts, xrand.New(5))
	if !reflect.DeepEqual(aea.Best, aeat.Best) {
		t.Fatalf("AEA differs with sink: %+v vs %+v", aea.Best, aeat.Best)
	}

	start := xrand.New(6).SampleDistinct(inst.NumCandidates(), inst.K())
	ls := LocalSearch(inst, start, LocalSearchOptions{})
	lst := LocalSearch(inst, start, LocalSearchOptions{Sink: sink})
	if !reflect.DeepEqual(ls, lst) {
		t.Fatalf("LocalSearch differs with sink: %+v vs %+v", ls, lst)
	}
}

// TestCounterTotalsSerialParallelEquivalence extends the serial-vs-parallel
// equivalence suite to the work counters: the same run at 1 worker and at 8
// workers must report identical totals, because counters tally logical work
// (scans, evaluations), not per-goroutine activity.
func TestCounterTotalsSerialParallelEquivalence(t *testing.T) {
	countRun := func(seed int64, run func(inst *Instance)) telemetry.CounterSnapshot {
		// A fresh instance per run keeps lazily built caches (bounds,
		// query scratch) from making the first run look more expensive.
		inst := testInstance(t, 22, 9, 4, 0.8, xrand.New(seed))
		before := telemetry.Global().Snapshot()
		run(inst)
		return telemetry.Global().Snapshot().Sub(before)
	}

	algs := []struct {
		name string
		run  func(inst *Instance, workers int)
	}{
		{"greedy_sigma", func(inst *Instance, w int) { GreedySigma(inst, Parallelism(w)) }},
		{"sandwich", func(inst *Instance, w int) { Sandwich(inst, Parallelism(w)) }},
		{"ea", func(inst *Instance, w int) {
			EA(inst, EAOptions{Iterations: 20, Parallelism: w}, xrand.New(11))
		}},
		{"local_search", func(inst *Instance, w int) {
			start := xrand.New(12).SampleDistinct(inst.NumCandidates(), inst.K())
			LocalSearch(inst, start, LocalSearchOptions{Parallelism: w})
		}},
	}
	for _, alg := range algs {
		serial := countRun(305, func(inst *Instance) { alg.run(inst, 1) })
		parallel := countRun(305, func(inst *Instance) { alg.run(inst, 8) })
		if serial != parallel {
			t.Errorf("%s: counter totals differ\n serial:   %+v\n parallel: %+v", alg.name, serial, parallel)
		}
		if serial.CandidateEvals == 0 && serial.SigmaEvals == 0 {
			t.Errorf("%s: no work counted at all", alg.name)
		}
	}
}

// TestCandidateScanZeroAllocs is the acceptance allocation check: with no
// sink attached, the candidate-scan hot path (GainAdd and a warm serial
// GainsAdd) performs zero allocations per operation — instrumentation is
// one atomic add, never an allocation. A repeated GainsAdd returns the
// cached array; the near-list cold scan is forced by dropping the cache
// (gainsValid = false). Once its arenas are warm, neither may allocate.
func TestCandidateScanZeroAllocs(t *testing.T) {
	rng := xrand.New(306)
	inst := testInstance(t, 24, 10, 4, 0.8, rng)
	s := inst.NewSearch(nil)
	s.SetWorkers(1)
	s.GainsAdd() // warm scratch buffers

	if allocs := testing.AllocsPerRun(50, func() { s.GainsAdd() }); allocs != 0 {
		t.Errorf("GainsAdd (serial, warm) allocates %v/op", allocs)
	}
	is := s.(*instSearch)
	cold := func() {
		is.gainsValid = false
		s.GainsAdd()
	}
	if allocs := testing.AllocsPerRun(50, cold); allocs != 0 {
		t.Errorf("cold near-list GainsAdd (serial, warm arenas) allocates %v/op", allocs)
	}
	if len(is.candU) == 0 {
		t.Error("cold scan built no near lists")
	}
	if allocs := testing.AllocsPerRun(50, func() { s.GainAdd(3) }); allocs != 0 {
		t.Errorf("GainAdd allocates %v/op", allocs)
	}
}

// benchInstance mirrors testInstance for benchmarks (testing.TB covers
// both, but the shared helpers are typed to *testing.T).
func benchInstance(tb testing.TB, n, m, k int, dt float64, rng *xrand.Rand) *Instance {
	tb.Helper()
	b := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		b.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), 0.1+rng.Float64())
	}
	for e := 0; e < 2*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.1+rng.Float64())
		}
	}
	g, err := b.Build()
	if err != nil {
		tb.Fatal(err)
	}
	table := shortestpath.NewTable(g, 0)
	ps, err := pairs.SampleViolating(table, dt, m, rng)
	if err != nil {
		tb.Skipf("could not sample %d violating pairs: %v", m, err)
	}
	inst, err := NewInstance(g, ps, failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}, k,
		&Options{AllowTrivial: true, Table: table})
	if err != nil {
		tb.Fatalf("NewInstance: %v", err)
	}
	return inst
}

// BenchmarkGainsAddSerialNoSink is the alloc/op evidence the acceptance
// criteria call for; run with -benchmem. It drops the cached array before
// every iteration (gainsValid = false) so each one re-runs the near-list
// cold scan — a repeated GainsAdd would otherwise return the cached array
// and measure nothing.
func BenchmarkGainsAddSerialNoSink(b *testing.B) {
	rng := xrand.New(307)
	inst := benchInstance(b, 64, 20, 6, 0.8, rng)
	s := inst.newInstSearch(nil)
	s.SetWorkers(1)
	s.GainsAdd()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.gainsValid = false
		s.GainsAdd()
	}
}
