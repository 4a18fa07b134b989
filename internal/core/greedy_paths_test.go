package core_test

import (
	"fmt"
	"reflect"
	"sync"
	"testing"

	"msc/internal/core"
	"msc/internal/dynamic"
	"msc/internal/graph"
	"msc/internal/obs"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// roundSink keeps the RoundEvents a run emits.
type roundSink struct {
	mu     sync.Mutex
	rounds []telemetry.RoundEvent
}

func (s *roundSink) Emit(e telemetry.Event) {
	if ev, ok := e.(telemetry.RoundEvent); ok {
		s.mu.Lock()
		s.rounds = append(s.rounds, ev)
		s.mu.Unlock()
	}
}

// greedyRun is what one GreedySigma run leaves behind: its placement, the
// work counters it advanced, and its round events with the wall-clock and
// shard-count fields cleared.
type greedyRun struct {
	pl       core.Placement
	counters telemetry.CounterSnapshot
	rounds   []telemetry.RoundEvent
}

// TestGreedySigmaPathsIdentical runs GreedySigma with and without a sink,
// with the ops plane on and off, at 1 and 8 workers, on a plain, a
// unit-priced and a length-priced budgeted, a shortcut- and a
// node-survivable and a dynamic problem. A sink and the ops plane only
// turn on the round clock and scan timing, so every run of one problem
// must return the same Placement, Stop included, and advance the same
// work counters. A sink
// also reads μ and ν after each round, so the μ/ν counters are compared
// only among the runs with a sink, and so are the round events.
func TestGreedySigmaPathsIdentical(t *testing.T) {
	const dt = 1.2
	rng := xrand.New(2500)
	g, ps, table := diffWorld(t, 30, 8, dt, true, false, rng)
	var series [3]struct {
		g     *graph.Graph
		ps    *pairs.Set
		table *shortestpath.Table
	}
	for i := range series {
		series[i].g, series[i].ps, series[i].table = diffWorld(t, 24, 6, dt, i%2 == 0, false, rng)
	}
	withOpts := func(opts core.Options) func() core.Problem {
		return func() core.Problem {
			opts.Table = table
			return diffInstance(t, g, ps, dt, 3, opts)
		}
	}
	problems := []struct {
		name  string
		build func() core.Problem
	}{
		{"plain", withOpts(core.Options{})},
		{"budget-unit", withOpts(core.Options{Budget: 3, CostModel: core.CostUnit})},
		{"budget-length", withOpts(core.Options{Budget: 4, CostModel: core.CostLength})},
		{"survive-shortcut", withOpts(core.Options{Survive: core.SurviveShortcut})},
		{"survive-node", withOpts(core.Options{Survive: core.SurviveNode})},
		{"dynamic", func() core.Problem {
			var insts []*core.Instance
			for _, s := range series {
				insts = append(insts, diffInstance(t, s.g, s.ps, dt, 3, core.Options{Table: s.table}))
			}
			dp, err := dynamic.NewProblem(insts)
			if err != nil {
				t.Fatal(err)
			}
			return dp
		}},
	}
	defer obs.SetEnabled(obs.Enabled())
	for _, pc := range problems {
		var runs []greedyRun
		var names []string
		for _, sink := range []bool{false, true} {
			for _, obsOn := range []bool{false, true} {
				for _, workers := range []int{1, 8} {
					// A fresh problem per run keeps lazily built state (ball
					// memos, bound families) from moving counters between runs.
					p := pc.build()
					opts := []core.Option{core.Parallelism(workers)}
					rs := &roundSink{}
					if sink {
						opts = append(opts, core.WithSink(rs))
					}
					obs.SetEnabled(obsOn)
					before := telemetry.Global().Snapshot()
					pl := core.GreedySigma(p, opts...)
					counters := telemetry.Global().Snapshot().Sub(before)
					obs.SetEnabled(false)
					for i := range rs.rounds {
						ev := &rs.rounds[i]
						ev.ElapsedNS, ev.ShardMinNS, ev.ShardMaxNS, ev.Shards = 0, 0, 0, 0
					}
					if sink && len(rs.rounds) != pl.Stop.Rounds {
						t.Fatalf("%s: %d round events for %d rounds", pc.name, len(rs.rounds), pl.Stop.Rounds)
					}
					runs = append(runs, greedyRun{pl: pl, counters: counters, rounds: rs.rounds})
					names = append(names, runName(sink, obsOn, workers))
				}
			}
		}
		ref := runs[0]
		if ref.pl.Stop.Rounds == 0 || ref.counters.CandidateEvals == 0 {
			t.Fatalf("%s: reference run committed %d rounds after %d candidate evals", pc.name, ref.pl.Stop.Rounds, ref.counters.CandidateEvals)
		}
		refSink := runs[len(runs)/2]
		for i, r := range runs {
			if !reflect.DeepEqual(r.pl, ref.pl) {
				t.Errorf("%s/%s: placement %+v, %s %+v", pc.name, names[i], r.pl, names[0], ref.pl)
			}
			got, want := r.counters, ref.counters
			if i >= len(runs)/2 {
				want = refSink.counters
				if !reflect.DeepEqual(r.rounds, refSink.rounds) {
					t.Errorf("%s/%s: round events differ from %s:\n%+v\n%+v", pc.name, names[i], names[len(runs)/2], r.rounds, refSink.rounds)
				}
			}
			if got != want {
				t.Errorf("%s/%s: counters %+v, want %+v", pc.name, names[i], got, want)
			}
			got.MuEvals, got.NuEvals = 0, 0
			if want = ref.counters; got != want {
				t.Errorf("%s/%s: counters other than μ/ν %+v, %s %+v", pc.name, names[i], got, names[0], want)
			}
		}
	}
}

func runName(sink, obsOn bool, workers int) string {
	name := "nosink"
	if sink {
		name = "sink"
	}
	if obsOn {
		name += "/obs"
	}
	return fmt.Sprintf("%s/par%d", name, workers)
}
