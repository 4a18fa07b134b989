package core

import (
	"fmt"
	"testing"

	"msc/internal/failprob"
	"msc/internal/gen/social"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// survivableCase is one input of the survivable benchmarks: a
// Gowalla-style social network, its violating pairs and a budget.
type survivableCase struct {
	mode Survivability
	k    int
	g    *graph.Graph
	ps   *pairs.Set
}

// survivableCases builds the survivable benchmarks' inputs: shortcut mode
// on the social-survive shape (500 users, m = 60, k = 6, p_t = 0.23) and
// node mode on a 60-user instance (m = 12, k = 3), small enough for a
// one-iteration smoke run.
func survivableCases(b *testing.B) []survivableCase {
	var cases []survivableCase
	for _, tc := range []struct {
		mode        Survivability
		users, m, k int
	}{
		{SurviveShortcut, 500, 60, 6},
		{SurviveNode, 60, 12, 3},
	} {
		rng := xrand.New(1)
		net, err := social.Generate(social.ScaledConfig(tc.users), rng)
		if err != nil {
			b.Fatal(err)
		}
		ps, err := pairs.SampleViolating(shortestpath.NewTable(net.Graph, 0), survivableThr.D, tc.m, rng)
		if err != nil {
			b.Fatal(err)
		}
		cases = append(cases, survivableCase{tc.mode, tc.k, net.Graph, ps})
	}
	return cases
}

var survivableThr = failprob.NewThreshold(0.23)

// instance builds a fresh instance of the case, so the memoized balls and
// node scenarios are part of whatever the caller times.
func (tc survivableCase) instance(b *testing.B) *Instance {
	inst, err := NewInstance(tc.g, tc.ps, survivableThr, tc.k, &Options{AllowTrivial: true, Survive: tc.mode})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkSurvivableGreedy times the survivable GreedySigma solve on
// survivableCases at 1 and 2 workers. Each iteration solves a fresh
// instance built outside the timer; B/op is the solve's allocation
// volume.
func BenchmarkSurvivableGreedy(b *testing.B) {
	for _, tc := range survivableCases(b) {
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/par%d", tc.mode, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					inst := tc.instance(b)
					b.StartTimer()
					if pl := GreedySigma(inst, Parallelism(workers)); len(pl.Selection) == 0 {
						b.Fatal("survivable greedy placed no shortcut")
					}
				}
			})
		}
	}
}

// BenchmarkSurvivableLocalSearch times the survivable LocalSearch swap
// refinement of the greedy placement on survivableCases at 1 and 2
// workers: every round positions one fresh survivable search per drop
// position (ParBestSwap) and one at the swapped placement, so the lazy
// scenario positioning and its worker-dealt rebuild dominate. Each
// iteration refines on a fresh instance built outside the timer.
func BenchmarkSurvivableLocalSearch(b *testing.B) {
	for _, tc := range survivableCases(b) {
		start := GreedySigma(tc.instance(b)).Selection
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/par%d", tc.mode, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					inst := tc.instance(b)
					b.StartTimer()
					if pl := LocalSearch(inst, start, LocalSearchOptions{RunOptions: RunOptions{Parallelism: workers}}); len(pl.Selection) != len(start) {
						b.Fatalf("local search changed the placement size %d to %d", len(start), len(pl.Selection))
					}
				}
			})
		}
	}
}
