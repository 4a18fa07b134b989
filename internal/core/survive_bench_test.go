package core

import (
	"fmt"
	"testing"

	"msc/internal/failprob"
	"msc/internal/gen/social"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// BenchmarkSurvivableGreedy times the survivable GreedySigma solve on a
// Gowalla-style social instance at 1 and 2 workers: shortcut mode on the
// social-survive shape (500 users, m = 60, k = 6, p_t = 0.23) and node
// mode on a 60-user instance (m = 12, k = 3), small enough for a
// one-iteration smoke run. Each iteration solves a fresh instance built
// outside the timer, so the memoized balls and node scenarios are part of
// the solve; B/op is the solve's allocation volume.
func BenchmarkSurvivableGreedy(b *testing.B) {
	for _, tc := range []struct {
		mode        Survivability
		users, m, k int
	}{
		{SurviveShortcut, 500, 60, 6},
		{SurviveNode, 60, 12, 3},
	} {
		thr := failprob.NewThreshold(0.23)
		rng := xrand.New(1)
		net, err := social.Generate(social.ScaledConfig(tc.users), rng)
		if err != nil {
			b.Fatal(err)
		}
		ps, err := pairs.SampleViolating(shortestpath.NewTable(net.Graph, 0), thr.D, tc.m, rng)
		if err != nil {
			b.Fatal(err)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("%s/par%d", tc.mode, workers), func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					b.StopTimer()
					inst, err := NewInstance(net.Graph, ps, thr, tc.k, &Options{AllowTrivial: true, Survive: tc.mode})
					if err != nil {
						b.Fatal(err)
					}
					b.StartTimer()
					if pl := GreedySigma(inst, Parallelism(workers)); len(pl.Selection) == 0 {
						b.Fatal("survivable greedy placed no shortcut")
					}
				}
			})
		}
	}
}
