package dynamic

import (
	"testing"

	"msc/internal/core"
	"msc/internal/xrand"
)

// fig5aProblem is a dynamic problem of Fig 5(a)'s shape: n = 50 nodes,
// m = 30 pairs and T = 30 time instances, with budget k = 8.
func fig5aProblem(b *testing.B) *Problem {
	b.Helper()
	p, err := NewProblem(seriesInstances(b, 50, 30, 8, 30, 0.9, 5))
	if err != nil {
		b.Fatal(err)
	}
	return p
}

// BenchmarkDynamicGreedy times GreedySigma on the Fig 5(a)-shaped problem:
// per round, one summed gains scan over the T time instances and one
// commit into each.
func BenchmarkDynamicGreedy(b *testing.B) {
	p := fig5aProblem(b)
	b.ResetTimer()
	var pl core.Placement
	for i := 0; i < b.N; i++ {
		pl = core.GreedySigma(p)
	}
	b.ReportMetric(float64(pl.Sigma), "sigma")
}

// BenchmarkDynamicAEA times 100 AEA iterations on the Fig 5(a)-shaped
// problem: per greedy swap, the summed drops of every time instance, a
// reposition, and a summed gains scan.
func BenchmarkDynamicAEA(b *testing.B) {
	p := fig5aProblem(b)
	opts := core.AEAOptions{Iterations: 100, PopSize: 10, Delta: 0.05}
	b.ResetTimer()
	var res core.AEAResult
	for i := 0; i < b.N; i++ {
		res = core.AEA(p, opts, xrand.New(1))
	}
	b.ReportMetric(float64(res.Best.Sigma), "sigma")
}
