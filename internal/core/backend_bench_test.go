package core

import (
	"fmt"
	"math"
	"testing"

	"msc/internal/failprob"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/xrand"
)

// benchInputs builds a random connected graph of n nodes (~3n edges) and m
// random social pairs, outside the timed region. The pairs need not be
// violating: construction cost does not depend on it, and sampling would
// drown the measurement in Dijkstras.
func benchInputs(b *testing.B, n, m int) (*graph.Graph, *pairs.Set) {
	b.Helper()
	rng := xrand.New(99)
	gb := graph.NewBuilder(n)
	perm := rng.Perm(n)
	for i := 1; i < n; i++ {
		gb.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[rng.Intn(i)]), 0.1+rng.Float64())
	}
	for e := 0; e < 2*n; e++ {
		u, v := rng.Intn(n), rng.Intn(n)
		if u != v {
			gb.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.1+rng.Float64())
		}
	}
	g, err := gb.Build()
	if err != nil {
		b.Fatal(err)
	}
	seen := map[pairs.Pair]bool{}
	var ps []pairs.Pair
	for len(ps) < m {
		p := pairs.New(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		if p.U == p.W || seen[p] {
			continue
		}
		seen[p] = true
		ps = append(ps, p)
	}
	set, err := pairs.NewSet(n, ps)
	if err != nil {
		b.Fatal(err)
	}
	return g, set
}

func benchNewInstance(b *testing.B, backend DistBackend) {
	for _, shape := range []struct{ n, m int }{{200, 50}, {1000, 50}} {
		b.Run(fmt.Sprintf("n%d_m%d", shape.n, shape.m), func(b *testing.B) {
			g, ps := benchInputs(b, shape.n, shape.m)
			thr := failprob.Threshold{P: 1 - math.Exp(-0.8), D: 0.8}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				inst, err := NewInstance(g, ps, thr, 4, &Options{AllowTrivial: true, DistBackend: backend})
				if err != nil {
					b.Fatal(err)
				}
				_ = inst
			}
		})
	}
}

// BenchmarkNewInstanceDense measures eager instance construction: n
// Dijkstras plus the n×n table, regardless of how many rows the solver
// will read.
func BenchmarkNewInstanceDense(b *testing.B) { benchNewInstance(b, BackendDense) }

// BenchmarkNewInstanceBounded measures bounded instance construction: only
// the pair endpoints' d_t-balls are computed (for the σ(∅) baseline);
// everything else is deferred until a solver touches it.
func BenchmarkNewInstanceBounded(b *testing.B) { benchNewInstance(b, BackendBounded) }

func benchGreedyEndToEnd(b *testing.B, backend DistBackend) {
	g, ps := benchInputs(b, 200, 20)
	thr := failprob.Threshold{P: 1 - math.Exp(-0.8), D: 0.8}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		inst, err := NewInstance(g, ps, thr, 3, &Options{AllowTrivial: true, DistBackend: backend})
		if err != nil {
			b.Fatal(err)
		}
		GreedySigma(inst, Parallelism(1))
	}
}

// BenchmarkGreedySigmaDense / ...Bounded time construction plus a full
// greedy run, the workload the auto-selection threshold trades off: the
// bounded backend wins construction but pays a ball lookup per distance
// read.
func BenchmarkGreedySigmaDense(b *testing.B) { benchGreedyEndToEnd(b, BackendDense) }

func BenchmarkGreedySigmaBounded(b *testing.B) { benchGreedyEndToEnd(b, BackendBounded) }
