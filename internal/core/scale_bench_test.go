package core

import (
	"fmt"
	"math"
	"os"
	"strconv"
	"testing"

	"msc/internal/failprob"
	"msc/internal/gen/rgg"
	"msc/internal/graph"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// scaleBenchN returns the RGG size for the backend-comparison benchmarks:
// 20 000 by default (seconds per iteration, safe for the CI 1-iteration
// smoke), overridable with MSC_SCALE_BENCH_N=100000 for the EXPERIMENTS.md
// n=10⁵ measurements.
func scaleBenchN(b *testing.B) int {
	b.Helper()
	if s := os.Getenv("MSC_SCALE_BENCH_N"); s != "" {
		n, err := strconv.Atoi(s)
		if err != nil || n < 2 {
			b.Fatalf("MSC_SCALE_BENCH_N=%q is not a node count", s)
		}
		return n
	}
	return 20_000
}

// BenchmarkScaleGreedySigma is the speed claim behind the bounded backend:
// GreedySigma end to end — instance build plus the full
// greedy solve — on the same RGG and pair set, lazy vs bounded. The
// per-iteration custom metrics record what the backends trade: bytes/row
// resident and rows computed. Run with -benchtime=1x and
// MSC_SCALE_BENCH_N=100000 to reproduce the EXPERIMENTS.md numbers.
func BenchmarkScaleGreedySigma(b *testing.B) {
	n := scaleBenchN(b)
	const (
		m  = 64
		k  = 4
		pt = 0.11 // the tools' default failure threshold
	)
	thr := failprob.NewThreshold(pt)
	rng := xrand.New(1)
	radius := 1.6 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
	g, err := rgg.Generate(rgg.Config{N: n, Radius: radius, FailureAtRadius: 0.08}, rng)
	if err != nil {
		b.Fatal(err)
	}
	// One shared pair sample: backend comparisons must solve the same
	// instance. Uniform random pairs violate the tools' default d_t with
	// near certainty at these scales.
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
	set := pairs.MustNewSet(n, ps)

	for _, backend := range []struct {
		name string
		be   DistBackend
	}{{"lazy", backendLazy}, {"bounded", BackendBounded}} {
		b.Run(fmt.Sprintf("backend=%s/n=%d", backend.name, n), func(b *testing.B) {
			var bytesPerRow, rows float64
			for i := 0; i < b.N; i++ {
				inst, err := NewInstance(g, set, thr, k, withBackend(g, backend.be, Options{AllowTrivial: true}))
				if err != nil {
					b.Fatal(err)
				}
				pl := GreedySigma(inst)
				if len(pl.Selection) != k {
					b.Fatalf("placed %d shortcuts, want %d", len(pl.Selection), k)
				}
				switch t := inst.Table().(type) {
				case *shortestpath.BoundedTable:
					st := t.Stats()
					rows = float64(st.Computes)
					if st.Computes > 0 {
						bytesPerRow = float64(st.RowBytes) / float64(st.Computes)
					}
				case *shortestpath.LazyTable:
					st := t.Stats()
					rows = float64(st.Computes)
					bytesPerRow = float64(8 * n) // dense float64 rows
				}
			}
			b.ReportMetric(bytesPerRow, "bytes/row")
			b.ReportMetric(rows, "rows/op")
		})
	}
}

// BenchmarkScaleRowCompute isolates the row kernel the end-to-end ratio
// rests on: one cold distance row per iteration, full-graph Dijkstra
// (lazy) vs reach-bounded Dijkstra with sparse storage (bounded), cycling
// over distinct sources so caches never serve a warm row.
func BenchmarkScaleRowCompute(b *testing.B) {
	n := scaleBenchN(b)
	thr := failprob.NewThreshold(0.11)
	rng := xrand.New(2)
	radius := 1.6 * math.Sqrt(math.Log(float64(n))/(math.Pi*float64(n)))
	g, err := rgg.Generate(rgg.Config{N: n, Radius: radius, FailureAtRadius: 0.08}, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.Run(fmt.Sprintf("backend=lazy/n=%d", n), func(b *testing.B) {
		t := shortestpath.NewLazyTable(g, shortestpath.LazyOptions{})
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			_ = t.Row(graph.NodeID(i % n))
		}
		b.ReportMetric(float64(8*n), "bytes/row")
	})
	b.Run(fmt.Sprintf("backend=bounded/n=%d", n), func(b *testing.B) {
		t, err := shortestpath.NewBoundedTable(g, shortestpath.BoundedOptions{Reach: thr.D})
		if err != nil {
			b.Fatal(err)
		}
		b.ResetTimer()
		var bytes, rows int64
		for i := 0; i < b.N; i++ {
			r := t.SparseRow(graph.NodeID(i % n))
			bytes += r.Bytes()
			rows++
		}
		b.ReportMetric(float64(bytes)/float64(rows), "bytes/row")
	})
}
