// Benchmarks regenerating every table and figure of the paper's evaluation
// (§VII), plus ablations for the design decisions called out in DESIGN.md.
//
// Run the full suite (several minutes — Fig 5(a) alone runs 30-topology
// dynamic instances at paper scale):
//
//	go test -bench=. -benchmem
//
// Each experiment bench reports the regenerated rows/series through the
// custom metric "sigma_total" (sum of all series values) so regressions in
// solution quality show up alongside time/allocs.
package msc_test

import (
	"fmt"
	"math"
	"runtime"
	"testing"

	"msc"
	"msc/internal/experiments"
	"msc/internal/maxcover"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

func benchCfg() experiments.Config { return experiments.Config{Seed: 1} }

func sumTable(t *experiments.Table) float64 {
	total := 0.0
	for _, r := range t.Rows {
		for _, c := range r.Cells {
			total += c
		}
	}
	return total
}

func sumFigs(figs ...*experiments.Figure) float64 {
	total := 0.0
	for _, f := range figs {
		for _, s := range f.Series {
			for _, y := range s.Y {
				total += y
			}
		}
	}
	return total
}

// BenchmarkTable1RatioRGG regenerates Table I: the sandwich bound ratio
// σ(F_σ)/ν(F_σ) on the Random Geometric graph (n=100, m=17).
func BenchmarkTable1RatioRGG(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		last = sumTable(benchCfg().Table1())
	}
	b.ReportMetric(last, "sigma_total")
}

// BenchmarkTable2RatioGowalla regenerates Table II on the Gowalla-style
// network (n≈134, m=63).
func BenchmarkTable2RatioGowalla(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		last = sumTable(benchCfg().Table2())
	}
	b.ReportMetric(last, "sigma_total")
}

// BenchmarkFig1Placement regenerates Fig. 1: AA vs random placement on a
// geometric instance.
func BenchmarkFig1Placement(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		res := benchCfg().Fig1()
		last = float64(res.AA.Sigma - res.Random.Sigma)
	}
	b.ReportMetric(last, "aa_minus_random")
}

// BenchmarkFig2AAvsRandom regenerates Fig. 2 (both datasets).
func BenchmarkFig2AAvsRandom(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		last = sumFigs(benchCfg().Fig2()...)
	}
	b.ReportMetric(last, "sigma_total")
}

// BenchmarkFig3Algorithms regenerates Fig. 3: AA vs EA vs AEA across k
// (r=500, l=10, δ=0.05).
func BenchmarkFig3Algorithms(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		last = sumFigs(benchCfg().Fig3()...)
	}
	b.ReportMetric(last, "sigma_total")
}

// BenchmarkFig4Convergence regenerates Fig. 4: solution quality as a
// function of the iteration count r.
func BenchmarkFig4Convergence(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		last = sumFigs(benchCfg().Fig4()...)
	}
	b.ReportMetric(last, "sigma_total")
}

// BenchmarkFig5aDynamic regenerates Fig. 5(a): dynamic networks across k
// (n=50, m=30, T=30). The heaviest experiment in the suite.
func BenchmarkFig5aDynamic(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		last = sumFigs(benchCfg().Fig5a())
	}
	b.ReportMetric(last, "sigma_total")
}

// BenchmarkFig5bDynamicT regenerates Fig. 5(b): dynamic networks across T.
func BenchmarkFig5bDynamicT(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		last = sumFigs(benchCfg().Fig5b())
	}
	b.ReportMetric(last, "sigma_total")
}

// ---------------------------------------------------------------------------
// Ablations.

// benchInstance builds a paper-scale RGG instance for the ablations.
func benchInstance(b *testing.B, k int) *msc.Instance {
	b.Helper()
	rng := msc.NewRand(99)
	g, err := msc.GenerateRGG(msc.RGGConfig{
		N: 100, Radius: 0.18, FailureAtRadius: 0.08, RequireConnected: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	table := msc.NewDistanceTable(g)
	thr := msc.NewThreshold(0.14)
	ps, err := msc.SampleViolatingPairs(table, thr, 80, rng)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := msc.NewInstance(g, ps, thr, k, &msc.InstanceOptions{
		AllowTrivial: true, Table: table,
	})
	if err != nil {
		b.Fatal(err)
	}
	return inst
}

// BenchmarkOracleSigma measures σ evaluation through the terminal
// metric-closure overlay (the design choice of DESIGN.md §4.1)...
func BenchmarkOracleSigma(b *testing.B) {
	inst := benchInstance(b, 8)
	rng := msc.NewRand(5)
	sel := rng.SampleDistinct(inst.NumCandidates(), 8)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = inst.Sigma(sel)
	}
}

// BenchmarkNaiveSigma is the baseline: σ via fresh Dijkstras on the
// materialized augmented graph, one per pair source.
func BenchmarkNaiveSigma(b *testing.B) {
	inst := benchInstance(b, 8)
	rng := msc.NewRand(5)
	sel := rng.SampleDistinct(inst.NumCandidates(), 8)
	edges := msc.SelectionEdges(inst, sel)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		count := 0
		for _, p := range inst.Pairs().Pairs() {
			dist := shortestpath.AugmentedDistances(inst.Graph(), edges, p.U)
			if dist[p.W] <= inst.Threshold().D {
				count++
			}
		}
		_ = count
	}
}

// sandwichInstance builds one instance of the paper-sandwich benchmark
// shape (RGG, n = 520, m = 100, k = 10, p_t = 0.11, the mscgen radius
// rule) on a dense table, so the μ/ν benchmarks below read finished rows
// and time only the coverage layer.
func sandwichInstance(b *testing.B) (*msc.Instance, *msc.DistanceTable) {
	b.Helper()
	const n = 520
	rng := msc.NewRand(1)
	g, err := msc.GenerateRGG(msc.RGGConfig{
		N: n, Radius: 1.6 * math.Sqrt(math.Log(n)/(math.Pi*n)), FailureAtRadius: 0.08, RequireConnected: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	table := msc.NewDistanceTable(g)
	thr := msc.NewThreshold(0.11)
	ps, err := msc.SampleViolatingPairs(table, thr, 100, rng)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := msc.NewInstance(g, ps, thr, 10, &msc.InstanceOptions{Table: table})
	if err != nil {
		b.Fatal(err)
	}
	return inst, table
}

// BenchmarkBoundsBuild measures building the μ sparse family and the ν
// ball family (134 940 candidates) from the candidate rows, on a fresh
// instance per iteration over a shared table.
func BenchmarkBoundsBuild(b *testing.B) {
	inst, table := sandwichInstance(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		fresh, err := msc.NewInstance(inst.Graph(), inst.Pairs(), inst.Threshold(), inst.K(), &msc.InstanceOptions{Table: table})
		if err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		fresh.MuProblem()
	}
}

// BenchmarkGreedyMu measures the F_μ arm's coverage greedy over the sparse
// μ family, bounds built beforehand.
func BenchmarkGreedyMu(b *testing.B) {
	inst, _ := sandwichInstance(b)
	prob := inst.MuProblem()
	b.ResetTimer()
	var res maxcover.Result
	for i := 0; i < b.N; i++ {
		res = maxcover.Greedy(prob)
	}
	b.ReportMetric(res.Value, "mu_gain")
}

// BenchmarkGreedyNu measures the F_ν arm's pruned pair-union greedy, bounds
// built beforehand.
func BenchmarkGreedyNu(b *testing.B) {
	inst, _ := sandwichInstance(b)
	prob := inst.NuProblem()
	b.ResetTimer()
	var res maxcover.Result
	for i := 0; i < b.N; i++ {
		res = maxcover.Greedy(prob)
	}
	b.ReportMetric(res.Value, "nu_gain")
}

// BenchmarkEAMutationBinomial measures EA's mutation via binomial
// flip-count sampling (O(expected flips) per mutation).
func BenchmarkEAMutationBinomial(b *testing.B) {
	rng := xrand.New(3)
	const numCand = 4950
	for i := 0; i < b.N; i++ {
		flips := rng.Binomial(numCand, 1.0/numCand)
		if flips > 0 {
			_ = rng.SampleDistinct(numCand, flips)
		}
	}
}

// BenchmarkEAMutationPerBit is the baseline: one Bernoulli draw per
// candidate bit.
func BenchmarkEAMutationPerBit(b *testing.B) {
	rng := xrand.New(3)
	const numCand = 4950
	for i := 0; i < b.N; i++ {
		for c := 0; c < numCand; c++ {
			if rng.Bernoulli(1.0 / numCand) {
				_ = c
			}
		}
	}
}

// BenchmarkAEADelta sweeps the exploration parameter δ and reports the
// achieved σ, quantifying the randomization/greediness trade-off the
// paper's §V-D discusses.
func BenchmarkAEADelta(b *testing.B) {
	for _, delta := range []float64{0, 0.05, 0.2, 0.5} {
		b.Run(deltaName(delta), func(b *testing.B) {
			inst := benchInstance(b, 8)
			var sigma int
			for i := 0; i < b.N; i++ {
				res := msc.AEA(inst, msc.AEAOptions{
					Iterations: 200, PopSize: 10, Delta: delta,
				}, msc.NewRand(17))
				sigma = res.Best.Sigma
			}
			b.ReportMetric(float64(sigma), "sigma")
		})
	}
}

// BenchmarkAEASeedGreedy compares AEA's random seeding (paper) against the
// greedy-seeded extension, which guarantees AEA ≥ the F_σ arm.
func BenchmarkAEASeedGreedy(b *testing.B) {
	for _, seedGreedy := range []bool{false, true} {
		name := "random_seed"
		if seedGreedy {
			name = "greedy_seed"
		}
		b.Run(name, func(b *testing.B) {
			inst := benchInstance(b, 8)
			var sigma int
			for i := 0; i < b.N; i++ {
				res := msc.AEA(inst, msc.AEAOptions{
					Iterations: 200, PopSize: 10, Delta: 0.05, SeedGreedy: seedGreedy,
				}, msc.NewRand(17))
				sigma = res.Best.Sigma
			}
			b.ReportMetric(float64(sigma), "sigma")
		})
	}
}

// BenchmarkGreedySigmaParallel measures the parallel candidate-scan engine
// on a 200-node RGG (19900 candidate shortcuts, 150 pairs): GreedySigma at
// Parallelism(1) — the exact serial code path — versus GOMAXPROCS workers.
// Placements are identical at every worker count (the engine's determinism
// contract); only wall-clock time differs. Compare the two sub-benchmarks'
// ns/op for the speedup; on a single-core host they coincide.
func BenchmarkGreedySigmaParallel(b *testing.B) {
	rng := msc.NewRand(99)
	g, err := msc.GenerateRGG(msc.RGGConfig{
		N: 200, Radius: 0.13, FailureAtRadius: 0.08, RequireConnected: true,
	}, rng)
	if err != nil {
		b.Fatal(err)
	}
	table := msc.NewDistanceTable(g)
	thr := msc.NewThreshold(0.14)
	ps, err := msc.SampleViolatingPairs(table, thr, 150, rng)
	if err != nil {
		b.Fatal(err)
	}
	inst, err := msc.NewInstance(g, ps, thr, 8, &msc.InstanceOptions{
		AllowTrivial: true, Table: table,
	})
	if err != nil {
		b.Fatal(err)
	}
	legs := []struct {
		name    string
		workers int
	}{
		{"par1_serial", 1},
		{fmt.Sprintf("par%d_gomaxprocs", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
		// The forced leg measures sharding overhead when the host has
		// fewer cores than workers (pure cost, no speedup available).
		{"par8_forced", 8},
	}
	for _, leg := range legs {
		if leg.workers == 1 && leg.name != "par1_serial" {
			continue // GOMAXPROCS = 1: the gomaxprocs leg duplicates serial
		}
		workers := leg.workers
		b.Run(leg.name, func(b *testing.B) {
			var sigma int
			for i := 0; i < b.N; i++ {
				sigma = msc.GreedySigma(inst, msc.Parallelism(workers)).Sigma
			}
			b.ReportMetric(float64(sigma), "sigma")
		})
	}
}

func deltaName(d float64) string {
	if d == 0 {
		return "delta_0"
	}
	return "delta_0p" + trimFloat(d)
}

func trimFloat(d float64) string {
	v := int(math.Round(d * 100))
	digits := []byte{byte('0' + v/10), byte('0' + v%10)}
	return string(digits)
}

// BenchmarkExt1Baselines regenerates the extension experiment: MSC-aware
// placement vs the all-pairs baselines of references [7] and [8].
func BenchmarkExt1Baselines(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		last = sumFigs(benchCfg().Ext1()...)
	}
	b.ReportMetric(last, "sigma_total")
}

// BenchmarkExt2Delivery regenerates the end-to-end delivery validation:
// discrete-event simulation of a tactical operation under placements of
// increasing budget.
func BenchmarkExt2Delivery(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		last = sumFigs(benchCfg().Ext2())
	}
	b.ReportMetric(last, "sigma_total")
}

// BenchmarkExt3Prediction regenerates the prediction-robustness extension:
// placements planned on dead-reckoned topologies graded against reality.
func BenchmarkExt3Prediction(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		last = sumFigs(benchCfg().Ext3())
	}
	b.ReportMetric(last, "sigma_total")
}

// BenchmarkExt4Weighted regenerates the importance-weights extension:
// weight-aware vs weight-blind placement under a weighted objective.
func BenchmarkExt4Weighted(b *testing.B) {
	var last float64
	for i := 0; i < b.N; i++ {
		last = sumFigs(benchCfg().Ext4())
	}
	b.ReportMetric(last, "sigma_total")
}
