package core

import (
	"testing"

	"msc/internal/xrand"
)

// End-to-end evidence for the incremental evaluation engine: a full greedy
// run (k Add commits plus k+1 candidate scans) at the paper's mid scale,
// once per eval mode on identical inputs. Run with -benchmem; the
// incremental mode must beat rebuild on both wall time and B/op while
// producing the byte-identical placement (the eval-differential suite
// asserts the identity; benchGreedyEval re-checks σ here as a tripwire).
//
//	go test ./internal/core/ -run '^$' -bench BenchmarkGreedySigmaEval -benchmem
func benchGreedyEval(b *testing.B, mode EvalMode) {
	const (
		n  = 1000
		m  = 50
		k  = 10
		dt = 0.8
	)
	rng := xrand.New(308)
	inst0 := benchInstance(b, n, m, k, dt, rng)
	inst, err := NewInstance(inst0.Graph(), inst0.Pairs(), inst0.Threshold(), inst0.K(),
		&Options{AllowTrivial: true, Table: inst0.Table(), EvalMode: mode})
	if err != nil {
		b.Fatalf("NewInstance: %v", err)
	}
	var sigma int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := GreedySigma(inst, Parallelism(1))
		if i == 0 {
			sigma = pl.Sigma
		} else if pl.Sigma != sigma {
			b.Fatalf("σ drifted across runs: %d then %d", sigma, pl.Sigma)
		}
	}
	b.StopTimer()
	if sigma <= inst.BaseSigma() {
		b.Logf("warning: greedy gained nothing (σ=%d, base=%d)", sigma, inst.BaseSigma())
	}
}

func BenchmarkGreedySigmaEvalIncremental(b *testing.B) { benchGreedyEval(b, EvalIncremental) }
func BenchmarkGreedySigmaEvalRebuild(b *testing.B)     { benchGreedyEval(b, EvalRebuild) }

// benchAddScan times one greedy round's state work — commit a shortcut,
// then produce the next round's gains array. Under EvalIncremental, Add
// merges two overlay rows into the endpoint rows and the GainsAdd that
// follows cold-scans the near lists; under EvalRebuild, Add only marks the
// rows stale and GainsAdd rebuilds them before the same scan. Timing Add
// alone would credit the rebuild path for work it merely postponed.
func benchAddScan(b *testing.B, mode EvalMode) {
	rng := xrand.New(309)
	inst0 := benchInstance(b, 600, 30, 8, 0.8, rng)
	inst, err := NewInstance(inst0.Graph(), inst0.Pairs(), inst0.Threshold(), inst0.K(),
		&Options{AllowTrivial: true, Table: inst0.Table(), EvalMode: mode})
	if err != nil {
		b.Fatalf("NewInstance: %v", err)
	}
	s := inst.NewSearch(nil)
	setSearchWorkers(s, 1)
	cand, _ := s.BestAdd()
	if cand < 0 {
		b.Skip("no candidate to add")
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Add(cand)
		s.GainsAdd()
		b.StopTimer()
		s.RemoveAt(s.Len() - 1) // leaves the rows stale; not timed
		s.GainsAdd()            // rebuild now, so the timed Add starts from live rows
		b.StartTimer()
	}
}

func BenchmarkAddScanEvalIncremental(b *testing.B) { benchAddScan(b, EvalIncremental) }
func BenchmarkAddScanEvalRebuild(b *testing.B)     { benchAddScan(b, EvalRebuild) }
