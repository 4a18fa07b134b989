package core

import (
	"testing"

	"msc/internal/xrand"
)

// End-to-end evidence for the incremental evaluation engine: a full greedy
// run (k Add commits plus k+1 candidate scans) at the paper's mid scale,
// on the product path and on the rebuild reference (rebuildProblem) over
// identical inputs. Run with -benchmem; the incremental path must beat the
// reference on both wall time and B/op while producing the byte-identical
// placement (the eval-differential suite asserts the identity;
// benchGreedyEval re-checks σ here as a tripwire).
//
//	go test ./internal/core/ -run '^$' -bench BenchmarkGreedySigma -benchmem
func benchGreedyEval(b *testing.B, rebuild bool) {
	const (
		n  = 1000
		m  = 50
		k  = 10
		dt = 0.8
	)
	rng := xrand.New(308)
	inst := benchInstance(b, n, m, k, dt, rng)
	var p Problem = inst
	if rebuild {
		p = rebuildProblem{inst}
	}
	var sigma int
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		pl := GreedySigma(p, Parallelism(1))
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

func BenchmarkGreedySigmaIncremental(b *testing.B)      { benchGreedyEval(b, false) }
func BenchmarkGreedySigmaRebuildReference(b *testing.B) { benchGreedyEval(b, true) }

// benchAddScan times one greedy round's state work — commit a shortcut,
// then produce the next round's gains array. On the product path, Add
// merges two overlay balls into the endpoint balls and the GainsAdd that
// follows cold-scans the near lists; on the rebuild reference, Add
// replaces the search with a fresh one whose GainsAdd rebuilds every ball
// before the same scan. Timing Add alone would credit the reference for
// work it merely postponed.
func benchAddScan(b *testing.B, rebuild bool) {
	rng := xrand.New(309)
	inst := benchInstance(b, 600, 30, 8, 0.8, rng)
	var p Problem = inst
	if rebuild {
		p = rebuildProblem{inst}
	}
	s := p.NewSearch(nil)
	s.SetWorkers(1)
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

func BenchmarkAddScanIncremental(b *testing.B)      { benchAddScan(b, false) }
func BenchmarkAddScanRebuildReference(b *testing.B) { benchAddScan(b, true) }
