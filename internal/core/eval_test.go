package core

import (
	"fmt"
	"math"
	"reflect"
	"testing"

	"msc/internal/failprob"
	"msc/internal/pairs"
	"msc/internal/shortestpath"
	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// This file is the eval-differential suite: for every placement algorithm,
// an instance evaluated incrementally (O(ball) merges on Add) and its
// rebuild reference (rebuildProblem: a fresh search after every mutation)
// must produce byte-identical placements, and the cached gains array must
// match a cold rescan of the merged balls bit for bit. Run under -race it
// also certifies the sharded merge and gains scan.

// evalPair builds an instance and its rebuild reference, so the only
// difference between the two is the evaluation strategy.
func evalPair(t *testing.T, n, m, k int, dt float64, rng *xrand.Rand) (inc *Instance, reb rebuildProblem) {
	t.Helper()
	g := randomConnectedGraph(t, n, 2*n, rng)
	table := shortestpath.NewTable(g, 0)
	ps, err := pairs.SampleViolating(table, dt, m, rng)
	if err != nil {
		t.Skipf("could not sample %d violating pairs: %v", m, err)
	}
	thr := failprob.Threshold{P: 1 - math.Exp(-dt), D: dt}
	inc, err = NewInstance(g, ps, thr, k, &Options{AllowTrivial: true, Table: table})
	if err != nil {
		t.Fatalf("NewInstance: %v", err)
	}
	return inc, rebuildProblem{inc}
}

// TestEvalDifferentialSolvers runs every solver on an instance and on its
// rebuild reference across ≥24 seeds, serial and parallel, and requires identical
// placements. The logical-work counters the two modes share (candidate and
// σ evaluations) must also match: incrementality may only change how a
// scan is carried out, never how many scans the algorithm asks for.
func TestEvalDifferentialSolvers(t *testing.T) {
	const seeds = 24
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := xrand.New(9800 + seed)
			n := 13 + int(seed%5)
			inc, reb := evalPair(t, n, 6, 3, 0.8, rng)

			for _, workers := range []int{1, 8} {
				workers := workers
				t.Run(fmt.Sprintf("par%d", workers), func(t *testing.T) {
					t.Run("greedy_sigma", func(t *testing.T) {
						var ipl, rpl Placement
						ic := runCounted(func() { ipl = GreedySigma(inc, Parallelism(workers)) })
						rc := runCounted(func() { rpl = GreedySigma(reb, Parallelism(workers)) })
						comparePlacements(t, "GreedySigma", ipl, rpl)
						if ic.CandidateEvals != rc.CandidateEvals || ic.SigmaEvals != rc.SigmaEvals {
							t.Errorf("GreedySigma logical work differs: incremental (cand=%d, σ=%d), rebuild (cand=%d, σ=%d)",
								ic.CandidateEvals, ic.SigmaEvals, rc.CandidateEvals, rc.SigmaEvals)
						}
						if rc.RowsMerged != 0 || rc.RowsUnchanged != 0 || rc.PairsSkipped != 0 {
							t.Errorf("rebuild reference touched incremental counters: %+v", rc)
						}
					})

					t.Run("sandwich", func(t *testing.T) {
						ires := Sandwich(inc, Parallelism(workers))
						rres := Sandwich(reb, Parallelism(workers))
						comparePlacements(t, "Sandwich.Best", ires.Best, rres.Best)
						comparePlacements(t, "Sandwich.FMu", ires.FMu, rres.FMu)
						comparePlacements(t, "Sandwich.FSigma", ires.FSigma, rres.FSigma)
						comparePlacements(t, "Sandwich.FNu", ires.FNu, rres.FNu)
						if ires.Ratio != rres.Ratio || ires.ApproxFactor != rres.ApproxFactor {
							t.Errorf("sandwich guarantee differs: incremental (%v, %v), rebuild (%v, %v)",
								ires.Ratio, ires.ApproxFactor, rres.Ratio, rres.ApproxFactor)
						}
					})

					t.Run("ea", func(t *testing.T) {
						ires := EA(inc, EAOptions{Iterations: 30, RunOptions: RunOptions{Parallelism: workers}}, xrand.New(seed))
						rres := EA(reb, EAOptions{Iterations: 30, RunOptions: RunOptions{Parallelism: workers}}, xrand.New(seed))
						comparePlacements(t, "EA.Best", ires.Best, rres.Best)
						if ires.Evaluations != rres.Evaluations {
							t.Errorf("EA evaluations differ: incremental %d, rebuild %d", ires.Evaluations, rres.Evaluations)
						}
					})

					t.Run("aea", func(t *testing.T) {
						opts := AEAOptions{Iterations: 30, PopSize: 5, Delta: 0.05, RecordTrace: true, RunOptions: RunOptions{Parallelism: workers}}
						ires := AEA(inc, opts, xrand.New(seed))
						rres := AEA(reb, opts, xrand.New(seed))
						comparePlacements(t, "AEA.Best", ires.Best, rres.Best)
						if !reflect.DeepEqual(ires.Trace, rres.Trace) {
							t.Errorf("AEA trace differs from the rebuild reference")
						}
					})

					t.Run("random_placement", func(t *testing.T) {
						ipl, ierr := RandomPlacement(inc, 25, xrand.New(seed), Parallelism(workers))
						rpl, rerr := RandomPlacement(reb, 25, xrand.New(seed), Parallelism(workers))
						if ierr != nil || rerr != nil {
							t.Fatalf("RandomPlacement: incremental err %v, rebuild err %v", ierr, rerr)
						}
						comparePlacements(t, "RandomPlacement", ipl, rpl)
					})

					t.Run("local_search", func(t *testing.T) {
						start := xrand.New(seed).SampleDistinct(inc.NumCandidates(), inc.K())
						ipl := LocalSearch(inc, start, LocalSearchOptions{RunOptions: RunOptions{Parallelism: workers}})
						rpl := LocalSearch(reb, start, LocalSearchOptions{RunOptions: RunOptions{Parallelism: workers}})
						comparePlacements(t, "LocalSearch", ipl, rpl)
					})
				})
			}
		})
	}
}

// TestEvalGainsPatchMatchesColdScan checks the gains cache of the
// incremental engine: the array GainsAdd returns after every Add must
// equal — cell for cell — a forced cold rescan of the same (merged) rows,
// so a commit can never leave a stale array behind, and σ must agree with
// the instance's overlay oracle. It also exercises the RemoveAt rebuild
// and the first scan after it.
func TestEvalGainsPatchMatchesColdScan(t *testing.T) {
	for seed := int64(0); seed < 12; seed++ {
		for _, workers := range []int{1, 8} {
			t.Run(fmt.Sprintf("seed%d/par%d", seed, workers), func(t *testing.T) {
				rng := xrand.New(9900 + seed)
				inc, _ := evalPair(t, 14+int(seed%4), 7, 4, 0.8, rng)
				s := inc.NewSearch(nil).(*instSearch)
				s.SetWorkers(workers)

				verify := func(step string) {
					warm := append([]int(nil), s.GainsAdd()...)
					if !s.gainsValid {
						t.Fatalf("%s: gains not valid after a completed scan", step)
					}
					s.gainsValid = false // force the cold path over the same rows
					cold := s.GainsAdd()
					if !reflect.DeepEqual(warm, cold) {
						t.Fatalf("%s: cached gains differ from cold rescan\ncached %v\ncold   %v", step, warm, cold)
					}
					if oracle := s.inst.Sigma(s.sel); s.sigma != oracle {
						t.Fatalf("%s: search σ %d, oracle σ %d", step, s.sigma, oracle)
					}
				}

				verify("initial")
				adds := 0
				for adds < inc.K() {
					cand, gain := s.BestAdd()
					if cand < 0 || gain <= 0 {
						break
					}
					s.Add(cand)
					adds++
					verify(fmt.Sprintf("after add %d", adds))
				}
				if adds == 0 {
					t.Skip("no improving shortcut on this instance")
				}
				// RemoveAt must drop the live gains and leave the rows to rebuild.
				s.RemoveAt(0)
				if s.gainsValid {
					t.Fatal("gains still marked valid after RemoveAt")
				}
				verify("after remove")
				if cand, gain := s.BestAdd(); cand >= 0 && gain > 0 {
					s.Add(cand)
					verify("after re-add")
				}
			})
		}
	}
}

// TestEvalCountersWorkerInvariance pins the new counters' determinism: the
// same incremental greedy run at 1 and at 8 workers must report identical
// totals for every counter, including rows merged/unchanged and pairs
// rescanned, and the run must actually exercise the merge path.
func TestEvalCountersWorkerInvariance(t *testing.T) {
	countRun := func(workers int) telemetry.CounterSnapshot {
		rng := xrand.New(9950)
		inc, _ := evalPair(t, 18, 9, 4, 0.8, rng)
		before := telemetry.Global().Snapshot()
		GreedySigma(inc, Parallelism(workers))
		return telemetry.Global().Snapshot().Sub(before)
	}
	serial := countRun(1)
	parallel := countRun(8)
	if serial != parallel {
		t.Errorf("incremental counter totals differ\n serial:   %+v\n parallel: %+v", serial, parallel)
	}
	if serial.RowsMerged == 0 {
		t.Error("greedy run merged no rows — incremental path not engaged")
	}
	if serial.RowsMerged+serial.RowsUnchanged == 0 || serial.PairsRescanned == 0 {
		t.Errorf("incremental counters not populated: %+v", serial)
	}
}

// TestEvalStatsRoundTrace checks the per-round plumbing: GreedySigma with
// a sink reports the incremental work of each round in its RoundEvents,
// and LastEvalStats drains (a second read returns zeros).
func TestEvalStatsRoundTrace(t *testing.T) {
	rng := xrand.New(9960)
	inc, reb := evalPair(t, 20, 8, 4, 0.8, rng)

	sink := &memSink{}
	pl := GreedySigma(inc, WithSink(sink))
	rounds := sink.rounds("greedy_sigma")
	if len(rounds) != len(pl.Selection) {
		t.Fatalf("%d round events for %d greedy rounds", len(rounds), len(pl.Selection))
	}
	if len(rounds) == 0 {
		t.Skip("greedy found no improving shortcut on this instance")
	}
	var merged, rescanned int64
	for _, ev := range rounds {
		if ev.RowsMerged < 0 || ev.RowsUnchanged < 0 || ev.PairsRescanned < 0 || ev.PairsSkipped < 0 {
			t.Fatalf("negative eval stats in round %d: %+v", ev.Round, ev)
		}
		merged += ev.RowsMerged + ev.RowsUnchanged
		rescanned += ev.PairsRescanned
	}
	if merged == 0 || rescanned == 0 {
		t.Errorf("incremental rounds report no eval work: merged+unchanged=%d rescanned=%d", merged, rescanned)
	}

	// The search's accumulators were drained by the sink path.
	s := inc.NewSearch(nil)
	s.GainsAdd()
	if _, _, pr, _ := s.LastEvalStats(); pr == 0 {
		t.Error("cold scan reported no rescanned pairs")
	}
	if rm, ru, pr, psk := s.LastEvalStats(); rm != 0 || ru != 0 || pr != 0 || psk != 0 {
		t.Errorf("LastEvalStats did not drain: (%d, %d, %d, %d)", rm, ru, pr, psk)
	}

	// Rebuild-reference rounds carry zero merge stats.
	sink = &memSink{}
	GreedySigma(reb, WithSink(sink))
	for _, ev := range sink.rounds("greedy_sigma") {
		if ev.RowsMerged != 0 || ev.RowsUnchanged != 0 || ev.PairsSkipped != 0 {
			t.Fatalf("rebuild-reference round %d carries merge stats: %+v", ev.Round, ev)
		}
	}
}

// TestEvalMergeStress is the -race certification of the sharded merge and
// gains scan at a size where both run multi-shard for many rounds, and the
// final placement still matches the rebuild reference.
func TestEvalMergeStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	rng := xrand.New(9970)
	inc, reb := evalPair(t, 120, 24, 8, 0.8, rng)
	ipl := GreedySigma(inc, Parallelism(8))
	rpl := GreedySigma(reb, Parallelism(8))
	comparePlacements(t, "GreedySigma(stress)", ipl, rpl)
	if len(ipl.Selection) == 0 {
		t.Skip("no improving shortcut at stress size")
	}
}

// TestEvalZeroCandidates fabricates the degenerate empty candidate
// universe (unreachable through the public constructors, which require at
// least two candidate nodes) and checks every solver entry point survives
// it: BestAdd reports (-1, 0) instead of panicking, and the solvers return
// empty placements.
func TestEvalZeroCandidates(t *testing.T) {
	rng := xrand.New(9990)
	inst := testInstance(t, 16, 6, 3, 0.8, rng)
	// Shrink the universe to a single candidate node: zero candidate edges.
	inst.candNodes = inst.candNodes[:1]
	inst.candPos = nil
	inst.numCand = 0

	s := inst.NewSearch(nil)
	if cand, gain := s.BestAdd(); cand != -1 || gain != 0 {
		t.Fatalf("BestAdd on empty universe = (%d, %d), want (-1, 0)", cand, gain)
	}
	if got := len(s.GainsAdd()); got != 0 {
		t.Fatalf("GainsAdd returned %d gains for an empty universe", got)
	}

	if pl := GreedySigma(inst); len(pl.Selection) != 0 {
		t.Errorf("GreedySigma selected %v from an empty universe", pl.Selection)
	}
	if curve := GreedySigmaCurve(inst); len(curve) != 1 {
		t.Errorf("GreedySigmaCurve returned %d points, want 1 (base only)", len(curve))
	}
	opts := DefaultAEAOptions()
	opts.Iterations = 5
	if res := AEA(inst, opts, xrand.New(1)); len(res.Best.Selection) != 0 {
		t.Errorf("AEA selected %v from an empty universe", res.Best.Selection)
	}
	for _, workers := range []int{1, 8} {
		if pl := LocalSearch(inst, nil, LocalSearchOptions{RunOptions: RunOptions{Parallelism: workers}}); len(pl.Selection) != 0 {
			t.Errorf("LocalSearch(par=%d) selected %v from an empty universe", workers, pl.Selection)
		}
	}
}
