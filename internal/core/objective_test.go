package core

import (
	"slices"
	"testing"

	"msc/internal/telemetry"
	"msc/internal/xrand"
)

// This file holds the survivable solvers to the one objective every solver
// ranks by: lexValue(σ⁻, σ) on a survivable instance, the value its Search
// reports. Before the objective had one owner, EA, RandomPlacement and
// Exhaustive ranked survivable selections by plain σ and AEA mixed the
// two in one population.

// TestSurvivableEvolutionaryObjective runs AEA and EA on shortcut- and
// node-survivable instances: every round event reports the fault-free σ
// (at most MaxSigma) with σ⁻ beside it, and every checkpointed solution
// carries the objective of its selection.
func TestSurvivableEvolutionaryObjective(t *testing.T) {
	for _, mode := range []Survivability{SurviveShortcut, SurviveNode} {
		inst := surviveInstanceRetry(t, 12, 5, 3, 0.8, mode, 29)
		maxSigma := inst.MaxSigma()
		for _, alg := range []string{"aea", "ea"} {
			sink, cps := &memSink{}, &memSink{}
			switch alg {
			case "aea":
				opts := DefaultAEAOptions()
				opts.Iterations, opts.Parallelism = 40, 2
				opts.Sink, opts.CheckpointSink, opts.CheckpointEvery = sink, cps, 5
				AEA(inst, opts, xrand.New(7))
			case "ea":
				EA(inst, EAOptions{Iterations: 60, RunOptions: RunOptions{Parallelism: 2, Sink: sink},
					CheckpointSink: cps, CheckpointEvery: 5}, xrand.New(7))
			}
			rounds := sink.rounds(alg)
			if len(rounds) == 0 {
				t.Fatalf("%s/%s: no round events", mode, alg)
			}
			for _, r := range rounds {
				if r.Sigma < 0 || r.Sigma > maxSigma || r.SigmaWorst == nil || *r.SigmaWorst < 0 || *r.SigmaWorst > maxSigma {
					t.Fatalf("%s/%s round %d: σ = %d, σ⁻ = %v, want both in [0, %d]", mode, alg, r.Round, r.Sigma, r.SigmaWorst, maxSigma)
				}
			}
			checked := 0
			for _, e := range cps.events {
				cp, ok := e.(telemetry.CheckpointEvent)
				if !ok {
					continue
				}
				for _, sol := range append(slices.Clone(cp.Population), cp.Best) {
					if want := objective(inst, sol.Selection, 1); sol.Sigma != want {
						t.Fatalf("%s/%s checkpoint round %d: %v carries %d, objective %d", mode, alg, cp.Round, sol.Selection, sol.Sigma, want)
					}
					checked++
				}
			}
			if checked == 0 {
				t.Fatalf("%s/%s: no checkpointed solutions", mode, alg)
			}
		}
	}
}

// TestSurvivableExhaustiveAndRandom: on survivable instances Exhaustive
// returns a k-subset of largest objective, found here by an independent
// brute force, and RandomPlacement returns its first draw of largest
// objective, found by replaying its draws — at one worker and at several.
func TestSurvivableExhaustiveAndRandom(t *testing.T) {
	for _, mode := range []Survivability{SurviveShortcut, SurviveNode} {
		inst := surviveInstanceRetry(t, 8, 4, 3, 0.8, mode, 41)
		numCand, k := inst.NumCandidates(), inst.K()

		best := -1
		var rec func(start int, sel []int)
		rec = func(start int, sel []int) {
			if len(sel) == k {
				best = max(best, objective(inst, sel, 1))
				return
			}
			for c := start; c < numCand; c++ {
				rec(c+1, append(sel, c))
			}
		}
		rec(0, nil)

		const trials = 40
		draws := xrand.New(3)
		var wantRandom []int
		wantValue := -1
		for i := 0; i < trials; i++ {
			sel := draws.SampleDistinct(numCand, k)
			if v := objective(inst, sel, 1); v > wantValue {
				wantRandom, wantValue = sel, v
			}
		}

		for _, workers := range []int{1, 3} {
			pl, err := Exhaustive(inst, 1<<20, Parallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			distinct := slices.Clone(pl.Selection)
			slices.Sort(distinct)
			distinct = slices.Compact(distinct)
			if len(pl.Selection) != k || len(distinct) != k {
				t.Fatalf("%s par%d: Exhaustive returned %v, want %d distinct candidates", mode, workers, pl.Selection, k)
			}
			if got := objective(inst, pl.Selection, 1); got != best {
				t.Fatalf("%s par%d: Exhaustive objective %d, brute force %d", mode, workers, got, best)
			}
			rp, err := RandomPlacement(inst, trials, xrand.New(3), Parallelism(workers))
			if err != nil {
				t.Fatal(err)
			}
			if !slices.Equal(rp.Selection, wantRandom) {
				t.Fatalf("%s par%d: RandomPlacement returned %v (objective %d), want its best draw %v (objective %d)",
					mode, workers, rp.Selection, objective(inst, rp.Selection, 1), wantRandom, wantValue)
			}
		}
	}
}
