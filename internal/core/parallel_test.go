package core

import (
	"fmt"
	"reflect"
	"runtime"
	"testing"

	"msc/internal/xrand"
)

// This file locks in the determinism contract of the parallel candidate-
// scan engine (parallel.go): for every algorithm, Parallelism(1) and
// Parallelism(n) must produce identical placements — same selection, same
// order, same σ — on every instance. Run it under -race to also certify
// that the sharded scans share no mutable state.

// comparePlacements fails the test when two placements differ in any
// observable way.
func comparePlacements(t *testing.T, what string, serial, parallel Placement) {
	t.Helper()
	if serial.Sigma != parallel.Sigma {
		t.Errorf("%s: σ differs: serial %d, parallel %d", what, serial.Sigma, parallel.Sigma)
	}
	if !reflect.DeepEqual(serial.Selection, parallel.Selection) {
		t.Errorf("%s: selection differs: serial %v, parallel %v", what, serial.Selection, parallel.Selection)
	}
	if !reflect.DeepEqual(serial.Edges, parallel.Edges) {
		t.Errorf("%s: edges differ: serial %v, parallel %v", what, serial.Edges, parallel.Edges)
	}
}

// referenceGreedySigma is an independent oracle for the greedy-σ placement:
// plain σ evaluations, no incremental search, no engine. It pins down the
// exact pre-engine semantics — argmax with ties toward the lowest candidate
// index, stop on non-positive gain — so the equivalence tests certify the
// engine against the algorithm's definition, not against itself.
func referenceGreedySigma(p Problem) []int {
	sel := []int{}
	for len(sel) < p.K() {
		base := p.Sigma(sel)
		bestCand, bestGain := 0, p.Sigma(append(append([]int(nil), sel...), 0))-base
		for c := 1; c < p.NumCandidates(); c++ {
			gain := p.Sigma(append(append([]int(nil), sel...), c)) - base
			if gain > bestGain {
				bestCand, bestGain = c, gain
			}
		}
		if bestGain <= 0 {
			break
		}
		sel = append(sel, bestCand)
	}
	return sel
}

// TestSerialParallelEquivalence certifies, for every placement algorithm,
// that Parallelism(1) and Parallelism(8) return identical placements on
// seeded random-geometric instances. Randomized algorithms get identical
// seeds on both sides: the engine guarantees the rng consumes the same
// draws in the same order regardless of worker count.
func TestSerialParallelEquivalence(t *testing.T) {
	const seeds = 24
	const workers = 8
	for seed := int64(0); seed < seeds; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			rng := xrand.New(7000 + seed)
			n := 13 + int(seed%5)
			inst := testInstance(t, n, 6, 3, 0.8, rng)

			t.Run("greedy_sigma", func(t *testing.T) {
				serial := GreedySigma(inst, Parallelism(1))
				par := GreedySigma(inst, Parallelism(workers))
				comparePlacements(t, "GreedySigma", serial, par)
				if ref := referenceGreedySigma(inst); !reflect.DeepEqual(serial.Selection, ref) {
					t.Errorf("serial greedy deviates from reference oracle: got %v, want %v",
						serial.Selection, ref)
				}
			})

			t.Run("sandwich", func(t *testing.T) {
				serial := Sandwich(inst, Parallelism(1))
				par := Sandwich(inst, Parallelism(workers))
				comparePlacements(t, "Sandwich.Best", serial.Best, par.Best)
				comparePlacements(t, "Sandwich.FMu", serial.FMu, par.FMu)
				comparePlacements(t, "Sandwich.FSigma", serial.FSigma, par.FSigma)
				comparePlacements(t, "Sandwich.FNu", serial.FNu, par.FNu)
				if serial.Ratio != par.Ratio {
					t.Errorf("sandwich ratio differs: serial %v, parallel %v", serial.Ratio, par.Ratio)
				}
			})

			t.Run("ea", func(t *testing.T) {
				serial := EA(inst, EAOptions{Iterations: 40, Parallelism: 1}, xrand.New(seed))
				par := EA(inst, EAOptions{Iterations: 40, Parallelism: workers}, xrand.New(seed))
				comparePlacements(t, "EA.Best", serial.Best, par.Best)
				if serial.Evaluations != par.Evaluations || serial.PopulationSize != par.PopulationSize {
					t.Errorf("EA run shape differs: serial (%d evals, pop %d), parallel (%d evals, pop %d)",
						serial.Evaluations, serial.PopulationSize, par.Evaluations, par.PopulationSize)
				}
			})

			t.Run("aea", func(t *testing.T) {
				serialOpts := AEAOptions{Iterations: 40, PopSize: 5, Delta: 0.05, RecordTrace: true, Parallelism: 1}
				parOpts := serialOpts
				parOpts.Parallelism = workers
				serial := AEA(inst, serialOpts, xrand.New(seed))
				par := AEA(inst, parOpts, xrand.New(seed))
				comparePlacements(t, "AEA.Best", serial.Best, par.Best)
				if !reflect.DeepEqual(serial.Trace, par.Trace) {
					t.Errorf("AEA trace differs between worker counts")
				}
			})

			t.Run("aea_seed_greedy", func(t *testing.T) {
				serialOpts := AEAOptions{Iterations: 20, PopSize: 5, Delta: 0.05, SeedGreedy: true, Parallelism: 1}
				parOpts := serialOpts
				parOpts.Parallelism = workers
				serial := AEA(inst, serialOpts, xrand.New(seed))
				par := AEA(inst, parOpts, xrand.New(seed))
				comparePlacements(t, "AEA(SeedGreedy).Best", serial.Best, par.Best)
			})

			t.Run("random_placement", func(t *testing.T) {
				serial, serr := RandomPlacement(inst, 30, xrand.New(seed), Parallelism(1))
				par, perr := RandomPlacement(inst, 30, xrand.New(seed), Parallelism(workers))
				if serr != nil || perr != nil {
					t.Fatalf("RandomPlacement: serial err %v, parallel err %v", serr, perr)
				}
				comparePlacements(t, "RandomPlacement", serial, par)
			})

			t.Run("local_search", func(t *testing.T) {
				start := xrand.New(seed).SampleDistinct(inst.NumCandidates(), inst.K())
				serial := LocalSearch(inst, start, LocalSearchOptions{Parallelism: 1})
				par := LocalSearch(inst, start, LocalSearchOptions{Parallelism: workers})
				comparePlacements(t, "LocalSearch", serial, par)
			})

			t.Run("sigma_par", func(t *testing.T) {
				r := xrand.New(seed)
				for rep := 0; rep < 10; rep++ {
					sel := r.SampleDistinct(inst.NumCandidates(), 1+r.Intn(3))
					want := inst.Sigma(sel)
					for _, w := range []int{2, 3, workers} {
						if got := inst.SigmaPar(sel, w); got != want {
							t.Fatalf("SigmaPar(%v, %d) = %d, want %d", sel, w, got, want)
						}
					}
				}
			})
		})
	}
}

// TestExhaustiveSerialParallelEquivalence runs the exact solver on small
// instances where full enumeration is cheap, across several worker counts;
// the strided enumeration must recover the exact combination the serial
// scan keeps (lowest enumeration index among the optima).
func TestExhaustiveSerialParallelEquivalence(t *testing.T) {
	for seed := int64(0); seed < 20; seed++ {
		rng := xrand.New(8100 + seed)
		inst := testInstance(t, 8, 4, 2, 0.8, rng)
		serial, err := Exhaustive(inst, 100000, Parallelism(1))
		if err != nil {
			t.Fatalf("seed %d: serial exhaustive: %v", seed, err)
		}
		for _, workers := range []int{2, 3, 5, 16} {
			par, err := Exhaustive(inst, 100000, Parallelism(workers))
			if err != nil {
				t.Fatalf("seed %d: parallel exhaustive (%d workers): %v", seed, workers, err)
			}
			comparePlacements(t, fmt.Sprintf("Exhaustive seed %d workers %d", seed, workers), serial, par)
		}
	}
}

// TestGainsAddShardedMatchesSerial drives the sharded gains scan directly
// against the serial one on the same search state, across worker counts
// that exercise unbalanced and degenerate shard splits.
func TestGainsAddShardedMatchesSerial(t *testing.T) {
	rng := xrand.New(8200)
	inst := testInstance(t, 16, 7, 3, 0.8, rng)
	for rep := 0; rep < 5; rep++ {
		sel := rng.SampleDistinct(inst.NumCandidates(), rep%3)
		serialSearch := inst.NewSearch(sel)
		want := append([]int(nil), serialSearch.GainsAdd()...)
		for _, workers := range []int{2, 3, 7, 64} {
			s := inst.NewSearch(sel)
			s.SetWorkers(workers)
			if got := s.GainsAdd(); !reflect.DeepEqual(append([]int(nil), got...), want) {
				t.Fatalf("rep %d, %d workers: sharded gains differ from serial", rep, workers)
			}
		}
	}
}

// TestParBestAddAndDrop checks BestAdd and BestDrop after SetWorkers
// against the serial Search methods.
func TestParBestAddAndDrop(t *testing.T) {
	rng := xrand.New(8400)
	inst := testInstance(t, 15, 6, 3, 0.8, rng)
	sel := rng.SampleDistinct(inst.NumCandidates(), 3)

	serial := inst.NewSearch(sel)
	wantCand, wantGain := serial.BestAdd()
	wantPos, wantSigma := serial.BestDrop()

	for _, workers := range []int{2, 5, 16} {
		s := inst.NewSearch(sel)
		s.SetWorkers(workers)
		if cand, gain := s.BestAdd(); cand != wantCand || gain != wantGain {
			t.Errorf("BestAdd(%d workers) = (%d, %d), want (%d, %d)", workers, cand, gain, wantCand, wantGain)
		}
		s = inst.NewSearch(sel)
		s.SetWorkers(workers)
		if pos, sigma := s.BestDrop(); pos != wantPos || sigma != wantSigma {
			t.Errorf("BestDrop(%d workers) = (%d, %d), want (%d, %d)", workers, pos, sigma, wantPos, wantSigma)
		}
	}
}

// TestParBestSwapMatchesSerialScan pins ParBestSwap against the serial
// drop×add scan it replaces (the LocalSearch inner loop).
func TestParBestSwapMatchesSerialScan(t *testing.T) {
	rng := xrand.New(8500)
	inst := testInstance(t, 15, 6, 4, 0.8, rng)
	for rep := 0; rep < 5; rep++ {
		sel := rng.SampleDistinct(inst.NumCandidates(), 4)
		cur := inst.Sigma(sel)

		wantDrop, wantAdd, wantSigma := -1, -1, cur
		for pos := 0; pos < len(sel); pos++ {
			rest := make([]int, 0, len(sel)-1)
			rest = append(rest, sel[:pos]...)
			rest = append(rest, sel[pos+1:]...)
			sub := inst.NewSearch(rest)
			cand, gain := sub.BestAdd()
			if sigma := sub.Sigma() + gain; sigma > wantSigma {
				wantDrop, wantAdd, wantSigma = pos, cand, sigma
			}
		}

		for _, workers := range []int{1, 2, 3, 8} {
			drop, add, sigma := ParBestSwap(inst, sel, cur, workers)
			if drop != wantDrop || add != wantAdd || sigma != wantSigma {
				t.Fatalf("rep %d, %d workers: ParBestSwap = (%d, %d, %d), want (%d, %d, %d)",
					rep, workers, drop, add, sigma, wantDrop, wantAdd, wantSigma)
			}
		}
	}
}

// TestParallelForCoversRange checks the engine's shard splitter: every
// index in [0, n) is visited exactly once, shards are contiguous, and
// degenerate worker counts collapse to the inline path.
func TestParallelForCoversRange(t *testing.T) {
	for _, workers := range []int{1, 2, 3, 7, 64} {
		for _, n := range []int{0, 1, 2, 5, 17, 100} {
			visits := make([]int, n)
			ParallelFor(workers, n, func(_, lo, hi int) {
				if lo < 0 || hi > n || lo >= hi {
					t.Errorf("workers=%d n=%d: bad shard [%d, %d)", workers, n, lo, hi)
					return
				}
				for i := lo; i < hi; i++ {
					visits[i]++ // shards are disjoint, so this is race-free
				}
			})
			for i, v := range visits {
				if v != 1 {
					t.Fatalf("workers=%d n=%d: index %d visited %d times", workers, n, i, v)
				}
			}
		}
	}
}

// TestTriRowBounds checks the triangular-grid row splitter: bounds are
// monotone, cover exactly the rows [0, t−1), and never produce an
// out-of-range row.
func TestTriRowBounds(t *testing.T) {
	for _, tt := range []int{2, 3, 4, 10, 50, 141} {
		for _, workers := range []int{1, 2, 3, 8, 200} {
			bounds := triRowBounds(tt, workers)
			if bounds[0] != 0 || bounds[len(bounds)-1] != tt-1 {
				t.Fatalf("t=%d workers=%d: bounds %v do not span [0, %d]", tt, workers, bounds, tt-1)
			}
			for i := 1; i < len(bounds); i++ {
				if bounds[i] < bounds[i-1] {
					t.Fatalf("t=%d workers=%d: bounds %v not monotone", tt, workers, bounds)
				}
			}
		}
	}
}

// TestResolveParallelism covers the option plumbing and the two-step
// chain: n ≥ 1 as given, else GOMAXPROCS.
func TestResolveParallelism(t *testing.T) {
	if got := ResolveParallelism(5); got != 5 {
		t.Errorf("ResolveParallelism(5) = %d", got)
	}
	if got := ResolveParallelism(1); got != 1 {
		t.Errorf("ResolveParallelism(1) = %d", got)
	}
	for _, n := range []int{0, -3} {
		if got := ResolveParallelism(n); got != runtime.GOMAXPROCS(0) {
			t.Errorf("ResolveParallelism(%d) = %d, want GOMAXPROCS = %d", n, got, runtime.GOMAXPROCS(0))
		}
	}
	if got := resolveOptions([]Option{Parallelism(7)}); got != 7 {
		t.Errorf("resolveOptions(Parallelism(7)) = %d", got)
	}
}
