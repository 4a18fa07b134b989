package dynamic

import (
	"fmt"
	"reflect"
	"testing"

	"msc/internal/core"
	"msc/internal/xrand"
)

// The dynamic problem must honor the same determinism contract as the
// single-topology instance: the sharded scans (over time instances here,
// over candidate rows inside each instance) produce placements identical
// to the serial code path for every worker count.

func newTestProblem(t *testing.T, seed int64) *Problem {
	t.Helper()
	p, err := NewProblem(seriesInstances(t, 12, 5, 3, 4, 0.9, seed))
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestSigmaParMatchesSigma(t *testing.T) {
	p := newTestProblem(t, 51)
	rng := xrand.New(51)
	for rep := 0; rep < 20; rep++ {
		sel := rng.SampleDistinct(p.NumCandidates(), 1+rng.Intn(3))
		want := p.Sigma(sel)
		for _, workers := range []int{1, 2, 3, 8} {
			if got := p.SigmaPar(sel, workers); got != want {
				t.Fatalf("SigmaPar(%v, %d) = %d, want %d", sel, workers, got, want)
			}
		}
	}
}

func TestMultiSearchShardedScansMatchSerial(t *testing.T) {
	p := newTestProblem(t, 52)
	rng := xrand.New(52)
	for rep := 0; rep < 5; rep++ {
		sel := rng.SampleDistinct(p.NumCandidates(), 1+rep%3)
		serial := p.NewSearch(sel)
		wantGains := append([]int(nil), serial.GainsAdd()...)
		wantDrops := make([]int, len(sel))
		for pos := range sel {
			wantDrops[pos] = serial.SigmaDrop(pos)
		}
		for _, workers := range []int{2, 3, 8} {
			s := p.NewSearch(sel)
			s.SetWorkers(workers)
			if got := append([]int(nil), s.GainsAdd()...); !reflect.DeepEqual(got, wantGains) {
				t.Fatalf("rep %d, %d workers: sharded GainsAdd differs from serial", rep, workers)
			}
			if got := append([]int(nil), s.SigmaDrops()...); !reflect.DeepEqual(got, wantDrops) {
				t.Fatalf("rep %d, %d workers: SigmaDrops = %v, want %v", rep, workers, got, wantDrops)
			}
		}
	}
}

func TestDynamicSerialParallelEquivalence(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			p := newTestProblem(t, 60+seed)

			serial := core.GreedySigma(p, core.Parallelism(1))
			par := core.GreedySigma(p, core.Parallelism(8))
			if serial.Sigma != par.Sigma || !reflect.DeepEqual(serial.Selection, par.Selection) {
				t.Errorf("GreedySigma differs: serial (%v, σ %d), parallel (%v, σ %d)",
					serial.Selection, serial.Sigma, par.Selection, par.Sigma)
			}

			opts := core.AEAOptions{Iterations: 30, PopSize: 4, Delta: 0.05, RunOptions: core.RunOptions{Parallelism: 1}}
			aeaSerial := core.AEA(p, opts, xrand.New(seed))
			opts.Parallelism = 8
			aeaPar := core.AEA(p, opts, xrand.New(seed))
			if aeaSerial.Best.Sigma != aeaPar.Best.Sigma ||
				!reflect.DeepEqual(aeaSerial.Best.Selection, aeaPar.Best.Selection) {
				t.Errorf("AEA differs: serial (%v, σ %d), parallel (%v, σ %d)",
					aeaSerial.Best.Selection, aeaSerial.Best.Sigma,
					aeaPar.Best.Selection, aeaPar.Best.Sigma)
			}

			rndSerial, serr := core.RandomPlacement(p, 20, xrand.New(seed), core.Parallelism(1))
			rndPar, perr := core.RandomPlacement(p, 20, xrand.New(seed), core.Parallelism(8))
			if serr != nil || perr != nil {
				t.Fatalf("RandomPlacement: serial err %v, parallel err %v", serr, perr)
			}
			if rndSerial.Sigma != rndPar.Sigma || !reflect.DeepEqual(rndSerial.Selection, rndPar.Selection) {
				t.Errorf("RandomPlacement differs: serial (%v, σ %d), parallel (%v, σ %d)",
					rndSerial.Selection, rndSerial.Sigma, rndPar.Selection, rndPar.Sigma)
			}
		})
	}
}
