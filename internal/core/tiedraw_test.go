package core

import (
	"testing"

	"msc/internal/xrand"
)

// gainsStub is a Search serving a fixed gains array; the add draws read
// nothing else of it.
type gainsStub struct {
	Search
	gains []int
}

func (g gainsStub) GainsAdd() []int { return g.gains }

// costStub is a BudgetProblem serving fixed prices; the budgeted add draw
// reads nothing else of it.
type costStub struct {
	BudgetProblem
	costs []float64
}

func (c costStub) Cost(cand int) float64 { return c.costs[cand] }

// twoPassBestAdd is the count-then-rescan draw randomBestAdd replaced:
// one pass counts the maximizers, a second returns the j-th for
// j = rng.Intn(count).
func twoPassBestAdd(s Search, rng *xrand.Rand) int {
	gains := s.GainsAdd()
	bestGain, count := 0, 0
	for _, g := range gains {
		switch {
		case g > bestGain:
			bestGain, count = g, 1
		case g == bestGain && g > 0:
			count++
		}
	}
	if bestGain <= 0 {
		return -1
	}
	j := rng.Intn(count)
	for c, g := range gains {
		if g == bestGain {
			if j == 0 {
				return c
			}
			j--
		}
	}
	return -1
}

// twoPassBestAddBudget is twoPassBestAdd over the candidates affordable
// within rem, as the affordable randomBestAdd drew before.
func twoPassBestAddBudget(s Search, bp BudgetProblem, rem float64, rng *xrand.Rand) int {
	gains := s.GainsAdd()
	bestGain, count := 0, 0
	for c, g := range gains {
		if bp.Cost(c) > rem {
			continue
		}
		switch {
		case g > bestGain:
			bestGain, count = g, 1
		case g == bestGain && g > 0:
			count++
		}
	}
	if bestGain <= 0 {
		return -1
	}
	j := rng.Intn(count)
	for c, g := range gains {
		if g == bestGain && bp.Cost(c) <= rem {
			if j == 0 {
				return c
			}
			j--
		}
	}
	return -1
}

// TestTieDrawMatchesTwoPass pins the one-pass argmax draws to the
// two-pass draws they replaced: on gain arrays that are all zero, have one
// maximum, have many ties, and (budgeted) have their maxima priced out,
// both pick the same candidate and consume the same rng draws. One tie
// buffer serves every draw, as one AEA run reuses it.
func TestTieDrawMatchesTwoPass(t *testing.T) {
	gen := xrand.New(77)
	many := make([]int, 2000)
	for i := range many {
		many[i] = gen.Intn(4) // values 0..3: hundreds of ties at 3
	}
	sparse := make([]int, 2000)
	for i := 0; i < 40; i++ {
		sparse[gen.Intn(len(sparse))] = 1 + gen.Intn(2)
	}
	cases := []struct {
		name  string
		gains []int
		costs []float64 // nil: random prices 1..4
	}{
		{"all zero", make([]int, 500), nil},
		{"empty", nil, nil},
		{"single max", []int{0, 3, 1, 2, 0, 7, 2, 0, 6}, nil},
		{"last max", []int{1, 1, 1, 0, 2}, nil},
		{"many ties", many, nil},
		{"sparse ties", sparse, nil},
		{"maxima priced out", []int{5, 5, 3, 0, 3, 1, 3}, []float64{9, 9, 1, 1, 2, 1, 3}},
	}
	var ties []int
	for _, tc := range cases {
		s, costs := gainsStub{gains: tc.gains}, tc.costs
		if costs == nil {
			costs = make([]float64, len(tc.gains))
			for i := range costs {
				costs[i] = float64(1 + gen.Intn(4))
			}
		}
		bp := costStub{costs: costs}
		for seed := int64(0); seed < 20; seed++ {
			got, want := xrand.New(seed), xrand.New(seed)
			for draw := 0; draw < 5; draw++ {
				if c, w := randomBestAdd(s, nil, got, &ties), twoPassBestAdd(s, want); c != w {
					t.Fatalf("%s seed %d draw %d: randomBestAdd = %d, two-pass %d", tc.name, seed, draw, c, w)
				}
				for _, rem := range []float64{0.5, 1, 2.5, 4} {
					fits := func(c int) bool { return bp.Cost(c) <= rem }
					if c, w := randomBestAdd(s, fits, got, &ties), twoPassBestAddBudget(s, bp, rem, want); c != w {
						t.Fatalf("%s seed %d draw %d rem %v: affordable randomBestAdd = %d, two-pass %d", tc.name, seed, draw, rem, c, w)
					}
				}
				_, gd := got.State()
				_, wd := want.State()
				if gd != wd {
					t.Fatalf("%s seed %d draw %d: %d rng draws, two-pass %d", tc.name, seed, draw, gd, wd)
				}
			}
		}
	}
}
