package submodular

import (
	"math"
	"testing"

	"msc/internal/xrand"
)

// coverageValue builds a coverage set function: f(S) = |∪_{i∈S} sets[i]|,
// the canonical monotone submodular function.
func coverageValue(sets [][]int) Value {
	return func(selection []int) float64 {
		covered := map[int]bool{}
		for _, s := range selection {
			for _, e := range sets[s] {
				covered[e] = true
			}
		}
		return float64(len(covered))
	}
}

// funcOracle adapts a plain Value function into an Oracle, recomputing from
// scratch. Fine for tests and small ground sets.
type funcOracle struct {
	f   Value
	cur []int
	val float64
}

// NewFuncOracle wraps a Value function as an Oracle with empty initial
// selection.
func NewFuncOracle(f Value) Oracle {
	return &funcOracle{f: f, val: f(nil)}
}

func (o *funcOracle) Gain(e int) float64 {
	return o.f(append(append([]int(nil), o.cur...), e)) - o.val
}

func (o *funcOracle) Accept(e int) {
	o.cur = append(o.cur, e)
	o.val = o.f(o.cur)
}

// Greedy selects up to k elements from the ground set [0, n) maximizing the
// oracle's objective, stopping early when every remaining marginal gain is
// ≤ 0. Ties break toward the smallest element, making runs deterministic.
func Greedy(n, k int, o Oracle) []int {
	var sel []int
	for len(sel) < k {
		bestE, bestGain := -1, 0.0
		for e := 0; e < n; e++ {
			if contains(sel, e) {
				continue
			}
			if g := o.Gain(e); g > bestGain {
				bestE, bestGain = e, g
			}
		}
		if bestE < 0 {
			break
		}
		o.Accept(bestE)
		sel = append(sel, bestE)
	}
	return sel
}

func contains(sel []int, e int) bool {
	for _, s := range sel {
		if s == e {
			return true
		}
	}
	return false
}

func TestCheckersOnCoverage(t *testing.T) {
	f := coverageValue([][]int{{0, 1}, {1, 2}, {3}, {0, 1, 2, 3}})
	if !IsMonotone(4, f) {
		t.Fatal("coverage not monotone?")
	}
	if ok, w := IsSubmodular(4, f); !ok {
		t.Fatalf("coverage not submodular? witness %+v", w)
	}
}

func TestCheckersDetectViolations(t *testing.T) {
	// f(S) = |S|² is supermodular (strictly, not submodular).
	f := func(sel []int) float64 { return float64(len(sel) * len(sel)) }
	if ok, w := IsSubmodular(4, f); ok {
		t.Fatal("|S|² misclassified as submodular")
	} else if w == nil {
		t.Fatal("no witness returned")
	} else if w.GainX >= w.GainY {
		t.Fatalf("witness inconsistent: %+v", w)
	}
	// Decreasing function is not monotone.
	g := func(sel []int) float64 { return -float64(len(sel)) }
	if IsMonotone(3, g) {
		t.Fatal("decreasing function misclassified as monotone")
	}
}

func TestGreedyOnModularFunction(t *testing.T) {
	// Additive weights: greedy must take the k largest.
	weights := []float64{5, 1, 9, 3, 7}
	f := func(sel []int) float64 {
		total := 0.0
		for _, s := range sel {
			total += weights[s]
		}
		return total
	}
	got := Greedy(5, 3, NewFuncOracle(f))
	want := map[int]bool{2: true, 4: true, 0: true}
	if len(got) != 3 {
		t.Fatalf("selected %v", got)
	}
	for _, s := range got {
		if !want[s] {
			t.Fatalf("selected %v, want top-3 {0,2,4}", got)
		}
	}
	// Greedy picks in decreasing-gain order.
	if got[0] != 2 || got[1] != 4 || got[2] != 0 {
		t.Fatalf("selection order %v", got)
	}
}

func TestGreedyStopsAtZeroGain(t *testing.T) {
	f := coverageValue([][]int{{0}, {0}, {0}})
	got := Greedy(3, 3, NewFuncOracle(f))
	if len(got) != 1 {
		t.Fatalf("greedy should stop after saturating: %v", got)
	}
}

func TestLazyGreedyMatchesGreedyOnSubmodular(t *testing.T) {
	rng := xrand.New(5)
	for trial := 0; trial < 40; trial++ {
		n := 3 + rng.Intn(8)
		universe := 3 + rng.Intn(10)
		sets := make([][]int, n)
		for i := range sets {
			for e := 0; e < universe; e++ {
				if rng.Bernoulli(0.3) {
					sets[i] = append(sets[i], e)
				}
			}
		}
		k := 1 + rng.Intn(4)
		f := coverageValue(sets)
		plain := Greedy(n, k, NewFuncOracle(f))
		lazy := LazyGreedy(n, k, NewFuncOracle(f))
		if len(plain) != len(lazy) {
			t.Fatalf("trial %d: lengths differ: %v vs %v", trial, plain, lazy)
		}
		for i := range plain {
			if plain[i] != lazy[i] {
				t.Fatalf("trial %d: %v vs %v", trial, plain, lazy)
			}
		}
	}
}

func TestGreedyNWFBound(t *testing.T) {
	// On random coverage instances, greedy ≥ (1−1/e) × exhaustive optimum.
	rng := xrand.New(6)
	for trial := 0; trial < 30; trial++ {
		n := 3 + rng.Intn(6)
		universe := 4 + rng.Intn(8)
		sets := make([][]int, n)
		for i := range sets {
			for e := 0; e < universe; e++ {
				if rng.Bernoulli(0.35) {
					sets[i] = append(sets[i], e)
				}
			}
		}
		k := 1 + rng.Intn(3)
		f := coverageValue(sets)
		greedyVal := f(Greedy(n, k, NewFuncOracle(f)))
		opt := bestSubsetValue(n, k, f)
		if greedyVal < (1-1/math.E)*opt-1e-9 {
			t.Fatalf("trial %d: greedy %v < (1-1/e)·opt %v", trial, greedyVal, opt)
		}
	}
}

func bestSubsetValue(n, k int, f Value) float64 {
	best := f(nil)
	var rec func(start int, sel []int)
	rec = func(start int, sel []int) {
		if v := f(sel); v > best {
			best = v
		}
		if len(sel) == k {
			return
		}
		for i := start; i < n; i++ {
			rec(i+1, append(sel, i))
		}
	}
	rec(0, nil)
	return best
}
