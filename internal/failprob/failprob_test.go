package failprob

import (
	"fmt"
	"math"
	"testing"
	"testing/quick"
)

func TestLengthFromProbKnownValues(t *testing.T) {
	if got := LengthFromProb(0); got != 0 {
		t.Fatalf("LengthFromProb(0) = %v, want 0 (shortcut edges)", got)
	}
	// -ln(1-0.5) = ln 2
	if got := LengthFromProb(0.5); math.Abs(got-math.Ln2) > 1e-15 {
		t.Fatalf("LengthFromProb(0.5) = %v, want ln 2", got)
	}
}

func TestRoundTrip(t *testing.T) {
	f := func(raw float64) bool {
		p := math.Abs(math.Mod(raw, 1)) * 0.999 // p ∈ [0, 0.999)
		l := LengthFromProb(p)
		back := ProbFromLength(l)
		return math.Abs(back-p) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestProbFromLengthEdges(t *testing.T) {
	if got := ProbFromLength(0); got != 0 {
		t.Fatalf("ProbFromLength(0) = %v", got)
	}
	if got := ProbFromLength(math.Inf(1)); got != 1 {
		t.Fatalf("ProbFromLength(+Inf) = %v, want 1 (unreachable)", got)
	}
}

func TestInvalidInputsPanic(t *testing.T) {
	cases := []func(){
		func() { LengthFromProb(-0.1) },
		func() { LengthFromProb(1) },
		func() { LengthFromProb(math.NaN()) },
		func() { ProbFromLength(-1) },
		func() { ProbFromLength(math.NaN()) },
		func() { PathFailure([]float64{1.5}) },
	}
	for i, fn := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("case %d: expected panic", i)
				}
			}()
			fn()
		}()
	}
}

// PathFailure is the reference for the formulation's additivity: the
// failure probability of a path whose links have the given failure
// probabilities, 1 − Π (1 − p_i), computed link-wise.
func PathFailure(probs []float64) float64 {
	logSurvive := 0.0
	for _, p := range probs {
		if p < 0 || p > 1 || math.IsNaN(p) {
			panic(fmt.Sprintf("failprob: probability %v outside [0, 1]", p))
		}
		if p == 1 {
			return 1
		}
		logSurvive += math.Log1p(-p)
	}
	return -math.Expm1(logSurvive)
}

func TestPathFailure(t *testing.T) {
	// Two links at 0.5 each: fail unless both survive → 1 - 0.25.
	if got := PathFailure([]float64{0.5, 0.5}); math.Abs(got-0.75) > 1e-12 {
		t.Fatalf("PathFailure = %v, want 0.75", got)
	}
	if got := PathFailure(nil); got != 0 {
		t.Fatalf("empty path failure = %v, want 0", got)
	}
	if got := PathFailure([]float64{0.2, 1, 0.2}); got != 1 {
		t.Fatalf("dead link path failure = %v, want 1", got)
	}
}

// Property: the additivity identity behind the formulation (§III-C) —
// the failure probability of a concatenated path computed link-wise
// equals converting the summed lengths back.
func TestPathFailureMatchesLengthSum(t *testing.T) {
	f := func(raws []float64) bool {
		probs := make([]float64, 0, len(raws))
		total := 0.0
		for _, r := range raws {
			p := math.Abs(math.Mod(r, 1)) * 0.99
			probs = append(probs, p)
			total += LengthFromProb(p)
		}
		direct := PathFailure(probs)
		viaLength := ProbFromLength(total)
		return math.Abs(direct-viaLength) < 1e-9
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestThreshold(t *testing.T) {
	thr := NewThreshold(0.25)
	if math.Abs(thr.D-(-math.Log(0.75))) > 1e-15 {
		t.Fatalf("d_t = %v", thr.D)
	}
	if got := ProbFromLength(thr.D); math.Abs(got-thr.P) > 1e-15 {
		t.Fatalf("ProbFromLength(d_t) = %v, want p_t = %v", got, thr.P)
	}
	if thr.String() == "" {
		t.Fatal("empty String")
	}
}

// Property: monotone duality — shorter paths always mean lower failure.
func TestMonotoneDuality(t *testing.T) {
	f := func(a, b float64) bool {
		la := math.Abs(math.Mod(a, 10))
		lb := math.Abs(math.Mod(b, 10))
		if la > lb {
			la, lb = lb, la
		}
		return ProbFromLength(la) <= ProbFromLength(lb)+1e-15
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}
