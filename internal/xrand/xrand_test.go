package xrand

import (
	"math"
	"math/rand"
	"testing"
)

// TestStreamMatchesStdlib pins the wrapper transparency guarantee: the
// counting source must not alter the values math/rand would produce, or
// every seeded experiment in the repository silently changes.
func TestStreamMatchesStdlib(t *testing.T) {
	r := New(42)
	std := rand.New(rand.NewSource(42))
	for i := 0; i < 200; i++ {
		switch i % 4 {
		case 0:
			if got, want := r.Int63(), std.Int63(); got != want {
				t.Fatalf("draw %d: Int63 %d != stdlib %d", i, got, want)
			}
		case 1:
			if got, want := r.Float64(), std.Float64(); got != want {
				t.Fatalf("draw %d: Float64 %v != stdlib %v", i, got, want)
			}
		case 2:
			if got, want := r.Intn(97), std.Intn(97); got != want {
				t.Fatalf("draw %d: Intn %d != stdlib %d", i, got, want)
			}
		case 3:
			if got, want := r.NormFloat64(), std.NormFloat64(); got != want {
				t.Fatalf("draw %d: NormFloat64 %v != stdlib %v", i, got, want)
			}
		}
	}
}

func TestStateRestore(t *testing.T) {
	// Burn a heterogeneous prefix (every sampler draws through the counted
	// source), checkpoint, and continue on both the original and a restored
	// copy: the suffixes must agree bit-for-bit.
	r := New(99)
	for i := 0; i < 50; i++ {
		r.Intn(1000)
		r.Float64()
		r.Binomial(100, 0.05)
		r.SampleDistinct(30, 4)
		r.NormFloat64()
	}
	seed, draws := r.State()
	if seed != 99 || draws == 0 {
		t.Fatalf("State() = (%d, %d), want seed 99 and draws > 0", seed, draws)
	}
	fresh := NewFromState(seed, draws)
	for i := 0; i < 200; i++ {
		if a, b := r.Int63(), fresh.Int63(); a != b {
			t.Fatalf("draw %d after restore diverged: %d != %d", i, a, b)
		}
	}
	// Restore rewinds an existing Rand too.
	r.Restore(99, 0)
	ref := New(99)
	for i := 0; i < 50; i++ {
		if a, b := r.Int63(), ref.Int63(); a != b {
			t.Fatalf("rewound draw %d diverged: %d != %d", i, a, b)
		}
	}
}

func TestDeterminism(t *testing.T) {
	a, b := New(42), New(42)
	for i := 0; i < 100; i++ {
		if a.Int63() != b.Int63() {
			t.Fatal("same seed diverged")
		}
	}
}

// Split derives a new independent Rand from r. The derived stream is a
// deterministic function of r's current state, so a fixed sequence of Split
// calls is reproducible.
func (r *Rand) Split() *Rand {
	return New(r.src.Int63())
}

func TestSplitIndependentButDeterministic(t *testing.T) {
	a1 := New(7).Split()
	a2 := New(7).Split()
	if a1.Int63() != a2.Int63() {
		t.Fatal("split streams not reproducible")
	}
	// Parent and child streams differ.
	parent := New(7)
	child := parent.Split()
	same := 0
	for i := 0; i < 20; i++ {
		if parent.Int63() == child.Int63() {
			same++
		}
	}
	if same == 20 {
		t.Fatal("split stream identical to parent")
	}
}

func TestBernoulliEdges(t *testing.T) {
	r := New(1)
	for i := 0; i < 10; i++ {
		if r.Bernoulli(0) {
			t.Fatal("Bernoulli(0) returned true")
		}
		if !r.Bernoulli(1) {
			t.Fatal("Bernoulli(1) returned false")
		}
	}
}

func TestBernoulliMean(t *testing.T) {
	r := New(2)
	const trials = 20000
	hits := 0
	for i := 0; i < trials; i++ {
		if r.Bernoulli(0.3) {
			hits++
		}
	}
	mean := float64(hits) / trials
	if math.Abs(mean-0.3) > 0.02 {
		t.Fatalf("Bernoulli(0.3) mean = %v", mean)
	}
}

func TestBinomialMoments(t *testing.T) {
	r := New(3)
	cases := []struct {
		n int
		p float64
	}{
		{100, 0.01},    // inversion path
		{4950, 0.0002}, // inversion path, tiny p (EA mutation regime)
		{10000, 0.3},   // normal-approximation path
	}
	for _, tc := range cases {
		const trials = 4000
		sum, sumSq := 0.0, 0.0
		for i := 0; i < trials; i++ {
			v := float64(r.Binomial(tc.n, tc.p))
			if v < 0 || v > float64(tc.n) {
				t.Fatalf("Binomial(%d, %v) = %v out of range", tc.n, tc.p, v)
			}
			sum += v
			sumSq += v * v
		}
		mean := sum / trials
		wantMean := float64(tc.n) * tc.p
		variance := sumSq/trials - mean*mean
		wantVar := wantMean * (1 - tc.p)
		// 5 standard errors of tolerance.
		seMean := math.Sqrt(wantVar / trials)
		if math.Abs(mean-wantMean) > 5*seMean+1e-9 {
			t.Errorf("Binomial(%d, %v): mean %v, want %v", tc.n, tc.p, mean, wantMean)
		}
		if wantVar > 0.01 && math.Abs(variance-wantVar) > 0.3*wantVar {
			t.Errorf("Binomial(%d, %v): var %v, want %v", tc.n, tc.p, variance, wantVar)
		}
	}
}

func TestBinomialEdges(t *testing.T) {
	r := New(4)
	if r.Binomial(0, 0.5) != 0 || r.Binomial(10, 0) != 0 {
		t.Fatal("degenerate binomial not 0")
	}
	if r.Binomial(10, 1) != 10 {
		t.Fatal("Binomial(10, 1) != 10")
	}
}

func TestSampleDistinct(t *testing.T) {
	r := New(5)
	for _, tc := range []struct{ n, count int }{
		{10, 0}, {10, 1}, {10, 5}, {10, 10}, {1000, 3}, {1000, 900},
	} {
		got := r.SampleDistinct(tc.n, tc.count)
		if len(got) != tc.count {
			t.Fatalf("SampleDistinct(%d, %d) returned %d items", tc.n, tc.count, len(got))
		}
		seen := map[int]bool{}
		for _, v := range got {
			if v < 0 || v >= tc.n {
				t.Fatalf("value %d out of range [0, %d)", v, tc.n)
			}
			if seen[v] {
				t.Fatalf("duplicate value %d", v)
			}
			seen[v] = true
		}
	}
}

func TestSampleDistinctUniform(t *testing.T) {
	// Each element should appear with roughly equal frequency.
	r := New(6)
	counts := make([]int, 10)
	const trials = 30000
	for i := 0; i < trials; i++ {
		for _, v := range r.SampleDistinct(10, 3) {
			counts[v]++
		}
	}
	want := float64(trials) * 3 / 10
	for v, c := range counts {
		if math.Abs(float64(c)-want) > 0.07*want {
			t.Errorf("element %d drawn %d times, want ≈ %.0f", v, c, want)
		}
	}
}

func TestSampleDistinctPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).SampleDistinct(3, 4)
}

// Exp returns an exponential variate with rate lambda (mean 1/lambda).
// It panics if lambda <= 0.
func (r *Rand) Exp(lambda float64) float64 {
	if lambda <= 0 {
		panic("xrand: Exp requires lambda > 0")
	}
	return r.src.ExpFloat64() / lambda
}

func TestExp(t *testing.T) {
	r := New(7)
	const trials = 20000
	sum := 0.0
	for i := 0; i < trials; i++ {
		v := r.Exp(2)
		if v < 0 {
			t.Fatal("negative exponential variate")
		}
		sum += v
	}
	if mean := sum / trials; math.Abs(mean-0.5) > 0.02 {
		t.Fatalf("Exp(2) mean = %v, want 0.5", mean)
	}
}

func TestExpPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	New(1).Exp(0)
}

func TestPermAndShuffle(t *testing.T) {
	r := New(8)
	p := r.Perm(20)
	seen := make([]bool, 20)
	for _, v := range p {
		if seen[v] {
			t.Fatal("perm repeated a value")
		}
		seen[v] = true
	}
	xs := []int{0, 1, 2, 3, 4, 5, 6, 7}
	r.Shuffle(len(xs), func(i, j int) { xs[i], xs[j] = xs[j], xs[i] })
	sum := 0
	for _, x := range xs {
		sum += x
	}
	if sum != 28 {
		t.Fatal("shuffle lost elements")
	}
}
