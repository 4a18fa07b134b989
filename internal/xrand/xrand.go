// Package xrand provides deterministic, seedable random-number helpers used
// by the generators and the randomized placement algorithms.
//
// Every randomized component in this repository receives an explicit *Rand so
// that experiments are reproducible bit-for-bit from a single seed. The
// package wraps math/rand (stdlib) and adds samplers that the algorithms
// need: binomial draws for evolutionary bit-flip mutation, sampling without
// replacement, and seed splitting for independent subsystem streams.
package xrand

import (
	"math"
	"math/rand"
)

// Rand is a deterministic source of randomness. It is NOT safe for
// concurrent use; derive independent streams with Split instead of sharing.
type Rand struct {
	src *rand.Rand
	cnt *countingSource
}

// countingSource wraps a rand.Source64 and counts how many values it has
// produced. Every Int63 or Uint64 call advances the underlying generator by
// exactly one state step, so (seed, draws) fully captures the stream
// position: rebuilding the source and discarding draws values reproduces the
// state bit-for-bit. The wrapper forwards values untouched, so streams are
// identical to an unwrapped math/rand source.
type countingSource struct {
	src   rand.Source64
	seed  int64
	draws uint64
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.seed = seed
	s.draws = 0
	s.src.Seed(seed)
}

// newCounting builds a counting source over the stdlib generator.
func newCounting(seed int64) *countingSource {
	// rand.NewSource's concrete type implements Source64 (one state step
	// per value); the assertion is checked by TestStateRestore.
	return &countingSource{src: rand.NewSource(seed).(rand.Source64), seed: seed}
}

// New returns a Rand seeded with the given seed. Equal seeds yield equal
// streams across runs and platforms.
func New(seed int64) *Rand {
	cnt := newCounting(seed)
	return &Rand{src: rand.New(cnt), cnt: cnt}
}

// State reports the stream position as (seed, draws): the seed the stream
// was created with and the number of values drawn so far. The pair is a
// complete checkpoint — NewFromState(seed, draws) continues the stream
// exactly where r left off.
func (r *Rand) State() (seed int64, draws uint64) {
	return r.cnt.seed, r.cnt.draws
}

// Restore rewinds r to the stream position (seed, draws), discarding its
// current state. Cost is O(draws), which is fine for the checkpoint sizes
// the solvers produce (one draw per mutation or swap decision).
func (r *Rand) Restore(seed int64, draws uint64) {
	cnt := newCounting(seed)
	src := rand.New(cnt)
	for i := uint64(0); i < draws; i++ {
		src.Uint64()
	}
	r.src, r.cnt = src, cnt
}

// NewFromState returns a Rand positioned at (seed, draws), as reported by
// State. NewFromState(s, 0) is equivalent to New(s).
func NewFromState(seed int64, draws uint64) *Rand {
	r := New(seed)
	if draws > 0 {
		r.Restore(seed, draws)
	}
	return r
}

// Int63 returns a non-negative pseudo-random 63-bit integer.
func (r *Rand) Int63() int64 { return r.src.Int63() }

// Intn returns a uniform integer in [0, n). It panics if n <= 0, matching
// math/rand semantics.
func (r *Rand) Intn(n int) int { return r.src.Intn(n) }

// Float64 returns a uniform float64 in [0, 1).
func (r *Rand) Float64() float64 { return r.src.Float64() }

// NormFloat64 returns a standard-normal variate.
func (r *Rand) NormFloat64() float64 { return r.src.NormFloat64() }

// Perm returns a uniform random permutation of [0, n).
func (r *Rand) Perm(n int) []int { return r.src.Perm(n) }

// Shuffle pseudo-randomizes the order of n elements using swap.
func (r *Rand) Shuffle(n int, swap func(i, j int)) { r.src.Shuffle(n, swap) }

// Bernoulli returns true with probability p. Values of p outside [0, 1] are
// clamped.
func (r *Rand) Bernoulli(p float64) bool {
	if p <= 0 {
		return false
	}
	if p >= 1 {
		return true
	}
	return r.src.Float64() < p
}

// Binomial samples the number of successes among n independent trials with
// success probability p. For small n·p it uses the exact inversion method on
// the Poisson-binomial recurrence; for large n it falls back to a normal
// approximation with continuity correction, which is more than accurate
// enough for mutation-count sampling.
func (r *Rand) Binomial(n int, p float64) int {
	if n <= 0 || p <= 0 {
		return 0
	}
	if p >= 1 {
		return n
	}
	mean := float64(n) * p
	if mean <= 30 {
		return r.binomialInversion(n, p)
	}
	sd := math.Sqrt(mean * (1 - p))
	for {
		v := math.Round(r.src.NormFloat64()*sd + mean)
		if v >= 0 && v <= float64(n) {
			return int(v)
		}
	}
}

// binomialInversion samples Binomial(n, p) by inverting the CDF, walking the
// probability mass from k=0 upward. O(n·p) expected time.
func (r *Rand) binomialInversion(n int, p float64) int {
	q := 1 - p
	// P(X = 0) = q^n, computed in log space to avoid underflow for large n.
	logq := math.Log(q)
	pk := math.Exp(float64(n) * logq)
	u := r.src.Float64()
	cum := pk
	k := 0
	for u > cum && k < n {
		// P(X=k+1) = P(X=k) * (n-k)/(k+1) * p/q
		pk *= float64(n-k) / float64(k+1) * p / q
		cum += pk
		k++
	}
	return k
}

// SampleDistinct returns count distinct uniform integers from [0, n). It
// panics if count > n or count < 0. The result is in random order.
//
// For count much smaller than n it uses rejection with a set; otherwise it
// takes a prefix of a permutation (Floyd's algorithm is avoided for clarity;
// both are O(count) expected).
func (r *Rand) SampleDistinct(n, count int) []int {
	if count < 0 || count > n {
		panic("xrand: SampleDistinct count out of range")
	}
	if count == 0 {
		return nil
	}
	if count*3 >= n {
		perm := r.src.Perm(n)
		return perm[:count]
	}
	seen := make(map[int]struct{}, count)
	out := make([]int, 0, count)
	for len(out) < count {
		v := r.src.Intn(n)
		if _, dup := seen[v]; dup {
			continue
		}
		seen[v] = struct{}{}
		out = append(out, v)
	}
	return out
}
