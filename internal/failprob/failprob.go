// Package failprob implements the failure-probability ↔ length algebra from
// §III-C of the paper.
//
// A path Λ = v1..vq fails unless every link succeeds, so its failure
// probability is p(Λ) = 1 − Π (1 − p_i). Defining the length of an edge as
// l = −ln(1 − p) turns the product into a sum: p(Λ) = 1 − e^(−len(Λ)), and
// "find the most reliable path" becomes "find the shortest path". A failure
// threshold p_t likewise becomes the distance threshold d_t = −ln(1 − p_t).
package failprob

import (
	"fmt"
	"math"
)

// LengthFromProb converts a link failure probability p ∈ [0, 1) to the edge
// length −ln(1−p). LengthFromProb(0) == 0 (a perfectly reliable shortcut
// edge has length zero, §III-C). It panics outside [0, 1): p == 1 would be a
// permanently dead link, which should simply be omitted from the graph.
func LengthFromProb(p float64) float64 {
	if p < 0 || p >= 1 || math.IsNaN(p) {
		panic(fmt.Sprintf("failprob: probability %v outside [0, 1)", p))
	}
	// math.Log1p(-p) = ln(1-p) computed accurately for small p.
	return -math.Log1p(-p)
}

// ProbFromLength converts a path length back to its failure probability
// 1 − e^(−l). Infinite length (unreachable) maps to probability 1.
func ProbFromLength(l float64) float64 {
	if l < 0 || math.IsNaN(l) {
		panic(fmt.Sprintf("failprob: negative length %v", l))
	}
	if math.IsInf(l, +1) {
		return 1
	}
	// -Expm1(-l) = 1 - e^{-l} computed accurately for small l.
	return -math.Expm1(-l)
}

// Threshold bundles the two equivalent forms of the connectivity
// requirement: a pair is "maintained" iff its best path has failure
// probability ≤ P, i.e. distance ≤ D = −ln(1−P).
type Threshold struct {
	P float64 // failure-probability threshold p_t
	D float64 // distance threshold d_t = −ln(1−p_t)
}

// NewThreshold builds a Threshold from a failure-probability bound
// p ∈ [0, 1).
func NewThreshold(p float64) Threshold {
	return Threshold{P: p, D: LengthFromProb(p)}
}

// String renders the threshold in both forms.
func (t Threshold) String() string {
	return fmt.Sprintf("p_t=%.4g (d_t=%.4g)", t.P, t.D)
}
