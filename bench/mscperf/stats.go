package main

import (
	"math"
	"sort"
)

// summary is a sample's median with its Tukey hinges and size. The
// timing fields of results.json and every -compare verdict read it.
type summary struct {
	Median float64 `json:"median"`
	Q1     float64 `json:"q1"`
	Q3     float64 `json:"q3"`
	N      int     `json:"n"`
}

// summarize returns the summary of a non-empty sample.
func summarize(xs []float64) summary {
	s := sorted(xs)
	q1, q3 := hinges(s)
	return summary{Median: median(s), Q1: q1, Q3: q3, N: len(s)}
}

func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median of an already sorted, non-empty sample.
func median(s []float64) float64 {
	mid := len(s) / 2
	if len(s)%2 == 1 {
		return s[mid]
	}
	return (s[mid-1] + s[mid]) / 2
}

// hinges returns Tukey's lower and upper hinges of a sorted, non-empty
// sample: the medians of its lower and upper halves, both halves holding
// the middle element when the length is odd. Same definition as the sweep
// aggregator's BENCH files.
func hinges(s []float64) (q1, q3 float64) {
	n := len(s)
	if n < 2 {
		return s[0], s[0]
	}
	half := n / 2
	lower, upper := s[:half], s[n-half:]
	if n%2 == 1 {
		lower, upper = s[:half+1], s[half:]
	}
	return median(lower), median(upper)
}

// tailPercentiles are the percentiles a timing may report beyond its
// median, highest last.
var tailPercentiles = []float64{90, 99, 99.9}

// highestTail returns the highest of tailPercentiles that leaves at least
// ten samples beyond it in a sample of n, or 0 when none does: a
// percentile with fewer samples past it is a guess about the tail.
func highestTail(n int) float64 {
	best := 0.0
	for _, p := range tailPercentiles {
		if float64(n)*(1-p/100) >= 10-1e-9 {
			best = p
		}
	}
	return best
}

// percentile returns the nearest-rank p-th percentile (0 < p <= 100) of
// a sorted, non-empty sample.
func percentile(s []float64, p float64) float64 {
	rank := int(math.Ceil(p / 100 * float64(len(s))))
	if rank < 1 {
		rank = 1
	}
	return s[rank-1]
}
