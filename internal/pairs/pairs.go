// Package pairs models the set S of important social pairs (paper §III-B)
// and its derived quantities: per-node endpoint weights for the upper-bound
// function ν (§V-B2), common-node detection for the MSC-CN special case
// (§IV), and the threshold-violating pair sampler used by the evaluation
// (§VII-A3).
package pairs

import (
	"errors"
	"fmt"
	"slices"

	"msc/internal/graph"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

// Pair is an unordered important social pair {U, W}. Canonical form has
// U < W.
type Pair struct {
	U, W graph.NodeID
}

// New returns the canonical form of the pair {u, w}.
func New(u, w graph.NodeID) Pair {
	if u > w {
		u, w = w, u
	}
	return Pair{U: u, W: w}
}

// String renders the pair as "{u, w}".
func (p Pair) String() string { return fmt.Sprintf("{%d, %d}", p.U, p.W) }

// Errors returned by NewSet.
var (
	ErrSelfPair  = errors.New("pairs: pair with identical endpoints")
	ErrDupPair   = errors.New("pairs: duplicate pair")
	ErrNodeRange = errors.New("pairs: node id out of range")
	ErrEmpty     = errors.New("pairs: empty pair set")
)

// Set is an immutable set of important social pairs over nodes [0, n).
type Set struct {
	n     int
	pairs []Pair
}

// NewSet validates and builds a pair set for a graph with n nodes. Pairs
// are canonicalized; duplicates and self-pairs are rejected.
func NewSet(n int, ps []Pair) (*Set, error) {
	if len(ps) == 0 {
		return nil, ErrEmpty
	}
	seen := make(map[Pair]struct{}, len(ps))
	canon := make([]Pair, 0, len(ps))
	for _, p := range ps {
		c := New(p.U, p.W)
		switch {
		case c.U == c.W:
			return nil, fmt.Errorf("%w: %v", ErrSelfPair, p)
		case c.U < 0 || int(c.W) >= n:
			return nil, fmt.Errorf("%w: %v with n=%d", ErrNodeRange, p, n)
		}
		if _, dup := seen[c]; dup {
			return nil, fmt.Errorf("%w: %v", ErrDupPair, c)
		}
		seen[c] = struct{}{}
		canon = append(canon, c)
	}
	return &Set{n: n, pairs: canon}, nil
}

// MustNewSet is NewSet but panics on error; for tests and examples.
func MustNewSet(n int, ps []Pair) *Set {
	s, err := NewSet(n, ps)
	if err != nil {
		panic(err)
	}
	return s
}

// Len returns the number of pairs m.
func (s *Set) Len() int { return len(s.pairs) }

// N returns the node universe size.
func (s *Set) N() int { return s.n }

// Pairs returns the canonical pairs. Callers must not modify the slice.
func (s *Set) Pairs() []Pair { return s.pairs }

// At returns the i-th pair.
func (s *Set) At(i int) Pair { return s.pairs[i] }

// Nodes returns the distinct nodes that appear in at least one pair.
func (s *Set) Nodes() []graph.NodeID {
	out := make([]graph.NodeID, 0, 2*len(s.pairs))
	for _, p := range s.pairs {
		out = append(out, p.U, p.W)
	}
	slices.Sort(out)
	return slices.Compact(out)
}

// CommonNode returns a node shared by every pair, if one exists. When it
// does, the instance is an MSC-CN instance (§IV) and the specialized
// max-coverage greedy applies.
func (s *Set) CommonNode() (graph.NodeID, bool) {
	first := s.pairs[0]
	for _, cand := range []graph.NodeID{first.U, first.W} {
		shared := true
		for _, p := range s.pairs[1:] {
			if p.U != cand && p.W != cand {
				shared = false
				break
			}
		}
		if shared {
			return cand, true
		}
	}
	return -1, false
}

// SampleViolating randomly selects m distinct pairs whose current
// shortest-path distance exceeds dt (i.e. pairs whose connection is NOT
// maintained by the raw network), matching the evaluation setup of
// §VII-A3. It returns an error if m < 1 or fewer than m such pairs exist.
func SampleViolating(t shortestpath.DistanceSource, dt float64, m int, rng *xrand.Rand) (*Set, error) {
	if m <= 0 {
		return nil, fmt.Errorf("pairs: need a positive sample size, got %d", m)
	}
	n := t.N()
	var candidates []Pair
	for u := 0; u < n; u++ {
		row := t.Row(graph.NodeID(u))
		for w := u + 1; w < n; w++ {
			if row[w] > dt {
				candidates = append(candidates, Pair{U: graph.NodeID(u), W: graph.NodeID(w)})
			}
		}
	}
	if len(candidates) < m {
		return nil, fmt.Errorf("pairs: only %d pairs violate d_t=%.4g, need %d", len(candidates), dt, m)
	}
	idx := rng.SampleDistinct(len(candidates), m)
	chosen := make([]Pair, m)
	for i, j := range idx {
		chosen[i] = candidates[j]
	}
	return NewSet(n, chosen)
}

// SampleViolatingRandom selects m distinct pairs violating dt by
// rejection sampling point queries instead of enumerating all ~n²/2
// candidates the way SampleViolating does: it draws uniform random pairs
// and keeps those with Dist(u, w) > dt. Rejection sampling is uniform
// over the accept set, so the distribution matches SampleViolating; only
// the draw sequence differs. This is the scale path (10⁴–10⁶ nodes),
// where it composes with BoundedTable: distances beyond the reach read
// +Inf > dt, so one sparse row lookup answers each trial. It fails after
// maxAttempts draws (0 means 1000·m) that fail to produce enough
// distinct violating pairs — the regime where violating pairs are rare
// and the exhaustive scan is the right tool.
func SampleViolatingRandom(t shortestpath.DistanceSource, dt float64, m int, rng *xrand.Rand, maxAttempts int) (*Set, error) {
	n := t.N()
	if m <= 0 {
		return nil, fmt.Errorf("pairs: need a positive sample size, got %d", m)
	}
	if maxAttempts <= 0 {
		maxAttempts = 1000 * m
	}
	seen := make(map[Pair]struct{}, m)
	chosen := make([]Pair, 0, m)
	for tries := 0; len(chosen) < m; tries++ {
		if tries >= maxAttempts {
			return nil, fmt.Errorf("pairs: found %d pairs violating d_t=%.4g in %d random draws, need %d", len(chosen), dt, maxAttempts, m)
		}
		p := New(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)))
		if p.U == p.W {
			continue
		}
		if _, dup := seen[p]; dup {
			continue
		}
		if t.Dist(p.U, p.W) > dt {
			seen[p] = struct{}{}
			chosen = append(chosen, p)
		}
	}
	return NewSet(n, chosen)
}

// SampleViolatingWithCommonNode selects m pairs that all contain the given
// common node u and currently violate dt; for constructing MSC-CN
// instances. It returns an error if fewer than m such pairs exist.
func SampleViolatingWithCommonNode(t shortestpath.DistanceSource, dt float64, m int, u graph.NodeID, rng *xrand.Rand) (*Set, error) {
	n := t.N()
	row := t.Row(u)
	var candidates []Pair
	for w := 0; w < n; w++ {
		if graph.NodeID(w) != u && row[w] > dt {
			candidates = append(candidates, New(u, graph.NodeID(w)))
		}
	}
	if len(candidates) < m {
		return nil, fmt.Errorf("pairs: only %d common-node pairs violate d_t=%.4g, need %d", len(candidates), dt, m)
	}
	idx := rng.SampleDistinct(len(candidates), m)
	chosen := make([]Pair, m)
	for i, j := range idx {
		chosen[i] = candidates[j]
	}
	return NewSet(n, chosen)
}
