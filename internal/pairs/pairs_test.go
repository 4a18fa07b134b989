package pairs

import (
	"errors"
	"math"
	"reflect"
	"testing"

	"msc/internal/graph"
	"msc/internal/shortestpath"
	"msc/internal/xrand"
)

func TestNewCanonical(t *testing.T) {
	p := New(5, 2)
	if p.U != 2 || p.W != 5 {
		t.Fatalf("New(5,2) = %v", p)
	}
	if p.String() != "{2, 5}" {
		t.Fatalf("String = %q", p.String())
	}
}

func TestNewSetValidation(t *testing.T) {
	cases := []struct {
		ps   []Pair
		want error
	}{
		{nil, ErrEmpty},
		{[]Pair{{U: 1, W: 1}}, ErrSelfPair},
		{[]Pair{{U: 0, W: 9}}, ErrNodeRange},
		{[]Pair{{U: 0, W: 1}, {U: 1, W: 0}}, ErrDupPair},
	}
	for i, tc := range cases {
		if _, err := NewSet(5, tc.ps); !errors.Is(err, tc.want) {
			t.Errorf("case %d: err = %v, want %v", i, err, tc.want)
		}
	}
}

func TestWeightsHalveMultiplicity(t *testing.T) {
	// S = {{0,1},{0,2}}: node 0 appears twice, 1 and 2 once, 3 never.
	// Nodes lists each involved node once, in ascending order.
	s := MustNewSet(4, []Pair{{U: 0, W: 1}, {U: 2, W: 0}})
	nodes := s.Nodes()
	if len(nodes) != 3 || nodes[0] != 0 || nodes[1] != 1 || nodes[2] != 2 {
		t.Fatalf("Nodes = %v, want [0 1 2]", nodes)
	}
}

func TestCommonNode(t *testing.T) {
	s := MustNewSet(5, []Pair{{U: 2, W: 0}, {U: 2, W: 4}, {U: 1, W: 2}})
	u, ok := s.CommonNode()
	if !ok || u != 2 {
		t.Fatalf("CommonNode = %v, %v", u, ok)
	}
	s2 := MustNewSet(5, []Pair{{U: 0, W: 1}, {U: 2, W: 3}})
	if _, ok := s2.CommonNode(); ok {
		t.Fatal("false common node")
	}
	// Single pair: either endpoint is common; must return one of them.
	s3 := MustNewSet(5, []Pair{{U: 3, W: 4}})
	u3, ok3 := s3.CommonNode()
	if !ok3 || (u3 != 3 && u3 != 4) {
		t.Fatalf("single pair common = %v, %v", u3, ok3)
	}
}

func lineTable(t *testing.T, n int) *shortestpath.Table {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return shortestpath.NewTable(g, 0)
}

func TestSampleViolating(t *testing.T) {
	table := lineTable(t, 10) // distances = hop counts
	rng := xrand.New(1)
	// d_t = 2.5: violating pairs are those ≥ 3 hops apart.
	s, err := SampleViolating(table, 2.5, 5, rng)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 5 {
		t.Fatalf("sampled %d pairs", s.Len())
	}
	for _, p := range s.Pairs() {
		if table.Dist(p.U, p.W) <= 2.5 {
			t.Fatalf("pair %v does not violate", p)
		}
	}
}

func TestSampleViolatingInsufficient(t *testing.T) {
	table := lineTable(t, 3)
	if _, err := SampleViolating(table, 100, 1, xrand.New(1)); err == nil {
		t.Fatal("expected error: no pair violates a huge threshold")
	}
}

func TestSampleViolatingRandom(t *testing.T) {
	table := lineTable(t, 12)
	rng := xrand.New(3)
	s, err := SampleViolatingRandom(table, 2.5, 6, rng, 0)
	if err != nil {
		t.Fatal(err)
	}
	if s.Len() != 6 {
		t.Fatalf("sampled %d pairs, want 6", s.Len())
	}
	for _, p := range s.Pairs() {
		if table.Dist(p.U, p.W) <= 2.5 {
			t.Fatalf("pair %v does not violate", p)
		}
	}
	// Deterministic: equal seeds reproduce the sample exactly.
	again, err := SampleViolatingRandom(table, 2.5, 6, xrand.New(3), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(s.Pairs(), again.Pairs()) {
		t.Fatalf("same seed sampled %v then %v", s.Pairs(), again.Pairs())
	}
}

func TestSampleViolatingRandomExhaustsAttempts(t *testing.T) {
	table := lineTable(t, 6)
	// No pair violates a huge threshold: the sampler must give up at
	// maxAttempts instead of spinning forever.
	if _, err := SampleViolatingRandom(table, 100, 2, xrand.New(1), 50); err == nil {
		t.Fatal("expected error: no pair violates a huge threshold")
	}
	if _, err := SampleViolatingRandom(table, 2.5, 0, xrand.New(1), 0); err == nil {
		t.Fatal("expected error: non-positive sample size")
	}
}

func TestSampleViolatingWithCommonNode(t *testing.T) {
	table := lineTable(t, 12)
	rng := xrand.New(2)
	s, err := SampleViolatingWithCommonNode(table, 2.5, 4, 0, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Pairs() {
		if p.U != 0 && p.W != 0 {
			t.Fatalf("pair %v misses common node", p)
		}
		if table.Dist(p.U, p.W) <= 2.5 {
			t.Fatalf("pair %v does not violate", p)
		}
	}
	u, ok := s.CommonNode()
	if !ok || u != 0 {
		t.Fatalf("common node = %v, %v", u, ok)
	}
}

func TestSampleViolatingWithCommonNodeInsufficient(t *testing.T) {
	table := lineTable(t, 4)
	if _, err := SampleViolatingWithCommonNode(table, 2.5, 3, 0, xrand.New(1)); err == nil {
		t.Fatal("expected error")
	}
}

func TestSampleViolatingDisconnected(t *testing.T) {
	// Disconnected graph: Inf distances violate any threshold.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	table := shortestpath.NewTable(g, 0)
	s, err := SampleViolating(table, 10, 3, xrand.New(3))
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range s.Pairs() {
		if !math.IsInf(table.Dist(p.U, p.W), 1) {
			t.Fatalf("pair %v should be disconnected", p)
		}
	}
}

func TestAtAndLen(t *testing.T) {
	s := MustNewSet(4, []Pair{{U: 3, W: 1}, {U: 0, W: 2}})
	if s.Len() != 2 || s.N() != 4 {
		t.Fatal("Len/N wrong")
	}
	if p := s.At(0); p.U != 1 || p.W != 3 {
		t.Fatalf("At(0) = %v (should be canonical)", p)
	}
}
