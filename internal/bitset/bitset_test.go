package bitset

import (
	"sort"
	"testing"
	"testing/quick"
)

func TestBasicOps(t *testing.T) {
	s := New(130) // spans three words
	if s.Len() != 130 || s.Count() != 0 {
		t.Fatalf("new set: len=%d count=%d", s.Len(), s.Count())
	}
	for _, i := range []int{0, 1, 63, 64, 65, 127, 128, 129} {
		s.Add(i)
		if !s.Contains(i) {
			t.Fatalf("Contains(%d) false after Add", i)
		}
	}
	if s.Count() != 8 {
		t.Fatalf("count = %d, want 8", s.Count())
	}
}

func TestAddDuplicateIdempotent(t *testing.T) {
	s := New(10)
	s.Add(3)
	s.Add(3)
	if s.Count() != 1 {
		t.Fatalf("count = %d, want 1", s.Count())
	}
}

func TestOutOfRangePanics(t *testing.T) {
	s := New(5)
	for _, fn := range []func(){
		func() { s.Add(5) },
		func() { s.Add(-1) },
		func() { s.Contains(5) },
		func() { s.Contains(-1) },
	} {
		assertPanics(t, fn)
	}
}

func assertPanics(t *testing.T, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	fn()
}

func TestSetAlgebra(t *testing.T) {
	a := FromIndices(100, []int{1, 5, 70, 99})
	bs := FromIndices(100, []int{5, 6, 70})
	if got := a.AndNotCount(bs); got != 1 { // bs \ a = {6}
		t.Fatalf("AndNotCount = %d, want 1", got)
	}
	if got := bs.AndNotCount(a); got != 2 { // a \ bs = {1, 99}
		t.Fatalf("AndNotCount = %d, want 2", got)
	}
	if got := a.String(); got != "{1, 5, 70, 99}" {
		t.Fatalf("FromIndices = %s", got)
	}
}

func TestCloneIndependence(t *testing.T) {
	a := FromIndices(10, []int{2, 4})
	b := a.Clone()
	b.Add(7)
	if a.Contains(7) {
		t.Fatal("clone mutated original")
	}
	if got := a.String(); got != "{2, 4}" {
		t.Fatalf("original changed to %s", got)
	}
}

func TestString(t *testing.T) {
	s := FromIndices(20, []int{1, 5, 19})
	if got := s.String(); got != "{1, 5, 19}" {
		t.Fatalf("String = %q", got)
	}
	if got := New(3).String(); got != "{}" {
		t.Fatalf("empty String = %q", got)
	}
}

func TestMismatchedUniversePanics(t *testing.T) {
	a, b := New(10), New(11)
	assertPanics(t, func() { a.AndNotCount(b) })
}

// Property: for random index sets, Count and AndNotCount agree with a
// map-based reference implementation.
func TestQuickAgainstMapReference(t *testing.T) {
	f := func(xs, ys []uint16) bool {
		const n = 1 << 16
		a, b := New(n), New(n)
		ma, mb := map[int]bool{}, map[int]bool{}
		for _, x := range xs {
			a.Add(int(x))
			ma[int(x)] = true
		}
		for _, y := range ys {
			b.Add(int(y))
			mb[int(y)] = true
		}
		if a.Count() != len(ma) {
			return false
		}
		onlyB := 0
		for k := range mb {
			if !ma[k] {
				onlyB++
			}
		}
		return a.AndNotCount(b) == onlyB
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: ForEach visits exactly the added elements, in ascending order.
func TestQuickForEachMatchesIndices(t *testing.T) {
	f := func(xs []uint8) bool {
		s := New(256)
		var want []int
		for _, x := range xs {
			if !s.Contains(int(x)) {
				want = append(want, int(x))
			}
			s.Add(int(x))
		}
		sort.Ints(want)
		var visited []int
		s.ForEach(func(i int) { visited = append(visited, i) })
		return equalInts(visited, want)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
