// Package bitset implements a compact dynamic bit set.
//
// The coverage-based objective functions in the MSC solver (the lower bound
// μ and the upper bound ν from §V-B of the paper) repeatedly union
// per-shortcut "satisfied pair" sets and count their cardinality. A word-
// packed bit set makes those unions O(m/64) instead of O(m).
package bitset

import (
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-capacity bit set over the universe [0, Len()). The zero
// value is an empty set of capacity 0; use New for a sized set.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set over the universe [0, n).
func New(n int) *Set {
	if n < 0 {
		panic("bitset: negative size")
	}
	return &Set{words: make([]uint64, (n+wordBits-1)/wordBits), n: n}
}

// FromIndices returns a set over [0, n) with exactly the given bits set.
// Indices out of range cause a panic.
func FromIndices(n int, indices []int) *Set {
	s := New(n)
	for _, i := range indices {
		s.Add(i)
	}
	return s
}

// Len returns the size of the universe.
func (s *Set) Len() int { return s.n }

// Add sets bit i. It panics if i is out of range.
func (s *Set) Add(i int) {
	s.check(i)
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Contains reports whether bit i is set. It panics if i is out of range.
func (s *Set) Contains(i int) bool {
	s.check(i)
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

func (s *Set) check(i int) {
	if i < 0 || i >= s.n {
		panic("bitset: index out of range")
	}
}

// Count returns the number of set bits.
func (s *Set) Count() int {
	total := 0
	for _, w := range s.words {
		total += bits.OnesCount64(w)
	}
	return total
}

// Clone returns an independent copy of s.
func (s *Set) Clone() *Set {
	words := make([]uint64, len(s.words))
	copy(words, s.words)
	return &Set{words: words, n: s.n}
}

// AndNotCount returns |other \ s|: the number of bits set in other but not
// in s. This is the marginal gain used by the greedy coverage solvers.
func (s *Set) AndNotCount(other *Set) int {
	s.checkCompat(other)
	total := 0
	for i, w := range other.words {
		total += bits.OnesCount64(w &^ s.words[i])
	}
	return total
}

// ForEach calls fn for every set bit in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// String renders the set as "{1, 5, 9}" for debugging.
func (s *Set) String() string {
	var sb strings.Builder
	sb.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			sb.WriteString(", ")
		}
		first = false
		writeInt(&sb, i)
	})
	sb.WriteByte('}')
	return sb.String()
}

func (s *Set) checkCompat(other *Set) {
	if s.n != other.n {
		panic("bitset: mismatched universe sizes")
	}
}

func writeInt(sb *strings.Builder, v int) {
	if v == 0 {
		sb.WriteByte('0')
		return
	}
	var buf [20]byte
	i := len(buf)
	for v > 0 {
		i--
		buf[i] = byte('0' + v%10)
		v /= 10
	}
	sb.Write(buf[i:])
}
