// Package bitset provides a dense, fixed-capacity bitset used by the radio
// simulator to track informed nodes, per-round broadcasters and reception
// reports. It is deliberately minimal: no dynamic growth, no concurrency —
// the simulator is single-threaded per trial.
package bitset

import (
	"fmt"
	"math/bits"
	"strings"
)

const wordBits = 64

// Set is a fixed-size set of integers in [0, Len()).
// The zero value is an empty set of length zero; use New for a usable set.
type Set struct {
	words []uint64
	n     int
}

// New returns an empty set with capacity for n elements.
func New(n int) *Set {
	if n < 0 {
		n = 0
	}
	return &Set{
		words: make([]uint64, (n+wordBits-1)/wordBits),
		n:     n,
	}
}

// Len returns the capacity of the set (the number of addressable bits).
func (s *Set) Len() int { return s.n }

// Set marks element i as present.
func (s *Set) Set(i int) {
	s.words[i/wordBits] |= 1 << (uint(i) % wordBits)
}

// Clear marks element i as absent.
func (s *Set) Clear(i int) {
	s.words[i/wordBits] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether element i is present.
func (s *Set) Test(i int) bool {
	return s.words[i/wordBits]&(1<<(uint(i)%wordBits)) != 0
}

// Count returns the number of present elements.
func (s *Set) Count() int {
	c := 0
	for _, w := range s.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Full reports whether every element in [0, Len()) is present.
func (s *Set) Full() bool {
	return s.Count() == s.n
}

// Empty reports whether no element is present.
func (s *Set) Empty() bool {
	for _, w := range s.words {
		if w != 0 {
			return false
		}
	}
	return true
}

// Reset clears all elements.
func (s *Set) Reset() {
	for i := range s.words {
		s.words[i] = 0
	}
}

// ResetWindow clears every word in the word-index window [lo, hi),
// clamped to the set's word count. Paired with NonzeroRange it clears a
// mostly-empty set in O(nonzero words) instead of O(Len()/64) — the
// per-round clear of a frontier scheduler.
func (s *Set) ResetWindow(lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.words) {
		hi = len(s.words)
	}
	for w := lo; w < hi; w++ {
		s.words[w] = 0
	}
}

// Fill sets all elements in [0, Len()).
func (s *Set) Fill() {
	for i := 0; i < s.n; i++ {
		s.Set(i)
	}
}

// Union adds every element of other to s. Both sets must have the same length.
func (s *Set) Union(other *Set) {
	if other.n != s.n {
		panic(fmt.Sprintf("bitset: union of mismatched lengths %d and %d", s.n, other.n))
	}
	for i, w := range other.words {
		s.words[i] |= w
	}
}

// CopyFrom makes s an exact copy of other. Both sets must have the same length.
func (s *Set) CopyFrom(other *Set) {
	if other.n != s.n {
		panic(fmt.Sprintf("bitset: copy of mismatched lengths %d and %d", s.n, other.n))
	}
	copy(s.words, other.words)
}

// Clone returns a new independent copy of s.
func (s *Set) Clone() *Set {
	c := New(s.n)
	copy(c.words, s.words)
	return c
}

// ForEach calls fn for every present element in ascending order.
func (s *Set) ForEach(fn func(i int)) {
	for wi, w := range s.words {
		for w != 0 {
			b := bits.TrailingZeros64(w)
			fn(wi*wordBits + b)
			w &= w - 1
		}
	}
}

// Words exposes the backing word slice: bit i of the set lives at bit
// i%64 of Words()[i/64]. It aliases internal storage and must be treated
// as read-only; it exists so word-parallel consumers (the dense radio
// engine) can AND rows against the set without copying. Bits at positions
// >= Len() in the last word are always zero.
func (s *Set) Words() []uint64 { return s.words }

// OrWord adds the elements of m to word wi: bit b of m is element
// wi*64+b. m must have no bits at positions >= Len() — the word-level
// counterpart of Set, for consumers that resolve 64 elements at a time.
func (s *Set) OrWord(wi int, m uint64) { s.words[wi] |= m }

// Window returns the 64 elements [start, start+64) as one word: bit b is
// element start+b, and positions outside [0, Len()) read as zero. start
// may be negative or past the end. It is the shifted view word-parallel
// neighbour counts are built from (the left neighbours of word wi's
// elements are Window(wi*64-1)).
func (s *Set) Window(start int) uint64 {
	if start <= -wordBits || start >= s.n {
		return 0
	}
	if start < 0 {
		return s.words[0] << uint(-start)
	}
	wi, off := start/wordBits, uint(start)%wordBits
	w := s.words[wi] >> off
	if off != 0 && wi+1 < len(s.words) {
		w |= s.words[wi+1] << (wordBits - off)
	}
	return w
}

// NonzeroRange returns the half-open word-index window [lo, hi) covering
// every nonzero word of the set: Words()[w] == 0 for all w outside it.
// An empty set yields (0, 0). Windowed consumers (the dense radio engine)
// use it to confine per-row intersection scans to the overlap of the
// broadcast set's window and an adjacency row's window.
func (s *Set) NonzeroRange() (lo, hi int) {
	for w := 0; w < len(s.words); w++ {
		if s.words[w] != 0 {
			lo = w
			for hi = len(s.words); s.words[hi-1] == 0; hi-- {
			}
			return lo, hi
		}
	}
	return 0, 0
}

// IntersectsWindow reports whether s and other share an element whose word
// index lies in [lo, hi). The window is clamped to the sets' word count, so
// a caller may pass a window computed on either set (or the full range).
// Both sets must have the same length.
func (s *Set) IntersectsWindow(other *Set, lo, hi int) bool {
	if other.n != s.n {
		panic(fmt.Sprintf("bitset: intersection of mismatched lengths %d and %d", s.n, other.n))
	}
	if lo < 0 {
		lo = 0
	}
	if hi > len(s.words) {
		hi = len(s.words)
	}
	for w := lo; w < hi; w++ {
		if s.words[w]&other.words[w] != 0 {
			return true
		}
	}
	return false
}

// FromBools overwrites s with the set {i : b[i]}, assembling whole words so
// the conversion writes memory once per 64 inputs. len(b) must equal Len().
// It is the bridge from bool-slice schedules to the set-native Step API.
func (s *Set) FromBools(b []bool) {
	if len(b) != s.n {
		panic(fmt.Sprintf("bitset: FromBools with %d bools, set length %d", len(b), s.n))
	}
	for wi := range s.words {
		var w uint64
		base := wi * wordBits
		limit := s.n - base
		if limit > wordBits {
			limit = wordBits
		}
		for bit := 0; bit < limit; bit++ {
			if b[base+bit] {
				w |= 1 << uint(bit)
			}
		}
		s.words[wi] = w
	}
}

// Next returns the smallest present element >= i, or -1 if none exists.
func (s *Set) Next(i int) int {
	if i < 0 {
		i = 0
	}
	if i >= s.n {
		return -1
	}
	wi := i / wordBits
	w := s.words[wi] >> (uint(i) % wordBits)
	if w != 0 {
		return i + bits.TrailingZeros64(w)
	}
	for wi++; wi < len(s.words); wi++ {
		if s.words[wi] != 0 {
			return wi*wordBits + bits.TrailingZeros64(s.words[wi])
		}
	}
	return -1
}

// Elements returns all present elements in ascending order.
func (s *Set) Elements() []int {
	out := make([]int, 0, s.Count())
	s.ForEach(func(i int) { out = append(out, i) })
	return out
}

// String renders the set as a compact element list, e.g. "{0 3 17}".
func (s *Set) String() string {
	var b strings.Builder
	b.WriteByte('{')
	first := true
	s.ForEach(func(i int) {
		if !first {
			b.WriteByte(' ')
		}
		first = false
		fmt.Fprintf(&b, "%d", i)
	})
	b.WriteByte('}')
	return b.String()
}
