package bitset

import (
	"fmt"
	"math/bits"
)

// Block is W parallel fixed-size bitsets ("lanes") over the same element
// range [0, Len()), stored transposed: the W words covering elements
// [64·wi, 64·wi+64) — one word per lane — are contiguous at
// Words()[wi·W : wi·W+W]. This column-major layout is what the batched
// radio engine wants: while resolving one listener's adjacency row word it
// can AND that single word against all W trials' broadcast words with unit
// stride, so the row traversal is paid once per round instead of once per
// trial.
//
// Lane l of a Block behaves exactly like an independent Set of the same
// length; the batch APIs mirror the Set APIs lane-wise. Like Set, a Block
// is fixed-size and not safe for concurrent mutation.
type Block struct {
	words []uint64 // words[wi*w + lane]
	n     int      // elements per lane
	w     int      // lane count
}

// NewBlock returns a Block of w empty lanes, each with capacity for n
// elements. It panics if w < 1.
func NewBlock(n, w int) *Block {
	if w < 1 {
		panic(fmt.Sprintf("bitset: NewBlock width %d, need >= 1", w))
	}
	if n < 0 {
		n = 0
	}
	return &Block{
		words: make([]uint64, ((n+wordBits-1)/wordBits)*w),
		n:     n,
		w:     w,
	}
}

// Len returns the capacity of each lane (the number of addressable bits).
func (b *Block) Len() int { return b.n }

// Width returns the number of lanes.
func (b *Block) Width() int { return b.w }

// Stride returns the number of word-columns, i.e. the per-lane word count
// (n+63)/64. Word wi of lane l lives at Words()[wi*Width()+l].
func (b *Block) Stride() int { return len(b.words) / b.w }

// Set marks element i present in lane l.
func (b *Block) Set(l, i int) {
	b.words[(i/wordBits)*b.w+l] |= 1 << (uint(i) % wordBits)
}

// Clear marks element i absent in lane l.
func (b *Block) Clear(l, i int) {
	b.words[(i/wordBits)*b.w+l] &^= 1 << (uint(i) % wordBits)
}

// Test reports whether element i is present in lane l.
func (b *Block) Test(l, i int) bool {
	return b.words[(i/wordBits)*b.w+l]&(1<<(uint(i)%wordBits)) != 0
}

// OrLaneWord adds the elements of m to word wi of lane l — the lane-wise
// Set.OrWord; m must have no bits at positions >= Len().
func (b *Block) OrLaneWord(l, wi int, m uint64) { b.words[wi*b.w+l] |= m }

// LaneCount returns the number of present elements in lane l.
func (b *Block) LaneCount(l int) int {
	c := 0
	for wi := l; wi < len(b.words); wi += b.w {
		c += bits.OnesCount64(b.words[wi])
	}
	return c
}

// LaneEmpty reports whether lane l has no present elements.
func (b *Block) LaneEmpty(l int) bool {
	for wi := l; wi < len(b.words); wi += b.w {
		if b.words[wi] != 0 {
			return false
		}
	}
	return true
}

// Reset clears every lane.
func (b *Block) Reset() {
	for i := range b.words {
		b.words[i] = 0
	}
}

// ResetLane clears all elements of lane l.
func (b *Block) ResetLane(l int) {
	for wi := l; wi < len(b.words); wi += b.w {
		b.words[wi] = 0
	}
}

// ResetLaneWindow clears lane l's words in the word-index window [lo, hi),
// clamped to the lane's word count — the lane-wise ResetWindow, for
// clearing a mostly-empty lane in O(nonzero words).
func (b *Block) ResetLaneWindow(l, lo, hi int) {
	if lo < 0 {
		lo = 0
	}
	if s := b.Stride(); hi > s {
		hi = s
	}
	for wi := lo; wi < hi; wi++ {
		b.words[wi*b.w+l] = 0
	}
}

// LaneNonzeroRange returns the half-open word-index window [lo, hi)
// covering every nonzero word of lane l, exactly like Set.NonzeroRange on
// the lane viewed as a Set. An empty lane yields (0, 0).
func (b *Block) LaneNonzeroRange(l int) (lo, hi int) {
	stride := b.Stride()
	for wi := 0; wi < stride; wi++ {
		if b.words[wi*b.w+l] != 0 {
			lo = wi
			for hi = stride; b.words[(hi-1)*b.w+l] == 0; hi-- {
			}
			return lo, hi
		}
	}
	return 0, 0
}

// LaneForEach calls fn for every present element of lane l in ascending
// order.
func (b *Block) LaneForEach(l int, fn func(i int)) {
	for wi := 0; wi < b.Stride(); wi++ {
		for w := b.words[wi*b.w+l]; w != 0; w &= w - 1 {
			fn(wi*wordBits + bits.TrailingZeros64(w))
		}
	}
}

// LaneCopyFrom overwrites lane l with the contents of s. s must have the
// same length as the block's lanes.
func (b *Block) LaneCopyFrom(l int, s *Set) {
	if s.n != b.n {
		panic(fmt.Sprintf("bitset: lane copy of mismatched lengths %d and %d", b.n, s.n))
	}
	for wi, w := range s.words {
		b.words[wi*b.w+l] = w
	}
}

// LaneToSet copies lane l into dst, which must have the block's lane
// length. It is the inverse of LaneCopyFrom, for tests and adapters.
func (b *Block) LaneToSet(l int, dst *Set) {
	if dst.n != b.n {
		panic(fmt.Sprintf("bitset: lane copy of mismatched lengths %d and %d", b.n, dst.n))
	}
	for wi := range dst.words {
		dst.words[wi] = b.words[wi*b.w+l]
	}
}

// Words exposes the backing transposed word storage: word wi of lane l is
// at index wi*Width()+l, and bits at positions >= Len() in a lane's last
// word are always zero. The slice aliases internal storage; consumers that
// share the block must treat it as read-only. It exists so the batched
// radio engine can resolve all lanes against one adjacency word without a
// method call per lane.
func (b *Block) Words() []uint64 { return b.words }
