package radio

import "math/bits"

// sparseScratch is the sparse engine's per-round listener bookkeeping,
// shared by the scalar engine and each lane of the batch engine: per-node
// transmitting-neighbour counts and a bitmap of the listeners touched this
// round, with a running word window [lo, hi) that bounds its nonzero
// words.
//
// Walking the bitmap's window word by word yields the touched listeners in
// ascending id order — the canonical receiver draw order shared with the
// dense and implicit engines — without sorting them. Every node whose
// count is nonzero has its bit set inside the window at all times, so a
// round abandoned mid-resolve (a deliver callback that panics) leaves
// nothing that reset cannot find.
type sparseScratch struct {
	cells  []sparseCell // per node
	marks  []uint64     // bit u set iff cells[u].count > 0
	lo, hi int          // marks words outside [lo, hi) are zero; empty when lo >= hi
}

// sparseCell is one node's listener state. Count and sender share a cell
// so the neighbour walk touches one cache line per edge, not two.
type sparseCell struct {
	count int32 // transmitting neighbours this round
	from  int32 // some transmitting neighbour (the unique one when count == 1)
}

func newSparseScratch(n int) sparseScratch {
	words := (n + 63) / 64
	return sparseScratch{
		cells: make([]sparseCell, n),
		marks: make([]uint64, words),
		lo:    words,
	}
}

// broadcast counts v's transmission at each of its neighbours, marking
// listeners on first touch and widening the window to cover them.
func (s *sparseScratch) broadcast(v int32, neighbors []int32) {
	lo, hi := s.lo, s.hi
	for _, u := range neighbors {
		c := &s.cells[u]
		if c.count == 0 {
			wi := int(u >> 6)
			s.marks[wi] |= 1 << (uint(u) & 63)
			lo = min(lo, wi)
			hi = max(hi, wi+1)
		}
		c.count++
		c.from = v
	}
	s.lo, s.hi = lo, hi
}

// take retires bitmap word wi: it zeroes the word's counts and bits and
// returns its touched listeners, minus the broadcasters in txWord (which
// do not listen), split into those with exactly one transmitting
// neighbour and those with several (collisions). The caller resolves the
// unique ones in ascending bit order, reading their sender from cells.
func (s *sparseScratch) take(wi int, txWord uint64) (unique, collided uint64) {
	w := s.marks[wi]
	for m := w; m != 0; m &= m - 1 {
		c := &s.cells[wi*64+bits.TrailingZeros64(m)]
		if c.count == 1 {
			unique |= m & -m
		}
		c.count = 0
	}
	s.marks[wi] = 0
	listening := w &^ txWord
	return unique & listening, listening &^ unique
}

// endRound empties the window once every word in it has been taken.
func (s *sparseScratch) endRound() {
	s.lo, s.hi = len(s.marks), 0
}

// reset clears whatever a round left behind — nothing after a completed
// round, the untaken words after an abandoned one. It touches only the
// window, and is a no-op on the zero value (non-sparse engines).
func (s *sparseScratch) reset() {
	for wi := s.lo; wi < s.hi; wi++ {
		s.take(wi, 0)
	}
	s.endRound()
}
