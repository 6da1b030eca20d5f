package bitset

import "testing"

func TestNonzeroRange(t *testing.T) {
	cases := []struct {
		name   string
		n      int
		bits   []int
		lo, hi int
	}{
		{"empty-zero-len", 0, nil, 0, 0},
		{"empty-one-word", 50, nil, 0, 0},
		{"empty-many-words", 300, nil, 0, 0},
		{"single-word-set", 40, []int{3, 17}, 0, 1},
		{"first-word-only", 300, []int{0, 63}, 0, 1},
		{"last-word-only", 300, []int{299}, 4, 5},
		{"middle-word", 300, []int{130}, 2, 3},
		{"boundary-63-64", 300, []int{63, 64}, 0, 2},
		{"spanning", 300, []int{5, 299}, 0, 5},
		{"full", 129, []int{0, 64, 128}, 0, 3},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			s := New(c.n)
			for _, b := range c.bits {
				s.Set(b)
			}
			lo, hi := s.NonzeroRange()
			if lo != c.lo || hi != c.hi {
				t.Fatalf("NonzeroRange() = [%d,%d), want [%d,%d)", lo, hi, c.lo, c.hi)
			}
			// The window's defining property: zero outside, nonzero ends.
			for w, word := range s.Words() {
				if (w < lo || w >= hi) && word != 0 {
					t.Fatalf("word %d nonzero outside window [%d,%d)", w, lo, hi)
				}
			}
			if lo < hi && (s.Words()[lo] == 0 || s.Words()[hi-1] == 0) {
				t.Fatalf("window [%d,%d) has zero end word", lo, hi)
			}
		})
	}
}

func TestNonzeroRangeAfterClear(t *testing.T) {
	s := New(200)
	s.Set(70)
	s.Set(190)
	s.Clear(190)
	if lo, hi := s.NonzeroRange(); lo != 1 || hi != 2 {
		t.Fatalf("NonzeroRange after clear = [%d,%d), want [1,2)", lo, hi)
	}
	s.Clear(70)
	if lo, hi := s.NonzeroRange(); lo != 0 || hi != 0 {
		t.Fatalf("NonzeroRange of emptied set = [%d,%d), want [0,0)", lo, hi)
	}
}

func TestResetWindow(t *testing.T) {
	s := New(300)
	s.Set(5)
	s.Set(70)
	s.Set(299)
	s.ResetWindow(1, 2)
	if s.Test(70) || !s.Test(5) || !s.Test(299) {
		t.Fatalf("ResetWindow(1,2) cleared wrong bits: %v", s)
	}
	s.ResetWindow(-5, 99) // clamps to the full range
	if !s.Empty() {
		t.Fatalf("clamped full-range ResetWindow left %v", s)
	}
	s.Set(64)
	lo, hi := s.NonzeroRange()
	s.ResetWindow(lo, hi)
	if !s.Empty() {
		t.Fatalf("ResetWindow over NonzeroRange left %v", s)
	}
}

func TestIntersectsWindow(t *testing.T) {
	n := 300
	a := New(n)
	b := New(n)
	if a.IntersectsWindow(b, 0, 5) {
		t.Fatal("empty sets intersect")
	}
	a.Set(10)
	b.Set(11)
	if a.IntersectsWindow(b, 0, 5) {
		t.Fatal("disjoint single-word sets intersect")
	}
	b.Set(10)
	if !a.IntersectsWindow(b, 0, 5) {
		t.Fatal("overlapping sets miss in full window")
	}
	if !a.IntersectsWindow(b, 0, 1) {
		t.Fatal("overlap in word 0 missed by window [0,1)")
	}
	if a.IntersectsWindow(b, 1, 5) {
		t.Fatal("window [1,5) sees word-0 overlap")
	}
	// Boundary words: common element at the 63/64 seam.
	a.Set(64)
	b.Set(64)
	if !a.IntersectsWindow(b, 1, 2) {
		t.Fatal("boundary overlap at bit 64 missed by window [1,2)")
	}
	if a.IntersectsWindow(b, 2, 5) {
		t.Fatal("window past the overlap reports intersection")
	}
	// Out-of-range windows clamp rather than panic.
	if !a.IntersectsWindow(b, -3, 99) {
		t.Fatal("clamped window missed intersection")
	}
	if a.IntersectsWindow(b, 99, 120) {
		t.Fatal("empty clamped window reports intersection")
	}
}

func TestIntersectsWindowMismatchedLengthsPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on mismatched lengths")
		}
	}()
	New(10).IntersectsWindow(New(20), 0, 1)
}

func TestFromBools(t *testing.T) {
	for _, n := range []int{0, 1, 63, 64, 65, 130, 300} {
		b := make([]bool, n)
		want := New(n)
		for i := 0; i < n; i += 3 {
			b[i] = true
			want.Set(i)
		}
		got := New(n)
		if n > 1 {
			got.Set(1) // stale content must be overwritten, not ORed
		}
		got.FromBools(b)
		for i := 0; i < n; i++ {
			if got.Test(i) != want.Test(i) {
				t.Fatalf("n=%d: bit %d = %v, want %v", n, i, got.Test(i), want.Test(i))
			}
		}
		if n > 0 && got.Count() != want.Count() {
			t.Fatalf("n=%d: count %d, want %d", n, got.Count(), want.Count())
		}
	}
}

func TestFromBoolsLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on length mismatch")
		}
	}()
	New(10).FromBools(make([]bool, 11))
}

func TestMatrixRowRange(t *testing.T) {
	m := NewMatrix(4, 300)
	if lo, hi := m.RowRange(0); lo != 0 || hi != 0 {
		t.Fatalf("all-zero row range = [%d,%d), want [0,0)", lo, hi)
	}
	m.Set(0, 5) // single word
	if lo, hi := m.RowRange(0); lo != 0 || hi != 1 {
		t.Fatalf("row 0 range = [%d,%d), want [0,1)", lo, hi)
	}
	m.Set(1, 299) // last word only
	if lo, hi := m.RowRange(1); lo != 4 || hi != 5 {
		t.Fatalf("row 1 range = [%d,%d), want [4,5)", lo, hi)
	}
	m.Set(2, 64) // boundary word
	m.Set(2, 63)
	if lo, hi := m.RowRange(2); lo != 0 || hi != 2 {
		t.Fatalf("row 2 range = [%d,%d), want [0,2)", lo, hi)
	}
	m.Set(3, 130)
	m.Set(3, 70)
	if lo, hi := m.RowRange(3); lo != 1 || hi != 3 {
		t.Fatalf("row 3 range = [%d,%d), want [1,3)", lo, hi)
	}
	// Windows only widen; re-setting an interior bit changes nothing.
	m.Set(3, 100)
	if lo, hi := m.RowRange(3); lo != 1 || hi != 3 {
		t.Fatalf("row 3 range after interior set = [%d,%d), want [1,3)", lo, hi)
	}
	// Defining property: zero words outside every row's window.
	for r := 0; r < m.Rows(); r++ {
		lo, hi := m.RowRange(r)
		for w, word := range m.Row(r) {
			if (w < lo || w >= hi) && word != 0 {
				t.Fatalf("row %d word %d nonzero outside window [%d,%d)", r, w, lo, hi)
			}
		}
	}
}

func TestMatrixRowRangeOutOfRangePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("no panic on out-of-range row")
		}
	}()
	NewMatrix(2, 10).RowRange(2)
}

// TestWindowMatchesBitwise checks Window against a bit-by-bit read at
// every start offset around and across word edges, including starts
// before 0 and past Len(), where the outside positions must read as zero.
func TestWindowMatchesBitwise(t *testing.T) {
	for _, n := range []int{1, 63, 64, 65, 130} {
		s := New(n)
		for i := 0; i < n; i++ {
			if (i*7+3)%5 < 2 {
				s.Set(i)
			}
		}
		for start := -70; start <= n+70; start++ {
			var want uint64
			for b := 0; b < 64; b++ {
				if i := start + b; i >= 0 && i < n && s.Test(i) {
					want |= 1 << uint(b)
				}
			}
			if got := s.Window(start); got != want {
				t.Fatalf("n=%d: Window(%d) = %#x, want %#x", n, start, got, want)
			}
		}
	}
}

// TestOrWord checks the word-level adds against per-element Set, on a
// Set and on one lane of a Block.
func TestOrWord(t *testing.T) {
	const n = 130
	s, want := New(n), New(n)
	b := NewBlock(n, 3)
	for wi, m := range []uint64{0x8000000000000001, 0, 0x3} {
		s.OrWord(wi, m)
		b.OrLaneWord(1, wi, m)
		for bit := 0; bit < 64; bit++ {
			if m>>uint(bit)&1 == 1 {
				want.Set(wi*64 + bit)
			}
		}
	}
	got := New(n)
	b.LaneToSet(1, got)
	if s.String() != want.String() || got.String() != want.String() {
		t.Fatalf("OrWord %v, OrLaneWord %v, want %v", s, got, want)
	}
	if !b.LaneEmpty(0) || !b.LaneEmpty(2) {
		t.Fatal("OrLaneWord touched another lane")
	}
}
