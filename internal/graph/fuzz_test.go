package graph

import (
	"errors"
	"slices"
	"testing"
)

// FuzzBuilder fuzzes Builder input validation and the CSR invariants of
// the built graph: sorted strictly-increasing neighbour lists (no
// duplicates), no self-loops, symmetry, consistent degree accounting, and
// agreement with the bit-matrix adjacency view. It also requires offsets
// and adjacency identical to referenceBuild, the comparison-sort
// construction, so engine decisions and draws cannot drift. Seed corpus
// lives in testdata/fuzz/FuzzBuilder.
func FuzzBuilder(f *testing.F) {
	f.Add(uint64(0), []byte{})
	f.Add(uint64(1), []byte{0, 0})
	f.Add(uint64(5), []byte{0, 1, 1, 2, 2, 0, 3, 3, 4, 0, 4, 0})
	f.Add(uint64(200), []byte{7, 9, 9, 7, 1, 1, 0, 199})
	f.Fuzz(func(t *testing.T, nRaw uint64, edges []byte) {
		n := int(nRaw % 300) // 0 exercises the ErrEmptyGraph path
		b := NewBuilder(n)
		type edge struct{ u, v int }
		var added []edge
		if n > 0 {
			for i := 0; i+1 < len(edges); i += 2 {
				u, v := int(edges[i])%n, int(edges[i+1])%n
				b.AddEdge(u, v)
				added = append(added, edge{u, v})
			}
		}
		g, err := b.Build()
		if n == 0 {
			if !errors.Is(err, ErrEmptyGraph) {
				t.Fatalf("Build() on 0 vertices: err = %v, want ErrEmptyGraph", err)
			}
			return
		}
		if err != nil {
			t.Fatalf("Build() = %v for valid input", err)
		}
		if g.N() != n {
			t.Fatalf("N() = %d, want %d", g.N(), n)
		}
		wantOffsets, wantAdj := referenceBuild(n, b.edges)
		if !slices.Equal(g.offsets, wantOffsets) || !slices.Equal(g.adj, wantAdj) {
			t.Fatalf("CSR differs from referenceBuild:\noffsets %v\n   want %v\nadj %v\nwant %v", g.offsets, wantOffsets, g.adj, wantAdj)
		}
		degSum := 0
		for v := 0; v < n; v++ {
			ns := g.Neighbors(v)
			if len(ns) != g.Degree(v) {
				t.Fatalf("node %d: len(Neighbors) %d != Degree %d", v, len(ns), g.Degree(v))
			}
			degSum += len(ns)
			for i, u := range ns {
				if int(u) == v {
					t.Fatalf("node %d: self-loop survived Build", v)
				}
				if u < 0 || int(u) >= n {
					t.Fatalf("node %d: neighbour %d out of range", v, u)
				}
				if i > 0 && ns[i-1] >= u {
					t.Fatalf("node %d: neighbour list not strictly increasing: %v", v, ns)
				}
				if !g.HasEdge(int(u), v) {
					t.Fatalf("edge (%d,%d) present but (%d,%d) missing", v, u, u, v)
				}
			}
		}
		if degSum != 2*g.M() {
			t.Fatalf("degree sum %d != 2*M %d", degSum, 2*g.M())
		}
		for _, e := range added {
			if e.u != e.v && !g.HasEdge(e.u, e.v) {
				t.Fatalf("added edge (%d,%d) missing from graph", e.u, e.v)
			}
		}
		bits := g.AdjacencyBits()
		for v := 0; v < n; v++ {
			if bits.RowCount(v) != g.Degree(v) {
				t.Fatalf("node %d: bit view degree %d != CSR degree %d", v, bits.RowCount(v), g.Degree(v))
			}
			for _, u := range g.Neighbors(v) {
				if !bits.Test(v, int(u)) {
					t.Fatalf("edge (%d,%d) missing from bit view", v, u)
				}
			}
		}
	})
}
