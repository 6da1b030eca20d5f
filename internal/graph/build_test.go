package graph

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"math"
	"sort"
	"testing"

	"noisyradio/internal/rng"
)

// referenceBuild is the comparison-sort construction Build replaced, kept
// as the oracle for FuzzBuilder: collect both orientations of every
// non-loop edge, sort by (source, target), drop repeats, and count each
// source's surviving entries into offsets.
func referenceBuild(n int, edges [][2]int32) (offsets, adj []int32) {
	dir := make([][2]int32, 0, 2*len(edges))
	for _, e := range edges {
		if e[0] == e[1] {
			continue
		}
		dir = append(dir, e, [2]int32{e[1], e[0]})
	}
	sort.Slice(dir, func(i, j int) bool {
		if dir[i][0] != dir[j][0] {
			return dir[i][0] < dir[j][0]
		}
		return dir[i][1] < dir[j][1]
	})
	offsets = make([]int32, n+1)
	adj = make([]int32, 0, len(dir))
	prev := [2]int32{-1, -1}
	for _, e := range dir {
		if e == prev {
			continue
		}
		prev = e
		adj = append(adj, e[1])
		offsets[e[0]+1]++
	}
	for i := 0; i < n; i++ {
		offsets[i+1] += offsets[i]
	}
	return offsets, adj
}

// csrDigest hashes a CSR graph's offsets and adjacency, little-endian, in
// that order.
func csrDigest(g *Graph) string {
	h := sha256.New()
	_ = binary.Write(h, binary.LittleEndian, g.offsets)
	_ = binary.Write(h, binary.LittleEndian, g.adj)
	return hex.EncodeToString(h.Sum(nil))
}

// TestGeneratorCSRDigests pins the exact CSR arrays every generator
// produces. The digests were computed with the comparison-sort Build that
// the counting build replaced; any change to neighbour order, dedupe or
// offsets changes engine decisions and draws, so it must show up here.
func TestGeneratorCSRDigests(t *testing.T) {
	cases := []struct {
		name string
		top  func() Topology
		want string
	}{
		{"path", func() Topology { return Path(1000) },
			"9b6264b9e0dfd10979c4b6047822c762f0fd5e16d0ea59542ba408491e74075f"},
		{"star", func() Topology { return Star(777) },
			"473b33035741f8350bbe4a12d785e34446b17a9acabfca4832bea62c38828e78"},
		{"single-link", SingleLink,
			"ca9dbdb7c9c55ad49da0a4fbcce71e1b737c80e94c0fe4c06ee1aa505dd41d82"},
		{"complete", func() Topology { return Complete(300) },
			"70aaf4a2560e2a197889df7165f2824b7ff284fdd27a2b35cadd1511e1571110"},
		{"grid", func() Topology { return Grid(23, 41) },
			"c32d5998a5ec7718a16b763a5b61dfba4a971db4e8dda46162a4925fd2fbf580"},
		{"random-tree", func() Topology { return RandomTree(2000, rng.New(11)) },
			"b860ed656bbffc2cb59c95bbb25cdacaecfef34a7ff15dfe1bae7fed1f032ce7"},
		{"gnp", func() Topology { return GNP(500, 0.3, rng.New(12)) },
			"e963589aeda4e4b0d10795b508813064e87f30de12e02f132c6746c2694bb743"},
		{"layered", func() Topology { return Layered(7, 13) },
			"341ef42f30cdc6edcd09c0f9ce350d63c011517160663e02b5598dfc1f27ab1c"},
		{"cycle", func() Topology { return Cycle(999) },
			"80d0182ebc60d9e80dc355dd98fdd0d6df12c7b541ca1aef5ad2cbde522129c8"},
		{"hypercube", func() Topology { return Hypercube(10) },
			"6ef198f323d0fb30aeb99c83ce67d8699f576db49fde6d52a1c6854fa37af984"},
		{"binary-tree", func() Topology { return BinaryTree(9) },
			"3aeb8e4034429b5c04720d2d43695f6d2ad13a8843c18a5cc99e0028d18aa060"},
		{"caterpillar", func() Topology { return Caterpillar(50, 7) },
			"99e0550118e1db2791f306a313119a293e64543516df419f53a5d3d93ec1479b"},
		{"lollipop", func() Topology { return Lollipop(6, 40) },
			"daad8779358a799758a1466f8c245f78d47aa6e5846b3278cc05532ff1120906"},
		{"wct", func() Topology { return NewWCT(DefaultWCTParams(4096), rng.New(13)).Topology },
			"730113e58cf81d84ce24a965a3adb1afe9f5bc6b6de329eb2713456391e1a21a"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			if got := csrDigest(c.top().G); got != c.want {
				t.Errorf("CSR digest = %s, want %s", got, c.want)
			}
		})
	}
}

func TestBuildTooLarge(t *testing.T) {
	if _, err := NewBuilder(math.MaxInt32 + 1).Build(); !errors.Is(err, ErrTooLarge) {
		t.Fatalf("Build() on MaxInt32+1 vertices: err = %v, want ErrTooLarge", err)
	}
	// The limits themselves, without allocating graphs that size.
	cases := []struct {
		n, edges int
		tooLarge bool
	}{
		{math.MaxInt32, 0, false},
		{math.MaxInt32 + 1, 0, true},
		{2, math.MaxInt32 / 2, false}, // 2^31 - 2 directed entries
		{2, math.MaxInt32/2 + 1, true},
	}
	for _, c := range cases {
		if err := checkSize(c.n, c.edges); errors.Is(err, ErrTooLarge) != c.tooLarge {
			t.Errorf("checkSize(%d, %d) = %v, want too large %v", c.n, c.edges, err, c.tooLarge)
		}
	}
}

// completeBuilder records Complete(n)'s edges in the generator's order.
func completeBuilder(n int) *Builder {
	b := NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			b.AddEdge(i, j)
		}
	}
	return b
}

// gnpBuilder records GNP(n, p)'s edges in the generator's order: the
// random spanning tree first, so most rows arrive out of order.
func gnpBuilder(n int, p float64, r *rng.Stream) *Builder {
	b := NewBuilder(n)
	for i := 1; i < n; i++ {
		b.AddEdge(i, r.Intn(i))
	}
	for i := 0; i < n; i++ {
		for j := i + 1; j < n; j++ {
			if r.Bool(p) {
				b.AddEdge(i, j)
			}
		}
	}
	return b
}

// TestBuildAllocsConstant pins Build's allocations (the graph, its offsets
// and its adjacency) independently of the edge count, so neither a
// per-edge allocation nor an append-grown intermediate can come back.
func TestBuildAllocsConstant(t *testing.T) {
	const want = 3
	for _, b := range []*Builder{
		gnpBuilder(100, 0.2, rng.New(1)),  // ~10^3 edges
		gnpBuilder(1000, 0.2, rng.New(2)), // ~10^5 edges
	} {
		allocs := testing.AllocsPerRun(5, func() {
			if _, err := b.Build(); err != nil {
				t.Fatal(err)
			}
		})
		if allocs != want {
			t.Errorf("Build() with %d edges: %v allocations, want %d", len(b.edges), allocs, want)
		}
	}
}

func BenchmarkBuild(b *testing.B) {
	for _, c := range []struct {
		name string
		b    *Builder
	}{
		{"complete/n=2048", completeBuilder(2048)},
		{"gnp/n=2048/p=0.3", gnpBuilder(2048, 0.3, rng.New(1))},
	} {
		b.Run(c.name, func(b *testing.B) {
			b.ReportAllocs()
			for b.Loop() {
				if _, err := c.b.Build(); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
