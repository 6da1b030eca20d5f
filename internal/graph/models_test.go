package graph

import (
	"fmt"
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/rng"
)

// modelCases pairs every closed-form generator with its implicit twin.
// Sizes are chosen to hit each model's structural edge cases (single
// vertex/layer, even/odd cycles, non-square grids, …).
func modelCases() []struct {
	name               string
	explicit, implicit Topology
} {
	return []struct {
		name               string
		explicit, implicit Topology
	}{
		{"complete-1", Complete(1), ImplicitComplete(1)},
		{"complete-2", Complete(2), ImplicitComplete(2)},
		{"complete-9", Complete(9), ImplicitComplete(9)},
		{"complete-64", Complete(64), ImplicitComplete(64)},
		{"star-1", Star(1), ImplicitStar(1)},
		{"star-2", Star(2), ImplicitStar(2)},
		{"star-17", Star(17), ImplicitStar(17)},
		{"path-1", Path(1), ImplicitPath(1)},
		{"path-2", Path(2), ImplicitPath(2)},
		{"path-33", Path(33), ImplicitPath(33)},
		{"cycle-3", Cycle(3), ImplicitCycle(3)},
		{"cycle-4", Cycle(4), ImplicitCycle(4)},
		{"cycle-31", Cycle(31), ImplicitCycle(31)},
		{"grid-1x1", Grid(1, 1), ImplicitGrid(1, 1)},
		{"grid-1x7", Grid(1, 7), ImplicitGrid(1, 7)},
		{"grid-5x1", Grid(5, 1), ImplicitGrid(5, 1)},
		{"grid-4x6", Grid(4, 6), ImplicitGrid(4, 6)},
		{"hypercube-1", Hypercube(1), ImplicitHypercube(1)},
		{"hypercube-3", Hypercube(3), ImplicitHypercube(3)},
		{"hypercube-6", Hypercube(6), ImplicitHypercube(6)},
		{"layered-1x1", Layered(1, 1), ImplicitLayered(1, 1)},
		{"layered-1x4", Layered(1, 4), ImplicitLayered(1, 4)},
		{"layered-3x1", Layered(3, 1), ImplicitLayered(3, 1)},
		{"layered-4x5", Layered(4, 5), ImplicitLayered(4, 5)},
	}
}

// TestModelMatchesExplicit proves each NeighborModel agrees exactly with
// the generator's materialized adjacency — the foundation of the implicit
// engine's bit-identity contract.
func TestModelMatchesExplicit(t *testing.T) {
	for _, tc := range modelCases() {
		t.Run(tc.name, func(t *testing.T) {
			eg, ig := tc.explicit.G, tc.implicit.G
			if !eg.HasCSR() {
				t.Fatal("explicit generator lost its CSR")
			}
			if ig.HasCSR() {
				t.Fatal("implicit graph claims a CSR")
			}
			m := eg.NeighborModel()
			if m == nil {
				t.Fatal("closed-form generator did not attach a model")
			}
			if m != ig.NeighborModel() {
				t.Fatalf("explicit and implicit models differ: %#v vs %#v", m, ig.NeighborModel())
			}
			if tc.explicit.Name != tc.implicit.Name {
				t.Fatalf("topology names differ: %q vs %q", tc.explicit.Name, tc.implicit.Name)
			}
			if got, want := ig.N(), eg.N(); got != want {
				t.Fatalf("N: %d != %d", got, want)
			}
			if got, want := ig.M(), eg.M(); got != want {
				t.Fatalf("M: %d != %d", got, want)
			}
			if got, want := ig.AvgDegree(), eg.AvgDegree(); got != want {
				t.Fatalf("AvgDegree: %v != %v", got, want)
			}
			for v := 0; v < eg.N(); v++ {
				if got, want := ig.Degree(v), eg.Degree(v); got != want {
					t.Fatalf("Degree(%d): %d != %d", v, got, want)
				}
				if got, want := ig.Eccentricity(v), eg.Eccentricity(v); got != want {
					t.Fatalf("Eccentricity(%d): %d != %d", v, got, want)
				}
				for u := 0; u < eg.N(); u++ {
					if got, want := ig.HasEdge(u, v), eg.HasEdge(u, v); got != want {
						t.Fatalf("HasEdge(%d,%d): %v != %v", u, v, got, want)
					}
				}
			}
			if got, want := ig.Diameter(), eg.Diameter(); got != want {
				t.Fatalf("Diameter: %d != %d", got, want)
			}
			if !ig.Connected() {
				t.Fatal("implicit graph reports disconnected")
			}
		})
	}
}

// counterCases are the oracle sizes for the word-level counters: word
// edges (n = 63/64/65/130), the star's hub/leaf split on one and on more
// than one word, cycle wrap-around inside and across words, grids whose
// rows straddle words in every way, the hypercube's in-word (d < 6) and
// cross-word (d >= 6) dimensions, and layer segments narrower than, equal
// to and wider than a word.
func counterCases() []Topology {
	var tops []Topology
	for _, n := range []int{63, 64, 65, 130} {
		tops = append(tops, Complete(n), Path(n))
	}
	tops = append(tops, Star(1), Star(64))
	for _, n := range []int{3, 64, 65} {
		tops = append(tops, Cycle(n))
	}
	tops = append(tops, Grid(7, 9), Grid(1, 70), Grid(65, 3))
	for dim := 1; dim <= 8; dim++ {
		tops = append(tops, Hypercube(dim))
	}
	return append(tops, Layered(4, 8), Layered(3, 64), Layered(2, 100))
}

// TestTxCounterMatchesBruteForce drives each model's TxCounter with random
// broadcast sets and checks Word, From and Sole against a direct scan of
// the explicit neighbour lists: every listener's unique/collided bits and
// unique sender, Sole agreeing with every unique listener's sender, and
// no bits at or past N.
func TestTxCounterMatchesBruteForce(t *testing.T) {
	for _, top := range counterCases() {
		t.Run(top.Name, func(t *testing.T) {
			g := top.G
			n := g.N()
			counter := g.NeighborModel().NewTxCounter()
			// Complete and star graphs promise Sole whenever one sender
			// serves every unique listener: the implicit engine's bulk
			// credit path depends on it.
			_, isComplete := g.NeighborModel().(CompleteModel)
			_, isStar := g.NeighborModel().(StarModel)
			promisesSole := isComplete || isStar
			r := rng.New(0xC0FFEE)
			tx := bitset.New(n)
			for round := 0; round < 200; round++ {
				tx.Reset()
				switch round % 12 {
				case 0:
					tx.Set(r.Intn(n)) // one broadcaster: every answer is "unique"
				case 1:
					tx.Set(0) // the source / hub alone
				default:
					// Sweep densities from empty through saturated.
					p := float64(round%12-2) / 9
					for v := 0; v < n; v++ {
						if r.Bool(p) {
							tx.Set(v)
						}
					}
				}
				counter.Begin(tx)
				sole := counter.Sole()
				senders := map[int32]bool{}
				for wi := 0; wi < len(tx.Words()); wi++ {
					unique, collided := counter.Word(wi)
					for b := 0; b < 64; b++ {
						u := wi*64 + b
						gotUnique, gotCollided := unique>>uint(b)&1 == 1, collided>>uint(b)&1 == 1
						if u >= n {
							if gotUnique || gotCollided {
								t.Fatalf("round %d word %d: bit %d past n=%d set", round, wi, b, n)
							}
							continue
						}
						if tx.Test(u) {
							continue // transmitters do not listen
						}
						count, from := 0, int32(-1)
						for _, v := range g.Neighbors(u) {
							if tx.Test(int(v)) {
								count++
								from = v
							}
						}
						if gotUnique != (count == 1) || gotCollided != (count >= 2) {
							t.Fatalf("round %d u=%d: unique=%v collided=%v, want %d transmitting neighbours (tx=%v)",
								round, u, gotUnique, gotCollided, count, tx.Elements())
						}
						if count != 1 {
							continue
						}
						if got := counter.From(int32(u)); got != from {
							t.Fatalf("round %d u=%d: From %d, want %d (tx=%v)", round, u, got, from, tx.Elements())
						}
						if sole >= 0 && sole != from {
							t.Fatalf("round %d u=%d: Sole %d, but the sender is %d (tx=%v)", round, u, sole, from, tx.Elements())
						}
						senders[from] = true
					}
				}
				if promisesSole && len(senders) == 1 && sole < 0 {
					t.Fatalf("round %d: one sender %v serves every unique listener, Sole = -1 (tx=%v)", round, senders, tx.Elements())
				}
			}
		})
	}
}

// TestImplicitGraphPanics locks in the contract that adjacency-exposing
// methods fail loudly instead of misbehaving on implicit graphs.
func TestImplicitGraphPanics(t *testing.T) {
	g := ImplicitComplete(8).G
	for _, tc := range []struct {
		name string
		call func()
	}{
		{"Neighbors", func() { g.Neighbors(0) }},
		{"BFS", func() { g.BFS(0) }},
		{"Layers", func() { g.Layers(0) }},
		{"AdjacencyBits", func() { g.AdjacencyBits() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s did not panic on an implicit graph", tc.name)
				}
			}()
			tc.call()
		})
	}
}

// TestModellessGenerators documents which generators have no closed form:
// their graphs must keep working with a nil model.
func TestModellessGenerators(t *testing.T) {
	r := rng.New(7)
	for _, top := range []Topology{
		RandomTree(16, r),
		GNP(16, 0.3, r),
		BinaryTree(3),
		Caterpillar(4, 2),
		Lollipop(2, 3),
		SingleLink(),
	} {
		if top.G.NeighborModel() != nil {
			t.Errorf("%s unexpectedly has a neighbour model", top.Name)
		}
		if !top.G.HasCSR() {
			t.Errorf("%s lost its CSR", top.Name)
		}
	}
}

// TestImplicitScale builds a million-node implicit complete graph — the
// regime the implicit engine exists for — and checks a few closed-form
// answers; a CSR/bit-matrix build at this size would be ~125 GB.
func TestImplicitScale(t *testing.T) {
	const n = 1_000_000
	top := ImplicitComplete(n)
	g := top.G
	if g.N() != n || g.Degree(n-1) != n-1 || g.Eccentricity(0) != 1 {
		t.Fatalf("closed-form answers wrong at n=%d", n)
	}
	if want := int64(n) * int64(n-1) / 2; int64(g.M()) != want {
		t.Fatalf("M = %d, want %d", g.M(), want)
	}
	if name := fmt.Sprintf("complete(n=%d)", n); top.Name != name {
		t.Fatalf("name %q, want %q", top.Name, name)
	}
}
