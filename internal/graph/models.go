package graph

import (
	"fmt"
	"math/bits"

	"noisyradio/internal/bitset"
)

// A NeighborModel is a closed-form description of a generator's
// neighbourhood structure: everything the radio layer's implicit engine
// needs to resolve a round — transmitting-neighbour counts, degrees,
// eccentricities — computed from the generator's parameters instead of a
// stored adjacency. Per-node state is O(1) (plus O(#layers) for the
// layered pipeline), which is what unlocks topologies far past the
// Θ(n²/8)-byte bit-matrix ceiling of the dense engine.
//
// Every closed-form generator (Path, Star, Complete, Grid, Cycle,
// Hypercube, Layered) attaches its model to the Topology it builds, so the
// implicit engine can be differentially tested against sparse/dense on the
// same graph. NewImplicit builds a CSR-less Graph from a model alone for
// the n = 10⁵–10⁶ regime where materializing adjacency is not an option.
//
// A model must agree exactly with the generator's explicit adjacency
// (enforced by test): the implicit engine's bit-identity contract stands
// on it.
type NeighborModel interface {
	// N returns the number of vertices.
	N() int
	// Degree returns the degree of vertex v.
	Degree(v int) int
	// HasEdge reports whether {u, v} is an edge.
	HasEdge(u, v int) bool
	// Eccentricity returns the maximum hop distance from v (the graphs
	// described by models are connected, so this is always >= 0).
	Eccentricity(v int) int
	// Edges returns the number of undirected edges.
	Edges() int64
	// NewTxCounter returns a fresh per-round transmitting-neighbour
	// counter over this model. Counters are stateful between Begin and the
	// queries of one round and are not safe for concurrent use; each
	// network owns its own.
	NewTxCounter() TxCounter
}

// A TxCounter answers, for one round's broadcast set, the query at the
// heart of radio-channel resolution — how many neighbours of each
// listener are transmitting, and which one when the answer is exactly one
// — 64 listeners at a time.
type TxCounter interface {
	// Begin prepares the counter for a round with broadcast set tx. The
	// counter reads tx (and may retain it until the next Begin) but never
	// mutates it.
	Begin(tx *bitset.Set)
	// Word classifies the vertices of word wi (bit b is vertex wi*64+b):
	// unique has the bits of vertices with exactly one transmitting
	// neighbour, collided those with two or more. Bits of transmitting
	// vertices are unspecified (transmitters do not listen; callers mask
	// them out), and bits at positions >= N are always zero.
	Word(wi int) (unique, collided uint64)
	// From returns the transmitting neighbour of u, a non-transmitting
	// vertex that Word reported unique.
	From(u int32) int32
	// Sole returns the one sender that every non-transmitting unique
	// vertex of the round hears, or -1 when the counter knows no such
	// sender (callers then ask From per vertex).
	Sole() int32
}

// wordMask returns the bits of word wi that address vertices in [0, n).
func wordMask(wi, n int) uint64 {
	switch rem := n - wi*64; {
	case rem >= 64:
		return ^uint64(0)
	case rem <= 0:
		return 0
	default:
		return 1<<uint(rem) - 1
	}
}

// bitRange returns the bits [a, b) of a word, 0 <= a < b <= 64.
func bitRange(a, b int) uint64 {
	return ^uint64(0) >> uint(64-(b-a)) << uint(a)
}

// CompleteModel describes the complete graph on N vertices.
type CompleteModel struct{ Nodes int }

func (m CompleteModel) N() int                { return m.Nodes }
func (m CompleteModel) Degree(v int) int      { return m.Nodes - 1 }
func (m CompleteModel) HasEdge(u, v int) bool { return u != v }
func (m CompleteModel) Edges() int64          { n := int64(m.Nodes); return n * (n - 1) / 2 }
func (m CompleteModel) Eccentricity(v int) int {
	if m.Nodes <= 1 {
		return 0
	}
	return 1
}
func (m CompleteModel) NewTxCounter() TxCounter { return &completeCounter{n: m.Nodes} }

// completeCounter: every other vertex is a neighbour, so a listener hears
// the round's broadcaster total — the same answer for every listener, one
// O(n/64) popcount in Begin and O(1) per word after it.
type completeCounter struct {
	n     int
	total int   // broadcasters this round
	sole  int32 // the broadcaster when total == 1, else -1
}

func (c *completeCounter) Begin(tx *bitset.Set) {
	c.total = tx.Count()
	c.sole = -1
	if c.total == 1 {
		c.sole = int32(tx.Next(0))
	}
}

func (c *completeCounter) Word(wi int) (unique, collided uint64) {
	switch {
	case c.total == 1:
		return wordMask(wi, c.n), 0
	case c.total >= 2:
		return 0, wordMask(wi, c.n)
	}
	return 0, 0
}

func (c *completeCounter) From(u int32) int32 { return c.sole }
func (c *completeCounter) Sole() int32        { return c.sole }

// StarModel describes the star: hub 0 adjacent to Leaves leaves.
type StarModel struct{ Leaves int }

func (m StarModel) N() int { return m.Leaves + 1 }
func (m StarModel) Degree(v int) int {
	if v == 0 {
		return m.Leaves
	}
	return 1
}
func (m StarModel) HasEdge(u, v int) bool { return (u == 0) != (v == 0) }
func (m StarModel) Edges() int64          { return int64(m.Leaves) }
func (m StarModel) Eccentricity(v int) int {
	if v == 0 || m.Leaves == 1 {
		return 1
	}
	return 2
}
func (m StarModel) NewTxCounter() TxCounter { return &starCounter{n: m.Leaves + 1} }

// starCounter: a leaf hears the hub alone; the hub hears the leaf total.
type starCounter struct {
	n         int
	hubTx     bool
	leafTotal int
	leafFirst int32 // lowest broadcasting leaf, -1 when none
}

func (c *starCounter) Begin(tx *bitset.Set) {
	c.hubTx = tx.Test(0)
	c.leafTotal = tx.Count()
	if c.hubTx {
		c.leafTotal--
	}
	c.leafFirst = -1
	if c.leafTotal >= 1 {
		c.leafFirst = int32(tx.Next(1))
	}
}

func (c *starCounter) Word(wi int) (unique, collided uint64) {
	if c.hubTx {
		unique = wordMask(wi, c.n)
	}
	if wi == 0 {
		unique &^= 1 // the hub hears the leaves, not itself
		switch {
		case c.leafTotal == 1:
			unique |= 1
		case c.leafTotal >= 2:
			collided = 1
		}
	}
	return unique, collided
}

func (c *starCounter) From(u int32) int32 {
	if u == 0 {
		return c.leafFirst
	}
	return 0
}

// Sole: with the hub broadcasting only leaves listen, and all hear the
// hub; otherwise only the hub can hear, from the single broadcasting leaf.
func (c *starCounter) Sole() int32 {
	if c.hubTx {
		return 0
	}
	if c.leafTotal == 1 {
		return c.leafFirst
	}
	return -1
}

// PathModel describes the path 0—1—…—N-1.
type PathModel struct{ Nodes int }

func (m PathModel) N() int { return m.Nodes }
func (m PathModel) Degree(v int) int {
	if m.Nodes == 1 {
		return 0
	}
	if v == 0 || v == m.Nodes-1 {
		return 1
	}
	return 2
}
func (m PathModel) HasEdge(u, v int) bool { return u-v == 1 || v-u == 1 }
func (m PathModel) Edges() int64          { return int64(m.Nodes - 1) }
func (m PathModel) Eccentricity(v int) int {
	return max(v, m.Nodes-1-v)
}
func (m PathModel) NewTxCounter() TxCounter { return &pathCounter{n: m.Nodes} }

// pathCounter: a word's left and right neighbours are the broadcast set
// shifted by one either way.
type pathCounter struct {
	n  int
	tx *bitset.Set
}

func (c *pathCounter) Begin(tx *bitset.Set) { c.tx = tx }

func (c *pathCounter) Word(wi int) (unique, collided uint64) {
	s := wi * 64
	l, r := c.tx.Window(s-1), c.tx.Window(s+1)
	valid := wordMask(wi, c.n)
	return (l ^ r) & valid, l & r & valid
}

func (c *pathCounter) From(u int32) int32 {
	if u > 0 && c.tx.Test(int(u)-1) {
		return u - 1
	}
	return u + 1
}

func (c *pathCounter) Sole() int32 { return -1 }

// CycleModel describes the cycle on N >= 3 vertices.
type CycleModel struct{ Nodes int }

func (m CycleModel) N() int           { return m.Nodes }
func (m CycleModel) Degree(v int) int { return 2 }
func (m CycleModel) HasEdge(u, v int) bool {
	d := u - v
	if d < 0 {
		d = -d
	}
	return d == 1 || d == m.Nodes-1
}
func (m CycleModel) Edges() int64            { return int64(m.Nodes) }
func (m CycleModel) Eccentricity(v int) int  { return m.Nodes / 2 }
func (m CycleModel) NewTxCounter() TxCounter { return &cycleCounter{n: m.Nodes} }

// cycleCounter is pathCounter plus the wrap-around edge {n-1, 0}.
type cycleCounter struct {
	n  int
	tx *bitset.Set
}

func (c *cycleCounter) Begin(tx *bitset.Set) { c.tx = tx }

func (c *cycleCounter) Word(wi int) (unique, collided uint64) {
	s := wi * 64
	l, r := c.tx.Window(s-1), c.tx.Window(s+1)
	if wi == 0 && c.tx.Test(c.n-1) {
		l |= 1 // vertex 0's left neighbour is n-1
	}
	if last := c.n - 1; last/64 == wi && c.tx.Test(0) {
		r |= 1 << uint(last%64) // vertex n-1's right neighbour is 0
	}
	valid := wordMask(wi, c.n)
	return (l ^ r) & valid, l & r & valid
}

func (c *cycleCounter) From(u int32) int32 {
	if l := (int(u) + c.n - 1) % c.n; c.tx.Test(l) {
		return int32(l)
	}
	return int32((int(u) + 1) % c.n)
}

func (c *cycleCounter) Sole() int32 { return -1 }

// GridModel describes the Rows×Cols grid; vertex (r,c) has index r*Cols+c.
type GridModel struct{ Rows, Cols int }

func (m GridModel) N() int { return m.Rows * m.Cols }
func (m GridModel) Degree(v int) int {
	r, c := v/m.Cols, v%m.Cols
	d := 4
	if r == 0 {
		d--
	}
	if r == m.Rows-1 {
		d--
	}
	if c == 0 {
		d--
	}
	if c == m.Cols-1 {
		d--
	}
	return d
}
func (m GridModel) HasEdge(u, v int) bool {
	ru, cu := u/m.Cols, u%m.Cols
	rv, cv := v/m.Cols, v%m.Cols
	if ru == rv {
		return cu-cv == 1 || cv-cu == 1
	}
	if cu == cv {
		return ru-rv == 1 || rv-ru == 1
	}
	return false
}
func (m GridModel) Edges() int64 {
	return int64(m.Rows)*int64(m.Cols-1) + int64(m.Cols)*int64(m.Rows-1)
}
func (m GridModel) Eccentricity(v int) int {
	r, c := v/m.Cols, v%m.Cols
	return max(r, m.Rows-1-r) + max(c, m.Cols-1-c)
}
func (m GridModel) NewTxCounter() TxCounter { return &gridCounter{m: m} }

// gridCounter counts a word's four neighbour directions as shifted
// windows of the broadcast set (±1 with the column edges masked out,
// ±Cols), folded into a saturating ones/twos pair.
type gridCounter struct {
	m  GridModel
	tx *bitset.Set
}

func (c *gridCounter) Begin(tx *bitset.Set) { c.tx = tx }

// colStarts returns the bits b of a word with (start+b) % cols == 0.
func colStarts(start, cols int) uint64 {
	var m uint64
	for b := (cols - start%cols) % cols; b < 64; b += cols {
		m |= 1 << uint(b)
	}
	return m
}

func (c *gridCounter) Word(wi int) (unique, collided uint64) {
	s, cols := wi*64, c.m.Cols
	var ones, twos uint64
	for _, m := range [4]uint64{
		c.tx.Window(s - cols),
		c.tx.Window(s-1) &^ colStarts(s, cols),   // column 0 has no left neighbour
		c.tx.Window(s+1) &^ colStarts(s+1, cols), // column cols-1 has no right one
		c.tx.Window(s + cols),
	} {
		twos |= ones & m
		ones |= m
	}
	valid := wordMask(wi, c.m.N())
	return ones &^ twos & valid, twos & valid
}

func (c *gridCounter) From(u int32) int32 {
	cols := int32(c.m.Cols)
	col := u % cols
	switch {
	case u >= cols && c.tx.Test(int(u-cols)):
		return u - cols
	case col > 0 && c.tx.Test(int(u)-1):
		return u - 1
	case col+1 < cols && c.tx.Test(int(u)+1):
		return u + 1
	}
	return u + cols
}

func (c *gridCounter) Sole() int32 { return -1 }

// HypercubeModel describes the Dim-dimensional hypercube on 2^Dim vertices.
type HypercubeModel struct{ Dim int }

func (m HypercubeModel) N() int           { return 1 << m.Dim }
func (m HypercubeModel) Degree(v int) int { return m.Dim }
func (m HypercubeModel) HasEdge(u, v int) bool {
	return bits.OnesCount(uint(u^v)) == 1
}
func (m HypercubeModel) Edges() int64           { return int64(m.Dim) << (m.Dim - 1) }
func (m HypercubeModel) Eccentricity(v int) int { return m.Dim }
func (m HypercubeModel) NewTxCounter() TxCounter {
	return &hypercubeCounter{dim: m.Dim}
}

// hypercubeCounter: the neighbours across dimension d are the broadcast
// words with bit d of the index flipped — an in-word block swap for
// d < 6, a word swap above.
type hypercubeCounter struct {
	dim int
	tx  *bitset.Set
}

// swapMasks[d] selects the bits of a word whose index has bit d clear.
var swapMasks = [6]uint64{
	0x5555555555555555, 0x3333333333333333, 0x0F0F0F0F0F0F0F0F,
	0x00FF00FF00FF00FF, 0x0000FFFF0000FFFF, 0x00000000FFFFFFFF,
}

func (c *hypercubeCounter) Begin(tx *bitset.Set) { c.tx = tx }

func (c *hypercubeCounter) Word(wi int) (unique, collided uint64) {
	txw := c.tx.Words()
	w := txw[wi]
	var ones, twos uint64
	for d := 0; d < c.dim; d++ {
		var m uint64
		if d < 6 {
			sh, k := uint(1)<<uint(d), swapMasks[d]
			m = (w&k)<<sh | (w>>sh)&k
		} else {
			m = txw[wi^(1<<uint(d-6))]
		}
		twos |= ones & m
		ones |= m
	}
	return ones &^ twos, twos
}

func (c *hypercubeCounter) From(u int32) int32 {
	for d := 0; d < c.dim; d++ {
		if v := u ^ (1 << uint(d)); c.tx.Test(int(v)) {
			return v
		}
	}
	return -1
}

func (c *hypercubeCounter) Sole() int32 { return -1 }

// LayeredModel describes the layered pipeline: source 0, then Layers
// layers of Width vertices each, consecutive layers completely connected
// (and the source connected to all of layer 0). Vertex (l,i) has index
// 1 + l*Width + i.
type LayeredModel struct{ Layers, Width int }

func (m LayeredModel) N() int { return 1 + m.Layers*m.Width }

// layerOf returns the layer of vertex v >= 1.
func (m LayeredModel) layerOf(v int) int { return (v - 1) / m.Width }

func (m LayeredModel) Degree(v int) int {
	if v == 0 {
		return m.Width
	}
	switch l := m.layerOf(v); {
	case l == 0 && m.Layers == 1:
		return 1
	case l == 0:
		return 1 + m.Width
	case l == m.Layers-1:
		return m.Width
	default:
		return 2 * m.Width
	}
}

func (m LayeredModel) HasEdge(u, v int) bool {
	if u == v {
		return false
	}
	if u == 0 {
		return m.layerOf(v) == 0
	}
	if v == 0 {
		return m.layerOf(u) == 0
	}
	d := m.layerOf(u) - m.layerOf(v)
	return d == 1 || d == -1
}

func (m LayeredModel) Edges() int64 {
	w := int64(m.Width)
	return w + int64(m.Layers-1)*w*w
}

func (m LayeredModel) Eccentricity(v int) int {
	if v == 0 {
		return m.Layers
	}
	l := m.layerOf(v)
	ecc := max(l+1, m.Layers-1-l)
	if m.Width > 1 && ecc < 2 {
		ecc = 2 // a same-layer sibling is two hops away
	}
	return ecc
}

func (m LayeredModel) NewTxCounter() TxCounter {
	return &layeredCounter{
		m:     m,
		count: make([]int32, m.Layers),
		first: make([]int32, m.Layers),
	}
}

// layeredCounter aggregates the round's broadcasters per layer in Begin
// (O(#broadcasters + #layers)); every listener's transmitting neighbours
// are then the totals of its adjacent layers — O(1) per layer segment.
type layeredCounter struct {
	m     LayeredModel
	srcTx bool
	count []int32 // broadcasters per layer, capped at 2
	first []int32 // lowest broadcaster id per layer
}

func (c *layeredCounter) Begin(tx *bitset.Set) {
	for l := range c.count {
		c.count[l] = 0
		c.first[l] = -1
	}
	c.srcTx = tx.Test(0)
	words := tx.Words()
	lo, hi := tx.NonzeroRange()
	for wi := lo; wi < hi; wi++ {
		for w := words[wi]; w != 0; w &= w - 1 {
			v := wi*64 + bits.TrailingZeros64(w)
			if v == 0 {
				continue
			}
			l := c.m.layerOf(v)
			if c.count[l] == 0 {
				c.first[l] = int32(v)
			}
			if c.count[l] < 2 {
				c.count[l]++
			}
		}
	}
}

// heard returns the capped transmitting-neighbour count of a vertex in
// layer l: the previous layer (the source for layer 0) plus the next.
func (c *layeredCounter) heard(l int) int32 {
	var k int32
	if l == 0 {
		if c.srcTx {
			k = 1
		}
	} else {
		k = c.count[l-1]
	}
	if l+1 < c.m.Layers {
		k += c.count[l+1]
	}
	return k
}

// Word walks the layer segments that fall inside the word: every vertex
// of a segment hears the same counts.
func (c *layeredCounter) Word(wi int) (unique, collided uint64) {
	s := wi * 64
	end := min(s+64, c.m.N())
	v := s
	if v == 0 {
		if c.m.Layers > 0 {
			switch c.count[0] {
			case 1:
				unique = 1
			case 2:
				collided = 1
			}
		}
		v = 1
	}
	for v < end {
		l := c.m.layerOf(v)
		segEnd := min(1+(l+1)*c.m.Width, end)
		switch m := bitRange(v-s, segEnd-s); c.heard(l) {
		case 0:
		case 1:
			unique |= m
		default:
			collided |= m
		}
		v = segEnd
	}
	return unique, collided
}

func (c *layeredCounter) From(u int32) int32 {
	if u == 0 {
		return c.first[0]
	}
	l := c.m.layerOf(int(u))
	switch {
	case l == 0 && c.srcTx:
		return 0
	case l > 0 && c.count[l-1] > 0:
		return c.first[l-1]
	}
	return c.first[l+1]
}

func (c *layeredCounter) Sole() int32 { return -1 }

// NewImplicit builds a Graph whose adjacency exists only in closed form:
// no CSR arrays, no bit matrix — per-node state is O(1). Such a graph
// supports N, M, Degree, HasEdge, AvgDegree, MaxDegree, Eccentricity,
// Connected and Diameter (all answered by the model); Neighbors, BFS,
// Layers and AdjacencyBits panic, because they exist to expose
// materialized adjacency. The radio layer's implicit engine runs rounds on
// such graphs through the model's TxCounter.
func NewImplicit(m NeighborModel) *Graph {
	if m.N() < 1 {
		panic("graph: NewImplicit needs a model with at least one vertex")
	}
	return &Graph{n: m.N(), model: m}
}

// ImplicitComplete is Complete without materialized adjacency: O(1) state
// per node, for node counts far past the CSR/bit-matrix ceiling.
func ImplicitComplete(n int) Topology {
	if n < 1 {
		panic("graph: Complete needs n >= 1")
	}
	return Topology{G: NewImplicit(CompleteModel{Nodes: n}), Source: 0, Name: fmt.Sprintf("complete(n=%d)", n)}
}

// ImplicitStar is Star without materialized adjacency.
func ImplicitStar(leaves int) Topology {
	if leaves < 1 {
		panic("graph: Star needs at least one leaf")
	}
	return Topology{G: NewImplicit(StarModel{Leaves: leaves}), Source: 0, Name: fmt.Sprintf("star(leaves=%d)", leaves)}
}

// ImplicitPath is Path without materialized adjacency.
func ImplicitPath(n int) Topology {
	if n < 1 {
		panic("graph: Path needs n >= 1")
	}
	return Topology{G: NewImplicit(PathModel{Nodes: n}), Source: 0, Name: fmt.Sprintf("path(n=%d)", n)}
}

// ImplicitCycle is Cycle without materialized adjacency.
func ImplicitCycle(n int) Topology {
	if n < 3 {
		panic("graph: Cycle needs n >= 3")
	}
	return Topology{G: NewImplicit(CycleModel{Nodes: n}), Source: 0, Name: fmt.Sprintf("cycle(n=%d)", n)}
}

// ImplicitGrid is Grid without materialized adjacency.
func ImplicitGrid(rows, cols int) Topology {
	if rows < 1 || cols < 1 {
		panic("graph: Grid needs positive dimensions")
	}
	return Topology{G: NewImplicit(GridModel{Rows: rows, Cols: cols}), Source: 0, Name: fmt.Sprintf("grid(%dx%d)", rows, cols)}
}

// ImplicitHypercube is Hypercube without materialized adjacency.
func ImplicitHypercube(dim int) Topology {
	if dim < 1 || dim > 30 {
		panic("graph: ImplicitHypercube needs 1 <= dim <= 30")
	}
	return Topology{G: NewImplicit(HypercubeModel{Dim: dim}), Source: 0, Name: fmt.Sprintf("hypercube(dim=%d)", dim)}
}

// ImplicitLayered is Layered without materialized adjacency.
func ImplicitLayered(numLayers, width int) Topology {
	if numLayers < 1 || width < 1 {
		panic("graph: Layered needs positive dimensions")
	}
	return Topology{G: NewImplicit(LayeredModel{Layers: numLayers, Width: width}), Source: 0, Name: fmt.Sprintf("layered(D=%d,w=%d)", numLayers, width)}
}
