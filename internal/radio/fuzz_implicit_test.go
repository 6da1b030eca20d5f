package radio

import (
	"reflect"
	"testing"

	"noisyradio/internal/graph"
)

// fuzzModelTopology derives a modelled topology (both storage modes) from
// two fuzz words: kindRaw picks the generator, sizeRaw its dimensions.
func fuzzModelTopology(kindRaw, sizeRaw uint64) (explicit, implicit graph.Topology) {
	switch kindRaw % 7 {
	case 0:
		n := int(sizeRaw%96) + 1
		return graph.Complete(n), graph.ImplicitComplete(n)
	case 1:
		leaves := int(sizeRaw%96) + 1
		return graph.Star(leaves), graph.ImplicitStar(leaves)
	case 2:
		n := int(sizeRaw%96) + 1
		return graph.Path(n), graph.ImplicitPath(n)
	case 3:
		n := int(sizeRaw%96) + 3
		return graph.Cycle(n), graph.ImplicitCycle(n)
	case 4:
		rows := int(sizeRaw%9) + 1
		cols := int(sizeRaw/9%11) + 1
		return graph.Grid(rows, cols), graph.ImplicitGrid(rows, cols)
	case 5:
		dim := int(sizeRaw%6) + 1
		return graph.Hypercube(dim), graph.ImplicitHypercube(dim)
	default:
		layers := int(sizeRaw%8) + 1
		width := int(sizeRaw/8%10) + 1
		return graph.Layered(layers, width), graph.ImplicitLayered(layers, width)
	}
}

// FuzzStepImplicit fuzzes the implicit engine's equivalence contract: on
// an arbitrary modelled topology, fault environment and broadcast
// schedule, the implicit engine — over the explicit CSR graph and over
// the CSR-less implicit twin — must reproduce the sparse reference bit
// for bit through every entry point, rx-only StepSet (the bulk credit
// path) included. The modelled-topology counterpart of
// FuzzStepEngines (whose arbitrary edge lists carry no model).
func FuzzStepImplicit(f *testing.F) {
	f.Add(uint64(1), uint64(0), uint64(40), uint64(0), uint64(0), []byte{0xff, 0x0f})
	f.Add(uint64(7), uint64(3), uint64(17), uint64(1), uint64(30), []byte{0xaa, 0x55, 0x33})
	f.Add(uint64(9), uint64(6), uint64(71), uint64(2), uint64(80), []byte{0x01})
	// modelRaw >= 3 selects the v2 geometric-skip draw contract: seed both
	// models under v2, on the implicit engine's home topologies.
	f.Add(uint64(3), uint64(0), uint64(80), uint64(4), uint64(2), []byte{0x5a, 0xc3})
	f.Add(uint64(4), uint64(4), uint64(55), uint64(5), uint64(40), []byte{0x0f, 0xf0})
	f.Fuzz(func(t *testing.T, seed, kindRaw, sizeRaw, modelRaw, pRaw uint64, sched []byte) {
		explicit, implicit := fuzzModelTopology(kindRaw, sizeRaw)
		n := explicit.G.N()
		cfg := Config{
			Fault: FaultModel(modelRaw%3 + 1),
			P:     float64(pRaw%95) / 100,
			Draw:  DrawContract(modelRaw / 3 % 2),
		}
		rounds := len(sched)
		if rounds < 1 {
			rounds = 1
		}
		if rounds > 24 {
			rounds = 24
		}
		schedule := func(round, v int) bool {
			if len(sched) == 0 {
				return (round+v)%3 == 0
			}
			idx := round*n + v
			return sched[(idx/8)%len(sched)]>>(idx%8)&1 == 1
		}
		ref := executeEngine(t, explicit.G, cfg, Sparse, viaStepSet, seed, rounds, schedule)
		for _, g := range []*graph.Graph{explicit.G, implicit.G} {
			for _, mode := range []stepMode{viaStep, viaStepSet, viaRxOnly} {
				want := ref
				if mode == viaRxOnly {
					want = withoutCallbacks(ref)
				}
				got := executeEngine(t, g, cfg, Implicit, mode, seed, rounds, schedule)
				if want.stats != got.stats {
					t.Fatalf("implicit/%v (csr=%v): stats diverged\nref %+v\ngot %+v", mode, g.HasCSR(), ref.stats, got.stats)
				}
				if !reflect.DeepEqual(want.deliveries, got.deliveries) {
					t.Fatalf("implicit/%v (csr=%v): deliveries diverged: %d vs %d events",
						mode, g.HasCSR(), len(ref.deliveries), len(got.deliveries))
				}
				if !reflect.DeepEqual(want.traces, got.traces) {
					t.Fatalf("implicit/%v (csr=%v): traces diverged", mode, g.HasCSR())
				}
				if !reflect.DeepEqual(want.receivers, got.receivers) {
					t.Fatalf("implicit/%v (csr=%v): per-round receivers diverged", mode, g.HasCSR())
				}
			}
		}
	})
}
