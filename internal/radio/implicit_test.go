package radio

import (
	"fmt"
	"testing"

	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// The implicit-engine differential suite: on every topology with a
// closed-form neighbourhood model, the implicit engine — on the explicit
// CSR graph and on the CSR-less implicit twin — must reproduce the sparse
// reference bit for bit, scalar and batched, through both entry points.

// implicitPair is one closed-form topology in both storage modes.
type implicitPair struct {
	name               string
	explicit, implicit graph.Topology
}

// implicitPairs covers every modelled generator, sized to exercise the
// counters' structural cases (hub/leaf, layer boundaries, wrap-around,
// grid corners, word boundaries at n = 64).
func implicitPairs() []implicitPair {
	return []implicitPair{
		{"complete", graph.Complete(70), graph.ImplicitComplete(70)},
		{"star", graph.Star(50), graph.ImplicitStar(50)},
		{"path", graph.Path(65), graph.ImplicitPath(65)},
		{"cycle", graph.Cycle(64), graph.ImplicitCycle(64)},
		{"grid", graph.Grid(7, 9), graph.ImplicitGrid(7, 9)},
		{"hypercube", graph.Hypercube(6), graph.ImplicitHypercube(6)},
		{"layered", graph.Layered(5, 8), graph.ImplicitLayered(5, 8)},
	}
}

// TestDifferentialImplicitAcrossTopologies proves the implicit engine
// bit-identical to the sparse reference on every modelled topology and in
// both storage modes, across the fault environments (faultless, sender
// and receiver faults, draw contracts v1–v4) and every entry point —
// including rx-only StepSet, where whole words may be credited in bulk.
func TestDifferentialImplicitAcrossTopologies(t *testing.T) {
	for _, pair := range implicitPairs() {
		for _, cfg := range diffConfigs(pair.explicit.G.N()) {
			for _, txProb := range []float64{0.05, 0.3, 0.8} {
				ref := runEngine(t, pair.explicit.G, cfg, Sparse, viaStepSet, 42, 77, 60, txProb)
				for _, mode := range []stepMode{viaStep, viaStepSet, viaRxOnly} {
					want := ref
					if mode == viaRxOnly {
						want = withoutCallbacks(ref)
					}
					name := fmt.Sprintf("%s/%s/draw %v/implicit/%v txProb=%v", pair.name, cfg.Fault, cfg.Draw, mode, txProb)
					got := runEngine(t, pair.explicit.G, cfg, Implicit, mode, 42, 77, 60, txProb)
					requireIdentical(t, name, want, got)
					got = runEngine(t, pair.implicit.G, cfg, Implicit, mode, 42, 77, 60, txProb)
					requireIdentical(t, name+" (implicit graph)", want, got)
				}
			}
		}
	}
}

// TestImplicitBatchMatchesScalar is the batch-plane counterpart: every
// lane of an implicit StepBatch run — including early-deactivating lanes
// — reproduces its scalar trial draw for draw, on both storage modes, with
// a deliver callback and rx-only (the bulk credit path).
func TestImplicitBatchMatchesScalar(t *testing.T) {
	for _, pair := range implicitPairs() {
		for _, cfg := range diffConfigs(pair.explicit.G.N()) {
			for _, w := range []int{1, 3, 8} {
				const rounds = 30
				roundsFor := func(lane int) int { return rounds - 3*lane }
				sched := batchSchedule(77, 0.25)
				for _, g := range []*graph.Graph{pair.explicit.G, pair.implicit.G} {
					got := executeBatchLanes(t, g, cfg, Implicit, 42, w, roundsFor, sched)
					rxOnly := executeBatchLanesRxOnly(t, g, cfg, Implicit, 42, w, roundsFor, sched)
					for l := 0; l < w; l++ {
						name := fmt.Sprintf("%s/%s/draw %v/implicit/w=%d/lane=%d (csr=%v)", pair.name, cfg.Fault, cfg.Draw, w, l, g.HasCSR())
						want := executeScalarLane(t, pair.explicit.G, cfg, Sparse, 42, l, roundsFor(l), sched)
						requireLaneIdentical(t, name, want, got[l])
						want.deliveries = nil
						requireLaneIdentical(t, name+" rx-only", want, rxOnly[l])
					}
				}
			}
		}
	}
}

// TestEngineFallback locks in the fallback semantics of forced engines:
// an engine the graph cannot support resolves to the Auto choice instead
// of failing, so suite-wide -engine overrides run mixed workloads.
func TestEngineFallback(t *testing.T) {
	implicitG := graph.ImplicitComplete(128).G
	modelless := graph.GNP(128, 0.5, rng.New(3)).G // dense, no model
	sparseModelless := graph.BinaryTree(5).G       // sparse, no model
	for _, tc := range []struct {
		name   string
		g      *graph.Graph
		forced Engine
		want   Engine
	}{
		{"sparse-on-implicit-graph", implicitG, Sparse, Implicit},
		{"dense-on-implicit-graph", implicitG, Dense, Implicit},
		{"implicit-on-implicit-graph", implicitG, Implicit, Implicit},
		{"auto-on-implicit-graph", implicitG, Auto, Implicit},
		{"implicit-on-dense-modelless", modelless, Implicit, Dense},
		{"implicit-on-sparse-modelless", sparseModelless, Implicit, Sparse},
		{"implicit-on-modelled-csr", graph.Complete(70).G, Implicit, Implicit},
	} {
		cfg := Config{Fault: Faultless, Engine: tc.forced}
		if got := cfg.ResolveEngine(tc.g); got != tc.want {
			t.Errorf("%s: ResolveEngine = %v, want %v", tc.name, got, tc.want)
		}
		if got := MustNew[int32](tc.g, cfg, rng.New(1)).Engine(); got != tc.want {
			t.Errorf("%s: New resolved %v, want %v", tc.name, got, tc.want)
		}
		rnds := []*rng.Stream{rng.New(1), rng.New(2)}
		if got := MustNewBatch[int32](tc.g, cfg, rnds).Engine(); got != tc.want {
			t.Errorf("%s: NewBatch resolved %v, want %v", tc.name, got, tc.want)
		}
	}
}

// TestAutoUpgradesDenseToImplicit checks the Auto rule's n ≥ 4096
// upgrade: a dense modelled graph past the bit-matrix cache ceiling runs
// implicitly, while the same shape below the ceiling keeps Dense.
func TestAutoUpgradesDenseToImplicit(t *testing.T) {
	auto := Config{}
	if got := auto.ResolveEngine(graph.Complete(implicitMinN).G); got != Implicit {
		t.Errorf("Complete(%d): auto = %v, want %v", implicitMinN, got, Implicit)
	}
	if got := auto.ResolveEngine(graph.Complete(512).G); got != Dense {
		t.Errorf("Complete(512): auto = %v, want %v", got, Dense)
	}
	// Modelled but sparse-leaning topologies stay sparse at any size:
	// O(Σ deg) per round beats the implicit engine's O(n/64) words plus
	// per-listener resolutions.
	if got := auto.ResolveEngine(graph.Path(8192).G); got != Sparse {
		t.Errorf("Path(8192): auto = %v, want %v", got, Sparse)
	}
}
