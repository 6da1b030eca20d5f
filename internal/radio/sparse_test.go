package radio

import (
	"fmt"
	"testing"

	"noisyradio/internal/bitset"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// bitmapConfigs are the receiver-fault environments the bitmap-window
// tests sweep: the per-site v1 contract and the v2 geometric skip, whose
// draws both follow the ascending listener order the bitmap walk yields.
var bitmapConfigs = []Config{
	{Fault: ReceiverFaults, P: 0.3},
	{Fault: ReceiverFaults, P: 0.3, Draw: DrawV2},
}

// TestDifferentialSparseBitmapWindow drives the sparse engine's
// touched-listener bitmap across word boundaries (n = 63, 64, 65, 127,
// 129) and with large touched sets — a star whose hub broadcasts every
// round, a WCT of about 4096 nodes, sparse GNP(4096) — and requires the
// scalar sparse path, and every lane of the batch sparse path, to match
// the dense engine bit for bit.
func TestDifferentialSparseBitmapWindow(t *testing.T) {
	type tcase struct {
		top    graph.Topology
		hub    int // broadcasts every round when >= 0
		txProb float64
	}
	var cases []tcase
	for _, n := range []int{63, 64, 65, 127, 129} {
		top := graph.GNP(n, 0.08, rng.New(uint64(n)))
		cases = append(cases, tcase{top, -1, 0.05}, tcase{top, -1, 0.3})
	}
	wct := graph.NewWCT(graph.DefaultWCTParams(4096), rng.New(12))
	cases = append(cases,
		tcase{graph.Star(4096), 0, 0.05},
		tcase{graph.Topology{G: wct.G, Source: wct.Source, Name: fmt.Sprintf("wct(n=%d)", wct.G.N())}, -1, 0.1},
		tcase{graph.GNP(4096, 8.0/4096, rng.New(13)), -1, 0.1},
	)
	const rounds = 16
	for _, c := range cases {
		sched := batchSchedule(77, c.txProb)
		if c.hub >= 0 {
			base := sched
			sched = func(lane, round, v int) bool { return v == c.hub || base(lane, round, v) }
		}
		lane0 := func(round, v int) bool { return sched(0, round, v) }
		for _, cfg := range bitmapConfigs {
			name := fmt.Sprintf("%s/draw %v/txProb=%v", c.top.Name, cfg.Draw, c.txProb)
			want := executeEngine(t, c.top.G, cfg, Dense, viaStepSet, 42, rounds, lane0)
			got := executeEngine(t, c.top.G, cfg, Sparse, viaStepSet, 42, rounds, lane0)
			requireIdentical(t, name+"/scalar", want, got)

			const w = 4
			roundsFor := func(lane int) int { return rounds - 2*lane }
			lanes := executeBatchLanes(t, c.top.G, cfg, Sparse, 42, w, roundsFor, sched)
			for l := 0; l < w; l++ {
				ref := executeScalarLane(t, c.top.G, cfg, Dense, 42, l, roundsFor(l), sched)
				requireLaneIdentical(t, fmt.Sprintf("%s/batch lane=%d", name, l), ref, lanes[l])
			}
		}
	}
}

// resetTopologies are the graphs the abandoned-round Reset tests run on:
// a star whose hub's broadcast touches every leaf (so the abandoned round
// leaves several bitmap words untaken) and a sparse random graph.
func resetTopologies() []graph.Topology {
	return []graph.Topology{graph.Star(200), graph.GNP(300, 0.03, rng.New(4))}
}

// abandonRound runs rounds until one has a deliver callback panic on its
// third delivery, as a caller's bug would, and recovers: the network is
// left mid-resolve, with neighbour counts, bitmap words, draw state and
// trace buffers half processed. (A round can fall short of three
// deliveries, e.g. when a sender fault silences a star's hub.)
func abandonRound(t *testing.T, name string, step func(deliver func())) {
	t.Helper()
	for attempt := 0; attempt < 20; attempt++ {
		delivered := 0
		panicked := func() (p bool) {
			defer func() { p = recover() != nil }()
			step(func() {
				if delivered++; delivered == 3 {
					panic("deliver failed")
				}
			})
			return false
		}()
		if panicked {
			return
		}
	}
	t.Fatalf("%s: no round reached a third delivery", name)
}

// TestResetAfterAbandonedRound: Reset after a round abandoned mid-resolve
// must leave a network that behaves exactly like a fresh New one —
// deliveries, stats, traces and rx sets — on every engine.
func TestResetAfterAbandonedRound(t *testing.T) {
	for _, top := range resetTopologies() {
		n := top.G.N()
		tx := bitset.New(n)
		for v := 0; v < n; v += 3 {
			tx.Set(v)
		}
		payload := make([]int32, n)
		engines := []Engine{Sparse, Dense}
		if top.G.NeighborModel() != nil {
			engines = append(engines, Implicit)
		}
		for _, eng := range engines {
			for _, cfg := range append(bitmapConfigs, Config{Fault: SenderFaults, P: 0.3}) {
				name := fmt.Sprintf("%s/%v/%v/draw %v", top.Name, eng, cfg.Fault, cfg.Draw)
				want := runEngine(t, top.G, cfg, eng, viaStepSet, 42, 77, 20, 0.1)

				cfg.Engine = eng
				net := MustNew[int32](top.G, cfg, rng.New(999))
				net.SetTrace(func(int, []int32, []int32) {})
				net.StepSet(tx, payload, nil, nil)
				abandonRound(t, name, func(deliver func()) {
					net.StepSet(tx, payload, nil, func(Delivery[int32]) { deliver() })
				})
				net.Reset(rng.New(42))
				driver := rng.New(77)
				got := executeOn(t, net, viaStepSet, 20, func(round, v int) bool { return driver.Bool(0.1) })
				requireIdentical(t, name, want, got)
			}
		}
	}
}

// TestBatchResetAfterAbandonedRound is the batch twin: a StepBatch round
// abandoned mid-lane, then Reset, must reproduce a fresh batch network
// lane for lane.
func TestBatchResetAfterAbandonedRound(t *testing.T) {
	const w = 3
	for _, top := range resetTopologies() {
		n := top.G.N()
		tx := bitset.NewBlock(n, w)
		for l := 0; l < w; l++ {
			for v := 0; v < n; v += 3 + l {
				tx.Set(l, v)
			}
		}
		for _, eng := range []Engine{Sparse, Dense} {
			for _, cfg := range bitmapConfigs {
				name := fmt.Sprintf("%s/%v/draw %v", top.Name, eng, cfg.Draw)
				sched := batchSchedule(9, 0.1)
				roundsFor := func(int) int { return 20 }
				want := executeBatchLanes(t, top.G, cfg, eng, 5, w, roundsFor, sched)

				cfg.Engine = eng
				dirty := []*rng.Stream{rng.New(997), rng.New(998), rng.New(999)}
				net := MustNewBatch[int32](top.G, cfg, dirty)
				abandonRound(t, name, func(deliver func()) {
					net.StepBatch(tx, nil, nil, 1<<w-1, func(int, Delivery[int32]) { deliver() })
				})
				rnds := make([]*rng.Stream, w)
				for l := range rnds {
					rnds[l] = rng.NewFrom(5, uint64(l))
				}
				net.Reset(rnds)
				got := executeBatchOn(t, net, rnds, roundsFor, sched)
				for l := 0; l < w; l++ {
					requireLaneIdentical(t, fmt.Sprintf("%s/lane=%d", name, l), want[l], got[l])
				}
			}
		}
	}
}
