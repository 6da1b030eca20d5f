package broadcast

import (
	"fmt"
	"testing"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// TestDecayTrialAllocsIndependentOfN pins the single-message runner's
// reuse: once the network and informed-set pools are warm, a Decay trial
// on an implicit complete graph allocates the same small constant at
// n = 4096 and at n = 16384 — nothing per node and nothing per round.
func TestDecayTrialAllocsIndependentOfN(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	const maxAllocs = 8
	for _, cfg := range []radio.Config{
		{Fault: radio.Faultless},
		{Fault: radio.SenderFaults, P: 0.1},
		{Fault: radio.ReceiverFaults, P: 0.1},
	} {
		var perN []float64
		for _, n := range []int{4096, 16384} {
			top := graph.ImplicitComplete(n)
			r := rng.New(7)
			trial := func() {
				if _, err := Decay(top, cfg, r, Options{}); err != nil {
					t.Fatal(err)
				}
			}
			for i := 0; i < 3; i++ {
				trial() // warm the pools
			}
			perN = append(perN, testing.AllocsPerRun(20, trial))
		}
		t.Logf("%v: %v allocs per trial", cfg.Fault, perN)
		if perN[0] != perN[1] || perN[0] > maxAllocs {
			t.Errorf("%v: allocs per Decay trial = %v at n = 4096/16384, want one constant <= %d", cfg.Fault, perN, maxAllocs)
		}
	}
}

// TestPooledRunnerInterleavedSizesMatchSequential catches a pooled runner
// that leaks informed bits or list entries between trials: Decay trials
// interleaved across sizes — some capped short so they end with a
// partial informed set — from a non-zero source and under every draw
// contract return exactly the Results of the same trials run one size at
// a time on fresh state.
func TestPooledRunnerInterleavedSizesMatchSequential(t *testing.T) {
	sizes := []int{4096, 5000, 8192}
	const trials = 4
	opts := func(i int) Options {
		if i%2 == 1 {
			return Options{MaxRounds: 3}
		}
		return Options{}
	}
	for _, dc := range radio.DrawContracts() {
		for _, fault := range []radio.FaultModel{radio.SenderFaults, radio.ReceiverFaults} {
			cfg := radio.Config{Fault: fault, P: 0.2, Draw: dc}
			tops := make([]graph.Topology, len(sizes))
			for k, n := range sizes {
				tops[k] = graph.Topology{G: graph.ImplicitComplete(n).G, Source: 17, Name: fmt.Sprintf("complete(n=%d)", n)}
			}
			run := func(k, i int) Result {
				res, err := Decay(tops[k], cfg, rng.NewFrom(99, uint64(k*trials+i)), opts(i))
				if err != nil {
					t.Fatal(err)
				}
				return res
			}
			// The reference: one size at a time, every trial on a freshly
			// allocated runner state.
			want := make([][]Result, len(sizes))
			for k, n := range sizes {
				for i := 0; i < trials; i++ {
					runnerStates.Delete(n)
					want[k] = append(want[k], run(k, i))
				}
			}
			// Interleaved, in reverse trial order, so every pooled state
			// arrives from a different predecessor than in the reference.
			for i := trials - 1; i >= 0; i-- {
				for k := range sizes {
					if got := run(k, i); got != want[k][i] {
						t.Fatalf("%v/%v n=%d trial %d: interleaved %+v, sequential %+v", dc, fault, sizes[k], i, got, want[k][i])
					}
				}
			}
		}
	}
}
