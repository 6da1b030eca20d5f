package broadcast

import (
	"fmt"
	"testing"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// The batch equivalence suite: every trial-batched entry point must
// reproduce its scalar twin result-for-result when handed the same
// per-trial streams — at width 1 (the scalar fallback), at widths that
// divide nothing evenly, and across engines and fault models. This is the
// contract that lets the sweep scheduler swap batch execution in and out
// without moving a single table cell.

// trialStreams derives the per-trial streams exactly as the sweep does.
func trialStreams(seed uint64, start, w int) []*rng.Stream {
	rnds := make([]*rng.Stream, w)
	for i := range rnds {
		rnds[i] = rng.NewFrom(seed, uint64(start+i))
	}
	return rnds
}

// batchConfigs is the fault/engine grid the equivalence tests sweep.
func batchConfigs() []radio.Config {
	var out []radio.Config
	for _, eng := range []radio.Engine{radio.Sparse, radio.Dense} {
		out = append(out,
			radio.Config{Fault: radio.Faultless, Engine: eng},
			radio.Config{Fault: radio.SenderFaults, P: 0.3, Engine: eng},
			radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: eng},
		)
	}
	return out
}

// requireBatchEqualsScalar runs scalar trials [0, trials) and the batch
// entry over the same streams (in sub-batches of width w) and requires
// identical results.
func requireBatchEqualsScalar[R comparable](t *testing.T, name string, trials, w int,
	scalar func(r *rng.Stream) (R, error),
	batch func(rnds []*rng.Stream) ([]R, error)) {
	t.Helper()
	want := make([]R, trials)
	for i := range want {
		res, err := scalar(rng.NewFrom(77, uint64(i)))
		if err != nil {
			t.Fatalf("%s: scalar trial %d: %v", name, i, err)
		}
		want[i] = res
	}
	for start := 0; start < trials; start += w {
		width := w
		if start+width > trials {
			width = trials - start
		}
		got, err := batch(trialStreams(77, start, width))
		if err != nil {
			t.Fatalf("%s: batch [%d,%d): %v", name, start, start+width, err)
		}
		if len(got) != width {
			t.Fatalf("%s: batch returned %d results for %d streams", name, len(got), width)
		}
		for i, res := range got {
			if res != want[start+i] {
				t.Fatalf("%s: trial %d diverged (width %d)\nbatch:  %+v\nscalar: %+v",
					name, start+i, width, res, want[start+i])
			}
		}
	}
}

func TestSingleMessageBatchEqualsScalar(t *testing.T) {
	tops := []graph.Topology{
		graph.Path(48),
		graph.Lollipop(5, 40),
		graph.GNP(60, 0.15, rng.New(4)),
	}
	for _, top := range tops {
		for _, cfg := range batchConfigs() {
			opts := Options{}
			label := fmt.Sprintf("%s/%s/%s", top.Name, cfg.Fault, cfg.Engine)
			requireBatchEqualsScalar(t, "decay/"+label, 7, 3,
				func(r *rng.Stream) (Result, error) { return Decay(top, cfg, r, opts) },
				func(rnds []*rng.Stream) ([]Result, error) { return DecayBatch(top, cfg, rnds, opts) })
			requireBatchEqualsScalar(t, "unknown-n/"+label, 5, 5,
				func(r *rng.Stream) (Result, error) { return DecayUnknownN(top, cfg, r, opts) },
				func(rnds []*rng.Stream) ([]Result, error) { return DecayUnknownNBatch(top, cfg, rnds, opts) })
			requireBatchEqualsScalar(t, "fastbc/"+label, 6, 4,
				func(r *rng.Stream) (Result, error) { return FASTBC(top, cfg, r, opts) },
				func(rnds []*rng.Stream) ([]Result, error) { return FASTBCBatch(top, cfg, rnds, opts) })
			requireBatchEqualsScalar(t, "robust/"+label, 6, 4,
				func(r *rng.Stream) (Result, error) { return RobustFASTBC(top, cfg, r, opts, RobustParams{}) },
				func(rnds []*rng.Stream) ([]Result, error) {
					return RobustFASTBCBatch(top, cfg, rnds, opts, RobustParams{})
				})
		}
	}
}

// Lanes that hit the round cap must report the capped result identically.
func TestSingleMessageBatchCappedLanes(t *testing.T) {
	top := graph.Path(64)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.6}
	opts := Options{MaxRounds: 30} // far too few rounds to finish
	requireBatchEqualsScalar(t, "decay-capped", 6, 3,
		func(r *rng.Stream) (Result, error) { return Decay(top, cfg, r, opts) },
		func(rnds []*rng.Stream) ([]Result, error) { return DecayBatch(top, cfg, rnds, opts) })
}

func TestPipelinedBatchRoutingBatchEqualsScalar(t *testing.T) {
	tops := []graph.Topology{
		graph.Path(24),
		graph.Grid(5, 6),
	}
	for _, top := range tops {
		for _, cfg := range []radio.Config{
			{Fault: radio.ReceiverFaults, P: 0.3},
			{Fault: radio.Faultless, Engine: radio.Dense},
		} {
			label := fmt.Sprintf("%s/%s/%s", top.Name, cfg.Fault, cfg.Engine)
			requireBatchEqualsScalar(t, "pipelined-batch/"+label, 4, 2,
				func(r *rng.Stream) (MultiResult, error) { return PipelinedBatchRouting(top, 4, cfg, r, Options{}) },
				func(rnds []*rng.Stream) ([]MultiResult, error) {
					return PipelinedBatchRoutingBatch(top, 4, cfg, rnds, Options{})
				})
		}
	}
}

func TestSequentialDecayBatchEqualsScalar(t *testing.T) {
	top := graph.Path(32)
	for _, cfg := range []radio.Config{
		{Fault: radio.Faultless},
		{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Dense},
	} {
		label := fmt.Sprintf("%s/%s", cfg.Fault, cfg.Engine)
		requireBatchEqualsScalar(t, "sequential-decay/"+label, 5, 3,
			func(r *rng.Stream) (MultiResult, error) { return SequentialDecayRouting(top, cfg, 3, r, Options{}) },
			func(rnds []*rng.Stream) ([]MultiResult, error) {
				return SequentialDecayRoutingBatch(top, cfg, 3, rnds, Options{})
			})
		// Capped: some messages cannot finish.
		capped := Options{MaxRounds: 40}
		requireBatchEqualsScalar(t, "sequential-decay-capped/"+label, 4, 2,
			func(r *rng.Stream) (MultiResult, error) { return SequentialDecayRouting(top, cfg, 5, r, capped) },
			func(rnds []*rng.Stream) ([]MultiResult, error) {
				return SequentialDecayRoutingBatch(top, cfg, 5, rnds, capped)
			})
	}
}

func TestRLNCBatchEqualsScalar(t *testing.T) {
	top := graph.GNP(28, 0.2, rng.New(6))
	const k, payloadLen = 4, 6
	for _, pattern := range []RLNCPattern{RLNCDecay, RLNCRobustFASTBC} {
		for _, cfg := range []radio.Config{
			{Fault: radio.ReceiverFaults, P: 0.3},
			{Fault: radio.SenderFaults, P: 0.3, Engine: radio.Dense},
		} {
			label := fmt.Sprintf("%s/%s/%s", pattern, cfg.Fault, cfg.Engine)
			// The scalar trial draws its messages from the trial stream
			// before broadcasting — the batch path must preserve that
			// per-lane draw order exactly.
			requireBatchEqualsScalar(t, "rlnc/"+label, 5, 3,
				func(r *rng.Stream) (MultiResult, error) {
					msgs := RandomMessages(k, payloadLen, r)
					res, _, err := RLNCBroadcast(top, cfg, msgs, pattern, r, RLNCOptions{})
					return res, err
				},
				func(rnds []*rng.Stream) ([]MultiResult, error) {
					messages := make([][][]byte, len(rnds))
					for i, r := range rnds {
						messages[i] = RandomMessages(k, payloadLen, r)
					}
					return RLNCBroadcastBatch(top, cfg, messages, pattern, rnds, RLNCOptions{})
				})
		}
	}
}

// A single-node topology never executes a round in the scalar RLNC loop
// (the source already decoded everything); the batch path must match that
// exactly — zero rounds, zero channel work, untouched streams.
func TestRLNCBatchSingleNodeMatchesScalar(t *testing.T) {
	b := graph.NewBuilder(1)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	top := graph.Topology{G: g, Source: 0, Name: "single"}
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	requireBatchEqualsScalar(t, "rlnc-single-node", 4, 2,
		func(r *rng.Stream) (MultiResult, error) {
			msgs := RandomMessages(2, 4, r)
			res, _, err := RLNCBroadcast(top, cfg, msgs, RLNCDecay, r, RLNCOptions{})
			return res, err
		},
		func(rnds []*rng.Stream) ([]MultiResult, error) {
			messages := make([][][]byte, len(rnds))
			for i, r := range rnds {
				messages[i] = RandomMessages(2, 4, r)
			}
			return RLNCBroadcastBatch(top, cfg, messages, RLNCDecay, rnds, RLNCOptions{})
		})
}
