// The first-class Schedule API: every broadcast schedule of the paper is
// one registry entry carrying its name, paper reference, result kind and
// its scalar runner. Callers — the experiment runners, the throughput
// harness, cmd/noisysim and the public facade — select a schedule by name
// and Run it; whether a set of trials executes scalar or as a W-wide
// lockstep batch is an execution-plan detail (see sim.Sweep.AddSchedule),
// not a caller-visible API fork. The registry mirrors experiments.Registry:
// one entry per schedule, discoverable, and backed by the shared
// marker-interface (single-message) and multiLane (multi-message)
// machinery that guarantees scalar and batch execution are identical by
// construction.
//
// Only the schedules that run on the caller's topology carry a lockstep
// trial-batched twin: decay, decay-unknown-n, fastbc, robust-fastbc, rlnc,
// sequential-decay-routing and pipelined-batch-routing. Their topology can
// resolve to the dense engine under radio.Auto, the only engine
// radio.PlanBatchWidth batches. The star, WCT, single-link and path
// schedules build their own graphs, which are sparse by construction, so
// the planner always runs them scalar and they have no twin (Batched
// reports false); RunBatch runs Run once per stream for them.
package broadcast

import (
	"fmt"
	"sort"

	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// ScheduleKind distinguishes the result shapes of the registry.
type ScheduleKind int

const (
	// SingleMessage schedules broadcast one message; Outcome.Done counts
	// informed nodes.
	SingleMessage ScheduleKind = iota + 1
	// MultiMessage schedules broadcast K messages; Outcome.Done counts
	// nodes holding (or having decoded) all K.
	MultiMessage
)

// String returns a short human-readable kind name.
func (k ScheduleKind) String() string {
	switch k {
	case SingleMessage:
		return "single-message"
	case MultiMessage:
		return "multi-message"
	default:
		return fmt.Sprintf("ScheduleKind(%d)", int(k))
	}
}

// ScheduleParams is the union of schedule-specific parameters. Every entry
// documents which fields it reads; unread fields are ignored, and the zero
// value selects each schedule's defaults. Schedules that synthesise their
// own topology (stars, the single link, the pipelined paths) ignore the
// topology passed to Run.
type ScheduleParams struct {
	// K is the message count of the multi-message schedules.
	K int
	// Leaves sizes the star schedules' topology.
	Leaves int
	// PathLen sizes the path-pipeline and transformed-path schedules.
	PathLen int
	// Repeats is the per-message repetition count of the non-adaptive
	// single-link schedule; <= 0 selects DefaultSingleLinkRepeats(K, cfg.P).
	Repeats int
	// WCT is the worst-case topology instance of the WCT schedules.
	WCT *graph.WCT
	// Pattern selects the RLNC broadcast pattern; 0 selects RLNCDecay.
	Pattern RLNCPattern
	// PayloadLen is the RLNC message payload length in bytes; <= 0
	// selects 8 (the experiments' O(log nk)-bit message stand-in).
	PayloadLen int
	// Robust tunes Robust FASTBC.
	Robust RobustParams
	// Transform tunes the Lemma 25/26 meta-round transformations.
	Transform TransformParams
	// RLNC tunes coded multi-message broadcast.
	RLNC RLNCOptions
	// Options tunes round caps and tracing.
	Options Options
}

func (p ScheduleParams) pattern() RLNCPattern {
	if p.Pattern == 0 {
		return RLNCDecay
	}
	return p.Pattern
}

func (p ScheduleParams) payloadLen() int {
	if p.PayloadLen <= 0 {
		return 8
	}
	return p.PayloadLen
}

// Outcome is the unified result of one schedule execution.
type Outcome struct {
	// Rounds is the number of rounds executed until success or the cap.
	Rounds int
	// Success reports whether the broadcast completed before the cap.
	Success bool
	// Done counts the nodes that finished: informed nodes for
	// single-message schedules, nodes holding all K messages for
	// multi-message ones.
	Done int
	// Channel holds channel-level accounting from the radio engine.
	Channel radio.Stats
}

// AsResult converts a single-message outcome back to the legacy Result.
func (o Outcome) AsResult() Result {
	return Result{Rounds: o.Rounds, Success: o.Success, Informed: o.Done, Channel: o.Channel}
}

// AsMultiResult converts a multi-message outcome back to the legacy
// MultiResult.
func (o Outcome) AsMultiResult() MultiResult {
	return MultiResult{Rounds: o.Rounds, Success: o.Success, Done: o.Done, Channel: o.Channel}
}

func singleOutcome(r Result) Outcome {
	return Outcome{Rounds: r.Rounds, Success: r.Success, Done: r.Informed, Channel: r.Channel}
}

func multiOutcome(r MultiResult) Outcome {
	return Outcome{Rounds: r.Rounds, Success: r.Success, Done: r.Done, Channel: r.Channel}
}

func singleOutcomes(rs []Result, err error) ([]Outcome, error) {
	if err != nil {
		return nil, err
	}
	out := make([]Outcome, len(rs))
	for i, r := range rs {
		out[i] = singleOutcome(r)
	}
	return out, nil
}

func multiOutcomes(rs []MultiResult, err error) ([]Outcome, error) {
	if err != nil {
		return nil, err
	}
	out := make([]Outcome, len(rs))
	for i, r := range rs {
		out[i] = multiOutcome(r)
	}
	return out, nil
}

// Schedule is one registered broadcast schedule: metadata plus its
// scalar runner and, for topology-taking schedules, a lockstep batch twin.
// Values are obtained from Schedules or LookupSchedule and are immutable.
type Schedule struct {
	// Name is the registry key, e.g. "decay" or "star-coding".
	Name string
	// Ref is the paper reference the schedule reproduces.
	Ref string
	// Kind is the result shape (single- or multi-message).
	Kind ScheduleKind

	// scalarName/batchName are the exported function names the entry wraps
	// (batchName is empty for an entry without a twin); the registry
	// completeness test checks every schedule-shaped exported function of
	// the package appears in exactly one entry.
	scalarName, batchName string

	// planTop returns the topology the schedule actually runs on (the
	// passed topology, or the entry's synthesised one), for execution
	// planners that need to resolve the radio engine before running. A
	// zero topology means "unknown".
	planTop func(top graph.Topology, p ScheduleParams) graph.Topology

	run      func(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error)
	runBatch func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Outcome, error) // nil: no twin
}

// Run executes one trial of the schedule under the given randomness —
// exactly the underlying scalar function (same draws, same rounds, same
// statistics), with the outcome in unified form.
func (s *Schedule) Run(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
	return s.run(top, cfg, r, p)
}

// RunBatch executes one independent trial per stream in rnds, in lockstep
// on a trial-batched radio network where the schedule has a twin and the
// width is profitable, otherwise by running Run once per stream; outcome i
// is identical to Run over rnds[i] (the batch twins' contract, enforced by
// the package tests).
func (s *Schedule) RunBatch(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Outcome, error) {
	if s.runBatch != nil {
		return s.runBatch(top, cfg, rnds, p)
	}
	out := make([]Outcome, len(rnds))
	for i, r := range rnds {
		o, err := s.run(top, cfg, r, p)
		if err != nil {
			return nil, err
		}
		out[i] = o
	}
	return out, nil
}

// Batched reports whether the schedule has a lockstep trial-batched twin.
// Execution planners run a schedule without one scalar at every width.
func (s *Schedule) Batched() bool { return s.runBatch != nil }

// PlanTopology returns the topology the schedule would execute on given
// these arguments: the passed topology for topology-taking schedules, the
// synthesised one (star, single link, pipelined path) otherwise. Execution
// planners use it to resolve the radio engine without running anything; a
// zero topology (nil graph) means the answer is unknown.
func (s *Schedule) PlanTopology(top graph.Topology, p ScheduleParams) graph.Topology {
	return s.planTop(top, p)
}

// passedTop is the planTop of schedules that run on the caller's topology.
func passedTop(top graph.Topology, _ ScheduleParams) graph.Topology { return top }

// singleEntry builds a registry entry for a single-message schedule pair.
func singleEntry(name, ref string, scalarName, batchName string,
	run func(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Result, error),
	batch func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Result, error)) *Schedule {
	return &Schedule{
		Name: name, Ref: ref, Kind: SingleMessage,
		scalarName: scalarName, batchName: batchName,
		planTop: passedTop,
		run: func(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
			res, err := run(top, cfg, r, p)
			if err != nil {
				return Outcome{}, err
			}
			return singleOutcome(res), nil
		},
		runBatch: func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Outcome, error) {
			return singleOutcomes(batch(top, cfg, rnds, p))
		},
	}
}

// multiEntry builds a registry entry for a multi-message schedule; batch
// (and batchName) are nil/empty for a schedule without a twin.
func multiEntry(name, ref string, scalarName, batchName string,
	planTop func(top graph.Topology, p ScheduleParams) graph.Topology,
	run func(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error),
	batch func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]MultiResult, error)) *Schedule {
	s := &Schedule{
		Name: name, Ref: ref, Kind: MultiMessage,
		scalarName: scalarName, batchName: batchName,
		planTop: planTop,
		run: func(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Outcome, error) {
			res, err := run(top, cfg, r, p)
			if err != nil {
				return Outcome{}, err
			}
			return multiOutcome(res), nil
		},
	}
	if batch != nil {
		s.runBatch = func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Outcome, error) {
			return multiOutcomes(batch(top, cfg, rnds, p))
		}
	}
	return s
}

// resolveRepeats applies the Lemma 29 default repetition count to the
// zero value; negative values pass through so the schedule's own
// validation rejects them.
func resolveRepeats(p ScheduleParams, cfg radio.Config) int {
	if p.Repeats != 0 {
		return p.Repeats
	}
	return DefaultSingleLinkRepeats(p.K, cfg.P)
}

// schedules is the registry, one entry per broadcast schedule, in paper
// order: the single-message algorithms of Section 4.1, coded and naive
// multi-message broadcast of Section 4.2, then the throughput-gap routing
// and coding schedules of Section 5 and the appendices.
var schedules = []*Schedule{
	singleEntry("decay", "Lemmas 6/9", "Decay", "DecayBatch",
		func(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Result, error) {
			return Decay(top, cfg, r, p.Options)
		},
		func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Result, error) {
			return DecayBatch(top, cfg, rnds, p.Options)
		}),
	singleEntry("decay-unknown-n", "Lemma 9 extension (unknown n)", "DecayUnknownN", "DecayUnknownNBatch",
		func(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Result, error) {
			return DecayUnknownN(top, cfg, r, p.Options)
		},
		func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Result, error) {
			return DecayUnknownNBatch(top, cfg, rnds, p.Options)
		}),
	singleEntry("fastbc", "Lemmas 8/10", "FASTBC", "FASTBCBatch",
		func(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Result, error) {
			return FASTBC(top, cfg, r, p.Options)
		},
		func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Result, error) {
			return FASTBCBatch(top, cfg, rnds, p.Options)
		}),
	singleEntry("robust-fastbc", "Theorem 11", "RobustFASTBC", "RobustFASTBCBatch",
		func(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (Result, error) {
			return RobustFASTBC(top, cfg, r, p.Options, p.Robust)
		},
		func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]Result, error) {
			return RobustFASTBCBatch(top, cfg, rnds, p.Options, p.Robust)
		}),
	multiEntry("rlnc", "Lemmas 12-13", "RLNCBroadcast", "RLNCBroadcastBatch", passedTop,
		func(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error) {
			if p.K < 1 {
				return MultiResult{}, fmt.Errorf("broadcast: rlnc needs K >= 1, got %d", p.K)
			}
			msgs := RandomMessages(p.K, p.payloadLen(), r)
			res, _, err := RLNCBroadcast(top, cfg, msgs, p.pattern(), r, p.RLNC)
			return res, err
		},
		func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]MultiResult, error) {
			if p.K < 1 {
				return nil, fmt.Errorf("broadcast: rlnc needs K >= 1, got %d", p.K)
			}
			messages := make([][][]byte, len(rnds))
			for i, r := range rnds {
				messages[i] = RandomMessages(p.K, p.payloadLen(), r)
			}
			return RLNCBroadcastBatch(top, cfg, messages, p.pattern(), rnds, p.RLNC)
		}),
	multiEntry("sequential-decay-routing", "Section 4.2 baseline", "SequentialDecayRouting", "SequentialDecayRoutingBatch", passedTop,
		func(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error) {
			return SequentialDecayRouting(top, cfg, p.K, r, p.Options)
		},
		func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]MultiResult, error) {
			return SequentialDecayRoutingBatch(top, cfg, p.K, rnds, p.Options)
		}),
	multiEntry("star-routing", "Lemma 15", "StarRouting", "",
		func(_ graph.Topology, p ScheduleParams) graph.Topology {
			if p.Leaves < 1 {
				return graph.Topology{}
			}
			return cachedStar(p.Leaves)
		},
		func(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error) {
			return StarRouting(p.Leaves, p.K, cfg, r, p.Options)
		}, nil),
	multiEntry("star-coding", "Lemma 16", "StarCoding", "",
		func(_ graph.Topology, p ScheduleParams) graph.Topology {
			if p.Leaves < 1 {
				return graph.Topology{}
			}
			return cachedStar(p.Leaves)
		},
		func(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error) {
			return StarCoding(p.Leaves, p.K, cfg, r, p.Options)
		}, nil),
	multiEntry("wct-routing", "Lemmas 19/21/22", "WCTRouting", "", wctPlanTop,
		func(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error) {
			if p.WCT == nil {
				return MultiResult{}, errNilWCT
			}
			return WCTRouting(p.WCT, p.K, cfg, r, p.Options)
		}, nil),
	multiEntry("wct-coding", "Lemma 23", "WCTCoding", "", wctPlanTop,
		func(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error) {
			if p.WCT == nil {
				return MultiResult{}, errNilWCT
			}
			return WCTCoding(p.WCT, p.K, cfg, r, p.Options)
		}, nil),
	multiEntry("single-link-nonadaptive", "Lemma 29", "SingleLinkNonAdaptive", "", singleLinkPlanTop,
		func(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error) {
			return SingleLinkNonAdaptive(p.K, resolveRepeats(p, cfg), cfg, r)
		}, nil),
	multiEntry("single-link-adaptive", "Lemma 32", "SingleLinkAdaptive", "", singleLinkPlanTop,
		func(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error) {
			return SingleLinkAdaptive(p.K, cfg, r, p.Options)
		}, nil),
	multiEntry("single-link-coding", "Lemma 30", "SingleLinkCoding", "", singleLinkPlanTop,
		func(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error) {
			return SingleLinkCoding(p.K, cfg, r, p.Options)
		}, nil),
	multiEntry("path-pipeline-routing", "Lemma 25 demonstration schedule", "PathPipelineRouting", "", pathPlanTop,
		func(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error) {
			return PathPipelineRouting(p.PathLen, p.K, cfg, r, p.Options)
		}, nil),
	multiEntry("pipelined-batch-routing", "Lemmas 20-21", "PipelinedBatchRouting", "PipelinedBatchRoutingBatch", passedTop,
		func(top graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error) {
			return PipelinedBatchRouting(top, p.K, cfg, r, p.Options)
		},
		func(top graph.Topology, cfg radio.Config, rnds []*rng.Stream, p ScheduleParams) ([]MultiResult, error) {
			return PipelinedBatchRoutingBatch(top, p.K, cfg, rnds, p.Options)
		}),
	multiEntry("transformed-path-routing", "Lemma 25", "TransformedPathRouting", "", pathPlanTop,
		func(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error) {
			return TransformedPathRouting(p.PathLen, p.K, cfg, r, p.Transform, p.Options)
		}, nil),
	multiEntry("transformed-path-coding", "Lemma 26", "TransformedPathCoding", "", pathPlanTop,
		func(_ graph.Topology, cfg radio.Config, r *rng.Stream, p ScheduleParams) (MultiResult, error) {
			return TransformedPathCoding(p.PathLen, p.K, cfg, r, p.Transform, p.Options)
		}, nil),
}

var errNilWCT = fmt.Errorf("broadcast: wct schedule needs ScheduleParams.WCT")

func wctPlanTop(_ graph.Topology, p ScheduleParams) graph.Topology {
	if p.WCT == nil {
		return graph.Topology{}
	}
	return graph.Topology{G: p.WCT.G, Source: p.WCT.Source, Name: "wct"}
}

func singleLinkPlanTop(graph.Topology, ScheduleParams) graph.Topology {
	return cachedSingleLink()
}

func pathPlanTop(_ graph.Topology, p ScheduleParams) graph.Topology {
	if p.PathLen < 1 {
		return graph.Topology{}
	}
	return cachedPath(p.PathLen + 1)
}

// Schedules returns every registered schedule in registry (paper) order.
// The returned slice is a copy; the entries are shared and immutable.
func Schedules() []*Schedule {
	out := make([]*Schedule, len(schedules))
	copy(out, schedules)
	return out
}

// LookupSchedule returns the schedule registered under name, or an
// *UnknownScheduleError naming the known schedules.
func LookupSchedule(name string) (*Schedule, error) {
	for _, s := range schedules {
		if s.Name == name {
			return s, nil
		}
	}
	return nil, &UnknownScheduleError{Name: name}
}

// MustSchedule returns the schedule registered under name, panicking on
// a miss — for callers naming registry entries by compile-time constants,
// where an unknown name is a programming error rather than a data
// condition.
func MustSchedule(name string) *Schedule {
	s, err := LookupSchedule(name)
	if err != nil {
		panic(err)
	}
	return s
}

// ScheduleNames returns all registered schedule names, sorted.
func ScheduleNames() []string {
	names := make([]string, len(schedules))
	for i, s := range schedules {
		names[i] = s.Name
	}
	sort.Strings(names)
	return names
}

// UnknownScheduleError reports a LookupSchedule name that is not
// registered.
type UnknownScheduleError struct {
	Name string
}

func (e *UnknownScheduleError) Error() string {
	return "broadcast: unknown schedule " + fmt.Sprintf("%q", e.Name)
}
