package broadcast

import (
	"errors"
	"strings"
	"testing"

	"noisyradio/internal/graph"
	"noisyradio/internal/lint"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
)

// scheduleCase binds one registry entry to a small but non-trivial
// workload for the equivalence tests below.
type scheduleCase struct {
	top graph.Topology
	cfg radio.Config
	p   ScheduleParams
}

func scheduleCases(t *testing.T) map[string]scheduleCase {
	t.Helper()
	recv := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	half := radio.Config{Fault: radio.ReceiverFaults, P: 0.5}
	send := radio.Config{Fault: radio.SenderFaults, P: 0.3}
	path := graph.Path(24)
	w := graph.NewWCT(graph.DefaultWCTParams(80), rng.New(7))
	return map[string]scheduleCase{
		"decay":                    {top: path, cfg: recv},
		"decay-unknown-n":          {top: path, cfg: recv},
		"fastbc":                   {top: path, cfg: recv},
		"robust-fastbc":            {top: path, cfg: recv},
		"rlnc":                     {top: graph.Grid(4, 4), cfg: recv, p: ScheduleParams{K: 3}},
		"sequential-decay-routing": {top: graph.Path(12), cfg: recv, p: ScheduleParams{K: 2}},
		"star-routing":             {cfg: half, p: ScheduleParams{Leaves: 12, K: 4}},
		"star-coding":              {cfg: half, p: ScheduleParams{Leaves: 12, K: 4}},
		"wct-routing":              {cfg: half, p: ScheduleParams{WCT: w, K: 3}},
		"wct-coding":               {cfg: half, p: ScheduleParams{WCT: w, K: 3}},
		"single-link-nonadaptive":  {cfg: half, p: ScheduleParams{K: 6}},
		"single-link-adaptive":     {cfg: half, p: ScheduleParams{K: 6}},
		"single-link-coding":       {cfg: half, p: ScheduleParams{K: 6}},
		"path-pipeline-routing":    {cfg: send, p: ScheduleParams{PathLen: 4, K: 20}},
		"pipelined-batch-routing":  {top: graph.Layered(3, 3), cfg: half, p: ScheduleParams{K: 4}},
		"transformed-path-routing": {cfg: send, p: ScheduleParams{PathLen: 4, K: 20}},
		"transformed-path-coding":  {cfg: send, p: ScheduleParams{PathLen: 4, K: 20}},
	}
}

// TestScheduleCasesCoverRegistry keeps the test workloads and the registry
// in sync: adding a schedule without a test case fails here.
func TestScheduleCasesCoverRegistry(t *testing.T) {
	cases := scheduleCases(t)
	for _, s := range Schedules() {
		if _, ok := cases[s.Name]; !ok {
			t.Errorf("registry entry %q has no schedule test case", s.Name)
		}
	}
	if len(cases) != len(Schedules()) {
		t.Errorf("%d test cases for %d registry entries", len(cases), len(Schedules()))
	}
}

// TestScheduleRunBatchMatchesRun is the registry-level equivalence
// contract: for every entry, RunBatch over W streams must reproduce W
// scalar Runs outcome for outcome — the unified API may never change what
// a trial computes.
func TestScheduleRunBatchMatchesRun(t *testing.T) {
	for name, c := range scheduleCases(t) {
		s, err := LookupSchedule(name)
		if err != nil {
			t.Fatal(err)
		}
		const w = 3
		want := make([]Outcome, w)
		for i := range want {
			out, err := s.Run(c.top, c.cfg, rng.NewFrom(99, uint64(i)), c.p)
			if err != nil {
				t.Fatalf("%s: scalar trial %d: %v", name, i, err)
			}
			want[i] = out
		}
		rnds := make([]*rng.Stream, w)
		for i := range rnds {
			rnds[i] = rng.NewFrom(99, uint64(i))
		}
		got, err := s.RunBatch(c.top, c.cfg, rnds, c.p)
		if err != nil {
			t.Fatalf("%s: batch: %v", name, err)
		}
		if len(got) != w {
			t.Fatalf("%s: batch returned %d outcomes for %d streams", name, len(got), w)
		}
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s: trial %d diverged\nscalar %+v\nbatch  %+v", name, i, want[i], got[i])
			}
		}
	}
}

// TestScheduleKinds pins each entry's kind to its result shape.
func TestScheduleKinds(t *testing.T) {
	single := map[string]bool{"decay": true, "decay-unknown-n": true, "fastbc": true, "robust-fastbc": true}
	for _, s := range Schedules() {
		want := MultiMessage
		if single[s.Name] {
			want = SingleMessage
		}
		if s.Kind != want {
			t.Errorf("%s: kind %v, want %v", s.Name, s.Kind, want)
		}
		if s.Ref == "" {
			t.Errorf("%s: empty paper reference", s.Name)
		}
	}
}

// TestSchedulePlanTopology checks the planner's topology view: entries
// that synthesise their own topology report it, entries that run on the
// caller's topology hand it back, and underspecified parameters degrade
// to the zero topology instead of panicking.
func TestSchedulePlanTopology(t *testing.T) {
	for name, c := range scheduleCases(t) {
		s, err := LookupSchedule(name)
		if err != nil {
			t.Fatal(err)
		}
		got := s.PlanTopology(c.top, c.p)
		if c.top.G != nil {
			if got.G != c.top.G {
				t.Errorf("%s: PlanTopology did not return the passed topology", name)
			}
			continue
		}
		if got.G == nil {
			t.Errorf("%s: PlanTopology returned no graph for a synthesising schedule", name)
		}
		// Underspecified params must not panic.
		zero := s.PlanTopology(graph.Topology{}, ScheduleParams{})
		_ = zero
	}
}

// TestScheduleTwinRule pins which entries carry a lockstep batch twin.
// An entry without one must build a topology that radio.Auto resolves to
// the sparse engine, which never batches, whatever topology the caller
// passes; an entry with one must run on the caller's topology, which Auto
// can resolve to the dense engine. Star and path sizes sample 1..5000
// (every size up to 16, then steps of about an eighth) instead of every
// size, so the test does not memoise thousands of graphs.
func TestScheduleTwinRule(t *testing.T) {
	auto := radio.Config{}
	dense := graph.Complete(96)
	if auto.ResolveEngine(dense.G) != radio.Dense {
		t.Fatal("Complete(96) does not resolve dense under Auto")
	}
	var params []ScheduleParams
	for n := 1; n <= 5000; n = max(n+1, n+n/8) {
		params = append(params, ScheduleParams{Leaves: n, PathLen: n, K: 2})
	}
	params = append(params, ScheduleParams{Leaves: 5000, PathLen: 5000, K: 2})
	for n := 16; n <= 16384; n *= 2 {
		params = append(params, ScheduleParams{WCT: graph.NewWCT(graph.DefaultWCTParams(n), rng.New(uint64(n))), K: 2})
	}
	for _, s := range Schedules() {
		if s.Batched() != (s.batchName != "") {
			t.Errorf("%s: Batched() = %v but batch name %q", s.Name, s.Batched(), s.batchName)
		}
		if s.Batched() {
			if got := s.PlanTopology(dense, ScheduleParams{K: 2}); got.G != dense.G {
				t.Errorf("%s: has a twin but does not run on the caller's topology", s.Name)
			}
			continue
		}
		planned := 0
		for _, p := range params {
			pt := s.PlanTopology(dense, p)
			if pt.G == nil {
				continue // p does not size this schedule's topology
			}
			planned++
			if e := auto.ResolveEngine(pt.G); e != radio.Sparse {
				t.Errorf("%s: no twin, but its %d-node topology resolves to %v under Auto", s.Name, pt.G.N(), e)
			}
		}
		if planned == 0 {
			t.Errorf("%s: no twin and no sized topology to check", s.Name)
		}
	}
}

func TestLookupScheduleUnknown(t *testing.T) {
	_, err := LookupSchedule("totally-bogus")
	var unk *UnknownScheduleError
	if !errors.As(err, &unk) {
		t.Fatalf("LookupSchedule error = %v, want *UnknownScheduleError", err)
	}
	if unk.Name != "totally-bogus" || !strings.Contains(err.Error(), "totally-bogus") {
		t.Fatalf("error does not name the schedule: %v", err)
	}
	names := ScheduleNames()
	if len(names) != len(Schedules()) {
		t.Fatalf("ScheduleNames returned %d names for %d entries", len(names), len(Schedules()))
	}
	for _, n := range names {
		if _, err := LookupSchedule(n); err != nil {
			t.Fatalf("listed schedule %q does not look up: %v", n, err)
		}
	}
}

// TestRegistryComplete runs noisyvet's registry analyzer over this
// package: every exported schedule-shaped function must be reachable
// from exactly one registry entry. The completeness logic itself lives
// (and is unit-tested) in internal/lint; this thin wrapper keeps the
// invariant enforced under a plain `go test ./...` even when CI's
// dedicated noisyvet job is skipped.
func TestRegistryComplete(t *testing.T) {
	pkgs, err := lint.Load(".", ".")
	if err != nil {
		t.Fatal(err)
	}
	if len(pkgs) != 1 {
		t.Fatalf("loaded %d packages, want 1", len(pkgs))
	}
	diags, err := lint.Run(lint.RegistryAnalyzer, pkgs[0])
	if err != nil {
		t.Fatal(err)
	}
	for _, d := range diags {
		t.Error(d)
	}
}

// TestScheduleErrorPaths drives the registry's own validation: nil WCT,
// bad K, and the nil-graph topology error of the topology-taking entries.
func TestScheduleErrorPaths(t *testing.T) {
	cfg := radio.Config{Fault: radio.Faultless}
	r := rng.New(1)
	for _, name := range []string{"wct-routing", "wct-coding"} {
		s, err := LookupSchedule(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := s.Run(graph.Topology{}, cfg, r, ScheduleParams{K: 2}); err == nil {
			t.Errorf("%s: nil WCT accepted", name)
		}
		if _, err := s.RunBatch(graph.Topology{}, cfg, []*rng.Stream{r, r}, ScheduleParams{K: 2}); err == nil {
			t.Errorf("%s: nil WCT accepted by RunBatch", name)
		}
	}
	rlnc, err := LookupSchedule("rlnc")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rlnc.Run(graph.Path(4), cfg, r, ScheduleParams{}); err == nil {
		t.Error("rlnc: K=0 accepted")
	}
	if _, err := rlnc.RunBatch(graph.Path(4), cfg, []*rng.Stream{r, r}, ScheduleParams{}); err == nil {
		t.Error("rlnc: K=0 accepted by RunBatch")
	}
	decay, err := LookupSchedule("decay")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := decay.Run(graph.Topology{}, cfg, r, ScheduleParams{}); err == nil {
		t.Error("decay: nil-graph topology accepted")
	}
}
