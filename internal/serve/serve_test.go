package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/sim"
)

func testSpec() benchreport.JobSpec {
	return benchreport.JobSpec{
		Schedule: "decay",
		Topology: "path",
		N:        24,
		Fault:    "receiver",
		P:        0.3,
		Seed:     3,
		Trials:   40,
	}
}

func postJob(t *testing.T, ts *httptest.Server, spec benchreport.JobSpec) (*http.Response, []byte) {
	t.Helper()
	payload, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json", bytes.NewReader(payload))
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	return resp, body
}

func metric(t *testing.T, ts *httptest.Server, name string) int64 {
	t.Helper()
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, _ := io.ReadAll(resp.Body)
	for _, line := range strings.Split(string(body), "\n") {
		var v int64
		if _, err := fmt.Sscanf(line, name+" %d", &v); err == nil {
			return v
		}
	}
	t.Fatalf("metric %s not found in:\n%s", name, body)
	return 0
}

// TestJobMatchesLocalSweep: the service's result line carries exactly the
// statistics a local unsharded sweep of the same spec produces.
func TestJobMatchesLocalSweep(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	spec := testSpec()

	var snapshots []Line
	res, err := Submit(context.Background(), ts.URL, spec, func(l Line) { snapshots = append(snapshots, l) })
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "miss" {
		t.Fatalf("first submission X-Cache = %q, want miss", res.Cache)
	}

	sched, err := broadcast.LookupSchedule(spec.Schedule)
	if err != nil {
		t.Fatal(err)
	}
	sw := sim.NewSweep(sim.SweepConfig{Workers: 1})
	row := sw.AddSchedule(sched, graph.Path(spec.N),
		mustResolve(t, spec).cfg, broadcast.ScheduleParams{}, spec.Trials, spec.Seed,
		scheduleValue)
	if err := sw.Run(); err != nil {
		t.Fatal(err)
	}
	want := row.Acc()

	st := res.Stats
	if st == nil {
		t.Fatal("result line has no stats")
	}
	if st.N != want.N() || st.Dropped != want.Dropped() {
		t.Fatalf("N/Dropped = %d/%d, want %d/%d", st.N, st.Dropped, want.N(), want.Dropped())
	}
	if *st.Sum != want.Sum() || *st.Min != want.Min() || *st.Max != want.Max() {
		t.Fatalf("sum/min/max = %v/%v/%v, want %v/%v/%v", *st.Sum, *st.Min, *st.Max, want.Sum(), want.Min(), want.Max())
	}
	if math.Abs(*st.Mean-want.Mean()) > 1e-12 {
		t.Fatalf("mean %v, want %v", *st.Mean, want.Mean())
	}
	wantShards := NewServer(Config{}).ShardPlan(spec.Trials)
	if res.Shards != wantShards {
		t.Fatalf("shards = %d, want %d", res.Shards, wantShards)
	}
	if len(snapshots) != wantShards-1 {
		t.Fatalf("%d snapshot lines for %d shards, want %d", len(snapshots), wantShards, wantShards-1)
	}
	for i, snap := range snapshots {
		if snap.ShardsDone != i+1 || snap.Shards != wantShards {
			t.Fatalf("snapshot %d: shards_done/shards = %d/%d", i, snap.ShardsDone, snap.Shards)
		}
		if snap.Stats.N+snap.Stats.Dropped >= spec.Trials {
			t.Fatalf("snapshot %d already covers all %d trials", i, spec.Trials)
		}
	}
}

func mustResolve(t *testing.T, spec benchreport.JobSpec) *job {
	t.Helper()
	jb, err := NewServer(Config{}).resolveJob(spec)
	if err != nil {
		t.Fatal(err)
	}
	return jb
}

// TestCacheHitIsByteExact: the second submission replays the first body
// byte for byte, marked only by the X-Cache header, and the counters move.
func TestCacheHitIsByteExact(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()

	resp1, body1 := postJob(t, ts, testSpec())
	resp2, body2 := postJob(t, ts, testSpec())
	if resp1.StatusCode != 200 || resp2.StatusCode != 200 {
		t.Fatalf("status %d / %d", resp1.StatusCode, resp2.StatusCode)
	}
	if got := resp1.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("first X-Cache = %q", got)
	}
	if got := resp2.Header.Get("X-Cache"); got != "hit" {
		t.Fatalf("second X-Cache = %q", got)
	}
	if !bytes.Equal(body1, body2) {
		t.Fatalf("cache hit body differs from original:\n%s\n%s", body1, body2)
	}
	if resp1.Header.Get("X-Plan-Key") != resp2.Header.Get("X-Plan-Key") {
		t.Fatal("plan key differs across submissions")
	}
	if hits := metric(t, ts, "noisyserved_cache_hits_total"); hits != 1 {
		t.Fatalf("cache hits = %d, want 1", hits)
	}
	if misses := metric(t, ts, "noisyserved_cache_misses_total"); misses != 1 {
		t.Fatalf("cache misses = %d, want 1", misses)
	}
	if inflight := metric(t, ts, "noisyserved_shards_inflight"); inflight != 0 {
		t.Fatalf("shards inflight after completion = %d", inflight)
	}

	// A different seed is a different plan key: misses again.
	other := testSpec()
	other.Seed = 4
	resp3, body3 := postJob(t, ts, other)
	if got := resp3.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("different-seed X-Cache = %q", got)
	}
	if bytes.Equal(body1, body3) {
		t.Fatal("different seed produced the identical body")
	}
}

// TestResubmitAfterResultHits: a client that stops reading at the result
// line, as Submit does, and resubmits at once must get a cache hit — the
// leader publishes the body and retires its flight before it writes that
// line, so the resubmission can neither miss nor coalesce.
func TestResubmitAfterResultHits(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	for seed := uint64(1); seed <= 20; seed++ {
		spec := testSpec()
		spec.Seed = seed
		for i, want := range []string{"miss", "hit"} {
			res, err := Submit(context.Background(), ts.URL, spec, nil)
			if err != nil {
				t.Fatal(err)
			}
			if res.Cache != want {
				t.Fatalf("seed %d submission %d: X-Cache = %q, want %q", seed, i+1, res.Cache, want)
			}
		}
	}
}

// TestBodyDeterministicAcrossServers: a fresh process (fresh server)
// computes the byte-identical body — the cache's correctness claim.
func TestBodyDeterministicAcrossServers(t *testing.T) {
	var bodies [][]byte
	for i := 0; i < 2; i++ {
		ts := httptest.NewServer(NewServer(Config{Workers: 1 + i*3, TrialBatch: []int{0, sim.TrialBatchAuto}[i]}))
		_, body := postJob(t, ts, testSpec())
		ts.Close()
		bodies = append(bodies, body)
	}
	if !bytes.Equal(bodies[0], bodies[1]) {
		t.Fatalf("body differs across server configs:\n%s\n%s", bodies[0], bodies[1])
	}
}

// TestCoalescing: N concurrent identical submissions execute once; the
// followers wait and replay the identical bytes.
func TestCoalescing(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	spec := testSpec()
	spec.Trials = 200 // long enough that the followers arrive mid-flight

	const clients = 4
	bodies := make([][]byte, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, bodies[i] = postJob(t, ts, spec)
		}(i)
	}
	wg.Wait()
	for i := 1; i < clients; i++ {
		if !bytes.Equal(bodies[0], bodies[i]) {
			t.Fatalf("client %d body differs", i)
		}
	}
	if misses := metric(t, ts, "noisyserved_cache_misses_total"); misses != 1 {
		t.Fatalf("cache misses = %d, want 1 (one execution)", misses)
	}
	total := metric(t, ts, "noisyserved_cache_hits_total") + metric(t, ts, "noisyserved_coalesced_total")
	if total != clients-1 {
		t.Fatalf("hits+coalesced = %d, want %d", total, clients-1)
	}
}

// TestRejectsBadSpecs: malformed submissions are HTTP 400 with a JSON
// error, before any execution.
func TestRejectsBadSpecs(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	cases := map[string]func(*benchreport.JobSpec){
		"unknown schedule": func(s *benchreport.JobSpec) { s.Schedule = "bogus" },
		"unknown fault":    func(s *benchreport.JobSpec) { s.Fault = "martian" },
		"unknown draw":     func(s *benchreport.JobSpec) { s.Draw = "v99" },
		"unknown topology": func(s *benchreport.JobSpec) { s.Topology = "moebius" },
		"zero trials":      func(s *benchreport.JobSpec) { s.Trials = 0 },
		"p out of range":   func(s *benchreport.JobSpec) { s.P = 1.5 },
		"tiny n":           func(s *benchreport.JobSpec) { s.N = 1 },
		"fastbc implicit":  func(s *benchreport.JobSpec) { s.Schedule = "fastbc"; s.N = 8192 },
		"n beyond int32":   func(s *benchreport.JobSpec) { s.Topology = "complete"; s.N = math.MaxInt32 + 1 },
		"star n beyond int32": func(s *benchreport.JobSpec) {
			s.Schedule = "star-routing"
			s.N = math.MaxInt32 + 1
		},
	}
	for name, mut := range cases {
		spec := testSpec()
		mut(&spec)
		resp, body := postJob(t, ts, spec)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400 (body %s)", name, resp.StatusCode, body)
			continue
		}
		var e struct {
			Error string `json:"error"`
		}
		if err := json.Unmarshal(body, &e); err != nil || e.Error == "" {
			t.Errorf("%s: 400 body is not a JSON error: %s", name, body)
		}
	}
	// Unknown fields are rejected too (typo'd keys must not silently
	// default and then cache under the wrong plan).
	resp, err := http.Post(ts.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"schedule":"decay","topology":"path","n":24,"fault":"receiver","p":0.3,"seed":1,"trials":5,"engin":"dense"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("unknown field: status %d, want 400", resp.StatusCode)
	}
	if jobs := metric(t, ts, "noisyserved_jobs_total"); jobs != 0 {
		t.Fatalf("rejected specs counted as jobs: %d", jobs)
	}
}

// TestRuntimeErrorNotCached: a job that fails during execution (a radio
// config only the run validates) ends in an NDJSON error line and is
// never cached — the next submission re-executes.
func TestRuntimeErrorNotCached(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	spec := testSpec()
	spec.Draw = "v3"
	spec.BurstBadP = 0.2 // below p: invalid, but only the run knows

	for round := 0; round < 2; round++ {
		resp, body := postJob(t, ts, spec)
		if resp.StatusCode != 200 {
			t.Fatalf("round %d: status %d", round, resp.StatusCode)
		}
		if resp.Header.Get("X-Cache") != "miss" {
			t.Fatalf("round %d: X-Cache = %q, want miss (errors are not cached)", round, resp.Header.Get("X-Cache"))
		}
		last := lastLine(t, body)
		if last.Type != "error" || last.Error == "" {
			t.Fatalf("round %d: terminal line %+v, want an error line", round, last)
		}
	}
	if errored := metric(t, ts, "noisyserved_jobs_errored_total"); errored != 2 {
		t.Fatalf("errored = %d, want 2", errored)
	}
	if _, err := Submit(context.Background(), ts.URL, spec, nil); err == nil || !strings.Contains(err.Error(), "job failed") {
		t.Fatalf("client Submit error = %v, want job-failed", err)
	}
}

func lastLine(t *testing.T, body []byte) Line {
	t.Helper()
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var l Line
	if err := json.Unmarshal(lines[len(lines)-1], &l); err != nil {
		t.Fatalf("terminal line %s: %v", lines[len(lines)-1], err)
	}
	return l
}

// TestClientCancellation: a caller abandoning the job cancels the sweep;
// nothing is cached, and a later submission runs fresh.
func TestClientCancellation(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	spec := testSpec()
	spec.N = 64
	spec.Trials = 20000 // long enough that a 20ms deadline lands mid-run

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	if _, err := Submit(ctx, ts.URL, spec, nil); err == nil {
		t.Skip("job finished inside the cancellation window; machine too fast for this race")
	}
	// Wait for the server to finish aborting the flight (the error is
	// recorded when the leader's sweep drains), then resubmit: the
	// abandoned job must not have poisoned the cache.
	deadline := time.Now().Add(10 * time.Second)
	for metric(t, ts, "noisyserved_jobs_errored_total") < 1 {
		if time.Now().After(deadline) {
			t.Fatal("aborted job never recorded as errored")
		}
		time.Sleep(5 * time.Millisecond)
	}
	res, err := Submit(context.Background(), ts.URL, spec, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Cache != "miss" {
		t.Fatalf("post-cancel X-Cache = %q, want miss", res.Cache)
	}
	if res.Stats.N+res.Stats.Dropped != spec.Trials {
		t.Fatalf("post-cancel result covers %d trials, want %d", res.Stats.N+res.Stats.Dropped, spec.Trials)
	}
}

// TestLRUEviction: the cache honours its capacity, evicting the least
// recently used body.
func TestLRUEviction(t *testing.T) {
	c := newBodyCache(2)
	c.put("a", []byte("A"))
	c.put("b", []byte("B"))
	if _, ok := c.get("a"); !ok { // touch a: b becomes LRU
		t.Fatal("a missing")
	}
	c.put("c", []byte("C"))
	if _, ok := c.get("b"); ok {
		t.Fatal("b not evicted")
	}
	if _, ok := c.get("a"); !ok {
		t.Fatal("a evicted despite being recently used")
	}
	if c.len() != 2 {
		t.Fatalf("len = %d", c.len())
	}

	// End to end: a size-1 server cache forgets the older job.
	ts := httptest.NewServer(NewServer(Config{CacheSize: 1}))
	defer ts.Close()
	a, b := testSpec(), testSpec()
	b.Seed = 9
	postJob(t, ts, a)
	postJob(t, ts, b)
	resp, _ := postJob(t, ts, a)
	if got := resp.Header.Get("X-Cache"); got != "miss" {
		t.Fatalf("evicted job X-Cache = %q, want miss", got)
	}
}

// TestShardPlan pins the deterministic shard-count derivation, including
// trial counts near MaxInt and a fixed count clamped to the trial count.
func TestShardPlan(t *testing.T) {
	s := NewServer(Config{})
	for _, tc := range [][2]int{{1, 1}, {32, 1}, {33, 2}, {64, 2}, {256, 8}, {100000, 8}, {math.MaxInt / 2, 8}, {math.MaxInt, 8}} {
		if got := s.ShardPlan(tc[0]); got != tc[1] {
			t.Errorf("ShardPlan(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
	fixed := NewServer(Config{Shards: 3})
	for _, tc := range [][2]int{{100000, 3}, {3, 3}, {2, 2}, {1, 1}} {
		if got := fixed.ShardPlan(tc[0]); got != tc[1] {
			t.Errorf("fixed ShardPlan(%d) = %d, want %d", tc[0], got, tc[1])
		}
	}
}

// TestShardStart: shard bounds are floor(i*trials/shards) without
// overflow — equal to the plain formula wherever that does not overflow,
// and a partition of [0, trials) into near-equal shards at MaxInt.
func TestShardStart(t *testing.T) {
	for trials := 1; trials <= 300; trials++ {
		for shards := 1; shards <= min(trials, 9); shards++ {
			for i := 0; i <= shards; i++ {
				if got, want := shardStart(i, trials, shards), i*trials/shards; got != want {
					t.Fatalf("shardStart(%d, %d, %d) = %d, want %d", i, trials, shards, got, want)
				}
			}
		}
	}
	for _, tc := range []struct{ trials, shards int }{
		{math.MaxInt, 8}, {math.MaxInt, 7}, {math.MaxInt, 1}, {math.MaxInt / 2, 8}, {math.MaxInt / 2, 3},
	} {
		prev := shardStart(0, tc.trials, tc.shards)
		if prev != 0 {
			t.Errorf("trials %d, shards %d: shard 0 starts at %d", tc.trials, tc.shards, prev)
		}
		for i := 1; i <= tc.shards; i++ {
			next := shardStart(i, tc.trials, tc.shards)
			if size := next - prev; size != tc.trials/tc.shards && size != tc.trials/tc.shards+1 {
				t.Errorf("trials %d, shards %d: shard %d has %d trials", tc.trials, tc.shards, i-1, size)
			}
			prev = next
		}
		if prev != tc.trials {
			t.Errorf("trials %d, shards %d: last shard ends at %d", tc.trials, tc.shards, prev)
		}
	}
}

// TestFixedShardsAboveTrials: a fixed shard count larger than the trial
// count runs the job (one trial per shard) and caches it, so the
// resubmission is a hit instead of waiting on a dead flight.
func TestFixedShardsAboveTrials(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{Shards: 8}))
	defer ts.Close()
	spec := testSpec()
	spec.Trials = 3
	_, body := postJob(t, ts, spec)
	lines := bytes.Split(bytes.TrimSpace(body), []byte("\n"))
	var last Line
	if err := json.Unmarshal(lines[len(lines)-1], &last); err != nil {
		t.Fatalf("last line of %q: %v", body, err)
	}
	if last.Type != "result" || last.Shards != 3 || last.Stats == nil || last.Stats.N+last.Stats.Dropped != 3 {
		t.Fatalf("last line = %+v, want a result over 3 one-trial shards", last)
	}
	resp, again := postJob(t, ts, spec)
	if got := resp.Header.Get("X-Cache"); got != "hit" || !bytes.Equal(body, again) {
		t.Fatalf("resubmission X-Cache = %q (bodies equal: %v), want a byte-identical hit", got, bytes.Equal(body, again))
	}
}

// TestHealthz: liveness answers.
func TestHealthz(t *testing.T) {
	ts := httptest.NewServer(NewServer(Config{}))
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("healthz status %d", resp.StatusCode)
	}
}
