package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"net"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/broadcast"
	"noisyradio/internal/experiments"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
	"noisyradio/internal/serve"
	"noisyradio/internal/sim"
	"noisyradio/internal/stats"
)

// serveMix drives an in-process sweep service over loopback HTTP with a
// closed loop of one client per CPU. Every spec is submitted cold, then
// at once again (so the repeat coalesces onto the running job or hits the
// cache), and after all specs have run, several more times in a seeded
// order: the cold jobs exercise the implicit engine, fault draws, shards
// and merges; the repeats exercise only HTTP, the plan key, the cache
// and NDJSON.
type serveMix struct {
	seed    uint64
	size    size
	workers int
	tamper  func([]byte) []byte
	t       *tally

	specs []benchreport.JobSpec
	order []int // submission order, indices into specs

	srv    *serve.Server
	hs     *http.Server
	served chan error
	url    string

	jobs []jobResult // the last run's submissions, in order
	// Latencies pooled over every run of this invocation, in ms.
	cold, firstSnap, hit []float64

	submitSpans []int
	coldLat     map[int]time.Duration // spec -> cold latency, last run
	overhead    []float64             // cold latency minus the direct sweep, ms
	metricsText string
}

type jobResult struct {
	spec      int
	cache     string
	latency   time.Duration
	firstSnap time.Duration // 0 when no snapshot arrived
	body      []byte
	line      serve.Line
	err       error
}

// hitRepeats is how many times each spec is resubmitted after the cold
// phase.
const hitRepeats = 4

// jobList lays out the job list: a fixed grid of distinct large-n specs
// on the implicit engine under every draw contract, with seeds and the
// repeat order drawn from the workload seed. Sender-fault Decay jobs take
// 10-50 ms cold; the receiver-fault and routing jobs, which draw a fault
// coin per listener, 100-300 ms.
func jobList(seed uint64, sz size) (specs []benchreport.JobSpec, order []int) {
	r := rng.NewFrom(seed, 0x73657276)
	draws := []string{"v1", "v2", "v3", "v4"}
	ns := []int{4096, 8192, 16384}
	ps := []float64{0.05, 0.1, 0.2, 0.3}
	if sz == small {
		ns, ps = []int{4096, 8192}, []float64{0.1, 0.3}
	}
	add := func(sched, top string, n, k int, fault string, p float64, draw string, trials int) {
		specs = append(specs, benchreport.JobSpec{
			Schedule: sched, Topology: top, N: n, K: k, Fault: fault, P: p, Draw: draw,
			Seed: r.Uint64(), Trials: trials,
		})
	}
	for _, top := range []string{"complete", "star"} {
		for _, n := range ns {
			for _, draw := range draws {
				for _, p := range ps {
					add("decay", top, n, 0, "sender", p, draw, 96)
				}
			}
		}
	}
	if sz == full {
		for _, draw := range draws {
			add("decay", "complete", 4096, 0, "receiver", 0.1, draw, 96)
			add("decay", "star", 4096, 0, "receiver", 0.1, draw, 96)
			add("sequential-decay-routing", "complete", 4096, 2, "sender", 0.1, draw, 64)
			add("sequential-decay-routing", "complete", 4096, 2, "sender", 0.3, draw, 64)
		}
	}
	for i := range specs {
		order = append(order, i, i)
	}
	for k := 0; k < hitRepeats; k++ {
		order = append(order, r.Perm(len(specs))...)
	}
	return specs, order
}

// setup boots a fresh server (an empty cache) on a loopback listener and
// runs one warm-up job that is not in the list.
func (s *serveMix) setup() error {
	s.specs, s.order = jobList(s.seed, s.size)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return fmt.Errorf("serve-mix: %w", err)
	}
	s.srv = serve.NewServer(serve.Config{Workers: s.workers})
	s.hs = &http.Server{Handler: s.srv}
	s.served = make(chan error, 1)
	go func() { s.served <- s.hs.Serve(ln) }()
	s.url = "http://" + ln.Addr().String()
	warm := benchreport.JobSpec{Schedule: "decay", Topology: "complete", N: 4096, Fault: "receiver", P: 0.1, Seed: s.seed ^ 0x77, Trials: 96}
	if _, err := serve.Submit(context.Background(), s.url, warm, nil); err != nil {
		s.teardown()
		return fmt.Errorf("serve-mix warm-up job: %w", err)
	}
	return nil
}

func (s *serveMix) teardown() {
	if s.hs == nil {
		return
	}
	s.hs.Close()
	if err := <-s.served; err != nil && !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintln(s.t.log, "serve-mix: server:", err)
	}
	http.DefaultClient.CloseIdleConnections()
	s.hs = nil
}

func (s *serveMix) run(tr *tracer, root int) error {
	s.jobs = make([]jobResult, len(s.order))
	s.submitSpans = s.submitSpans[:0]
	var next atomic.Int64
	var wg sync.WaitGroup
	var spanMu sync.Mutex
	for c := 0; c < s.workers; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(s.order) {
					return
				}
				h := tr.begin("serve.Submit", "", root, int64(i))
				s.jobs[i] = s.submit(s.order[i])
				tr.end(h)
				if tr != nil {
					spanMu.Lock()
					s.submitSpans = append(s.submitSpans, h)
					spanMu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	if tr != nil {
		text, err := s.fetchMetrics()
		if err != nil {
			return err
		}
		s.metricsText = text
	}
	s.checkJobs()
	return nil
}

// submit sends one job through serve.Submit and rebuilds the NDJSON body
// from the lines it decodes (the server writes each line as json.Marshal
// output, so re-encoding reproduces the bytes).
func (s *serveMix) submit(spec int) jobResult {
	jr := jobResult{spec: spec}
	var body bytes.Buffer
	appendLine := func(l serve.Line) {
		b, err := json.Marshal(l)
		if err != nil {
			panic(err) // a serve.Line always encodes
		}
		body.Write(b)
		body.WriteByte('\n')
	}
	t0 := time.Now()
	res, err := serve.Submit(context.Background(), s.url, s.specs[spec], func(l serve.Line) {
		if jr.firstSnap == 0 {
			jr.firstSnap = time.Since(t0)
		}
		appendLine(l)
	})
	jr.latency = time.Since(t0)
	if err != nil {
		jr.err = err
		return jr
	}
	appendLine(res.Line)
	jr.cache, jr.line, jr.body = res.Cache, res.Line, body.Bytes()
	return jr
}

// checkJobs: every job succeeds with the requested trial count, each spec
// executes exactly once, and every hit or coalesced body is byte-equal to
// the cold body.
func (s *serveMix) checkJobs() {
	coldBody := map[int][]byte{}
	s.coldLat = map[int]time.Duration{}
	for _, j := range s.jobs {
		if j.err == nil && j.cache == "miss" {
			if _, dup := coldBody[j.spec]; dup {
				s.t.op(false, "serve-mix: spec %d executed twice", j.spec)
			}
			coldBody[j.spec] = j.body
			s.coldLat[j.spec] = j.latency
			s.cold = append(s.cold, ms(j.latency))
			if j.firstSnap > 0 {
				s.firstSnap = append(s.firstSnap, ms(j.firstSnap))
			}
		}
		if j.err == nil && j.cache == "hit" {
			s.hit = append(s.hit, ms(j.latency))
		}
	}
	for i, j := range s.jobs {
		spec := s.specs[j.spec]
		if j.err != nil {
			s.t.op(false, "serve-mix: job %d (%s): %v", i, spec.Canonical(), j.err)
			continue
		}
		st := j.line.Stats
		s.t.op(j.line.Trials == spec.Trials && st != nil && st.N+st.Dropped == spec.Trials,
			"serve-mix: job %d reports %d trials, requested %d", i, j.line.Trials, spec.Trials)
		cold, ok := coldBody[j.spec]
		s.t.op(ok, "serve-mix: spec %d never executed", j.spec)
		if j.cache != "miss" {
			body := j.body
			if s.tamper != nil {
				body = s.tamper(body)
			}
			s.t.op(bytes.Equal(body, cold), "serve-mix: %s body of job %d differs from the cold body", j.cache, i)
		}
	}
}

func (s *serveMix) check() {}

// latencies writes the serve end-to-end metrics.
func (s *serveMix) latencies(m metrics) {
	m.set("cold_p50_ms", median(s.cold), "ms")
	m.set("cold_p90_ms", quantile(s.cold, 0.9), "ms")
	m.set("first_snapshot_p50_ms", median(s.firstSnap), "ms")
	m.set("hit_p50_ms", median(s.hit), "ms")
}

// overheadStride samples every overheadStride-th spec for the direct
// sweep that serve.overhead_ms subtracts.
const overheadStride = 4

// traceExtras times a direct AddScheduleShard sweep of sampled specs, the
// same shards the server runs, so cold latency minus it is what the
// service layer adds; the merged result must match the served one.
func (s *serveMix) traceExtras(tr *tracer, root int) error {
	s.overhead = nil
	for i := 0; i < len(s.specs); i += overheadStride {
		spec := s.specs[i]
		sched, top, params, cfg, err := resolveSpec(spec)
		if err != nil {
			return err
		}
		shards := s.srv.ShardPlan(spec.Trials)
		sw := sim.NewSweep(sim.SweepConfig{Workers: s.workers, TrialBatch: sim.TrialBatchAuto})
		rows := make([]*sim.Row, shards)
		for k := range rows {
			rows[k] = sw.AddScheduleShard(sched, top, cfg, params, k*spec.Trials/shards, (k+1)*spec.Trials/shards, spec.Seed, roundsValue)
		}
		h := tr.begin("sim.Sweep.Run", spec.Canonical(), root, int64(i))
		t0 := time.Now()
		err = sw.Run()
		merged := stats.NewAccumulator()
		for _, row := range rows {
			merged.Merge(row.Acc())
		}
		d := time.Since(t0)
		tr.end(h)
		if err != nil {
			return fmt.Errorf("serve-mix direct sweep: %w", err)
		}
		if cold, ok := s.coldLat[i]; ok {
			s.overhead = append(s.overhead, ms(cold-d))
		}
		var served *serve.Line
		for _, j := range s.jobs {
			if j.spec == i && j.err == nil {
				served = &j.line
				break
			}
		}
		s.t.op(served != nil && served.Stats != nil && served.Stats.N == merged.N() && served.Stats.Dropped == merged.Dropped() &&
			served.Stats.Sum != nil && math.Float64bits(*served.Stats.Sum) == math.Float64bits(merged.Sum()),
			"serve-mix: spec %d served result differs from a direct sharded sweep", i)
	}
	return nil
}

func (s *serveMix) layers(m metrics, spans []span) []string {
	// Hit throughput is taken over the repeat phase, which follows the
	// cold phase's two submissions per spec.
	var hits []float64
	var phaseHits int
	var hitStart, hitEnd int64 = math.MaxInt64, 0
	var bodyBytes int
	for _, h := range s.submitSpans {
		j := s.jobs[spans[h].ID]
		bodyBytes += len(j.body)
		if j.cache != "hit" {
			continue
		}
		hits = append(hits, ms(spans[h].dur()))
		if spans[h].ID >= int64(2*len(s.specs)) {
			phaseHits++
			hitStart, hitEnd = min(hitStart, spans[h].Start), max(hitEnd, spans[h].End)
		}
	}
	m.set("serve.overhead_ms", median(s.overhead), "ms")
	m.set("serve.hit_p99_ms", quantile(hits, 0.99), "ms")
	m.set("serve.hit_jobs_per_s", float64(phaseHits)/time.Duration(hitEnd-hitStart).Seconds(), "1/s")
	m.set("serve.body_bytes", float64(bodyBytes)/float64(len(s.submitSpans)), "bytes")
	counters := parseMetrics(s.metricsText)
	m.set("serve.hit_ratio", counters["noisyserved_cache_hits_total"]/counters["noisyserved_jobs_total"], "ratio")
	m.set("serve.coalesced", counters["noisyserved_coalesced_total"], "count")
	return nil
}

func (s *serveMix) fetchMetrics() (string, error) {
	resp, err := http.Get(s.url + "/metrics")
	if err != nil {
		return "", fmt.Errorf("serve-mix metrics: %w", err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	return string(b), err
}

// parseMetrics reads the server's "name value" lines.
func parseMetrics(text string) map[string]float64 {
	out := map[string]float64{}
	for _, line := range strings.Split(text, "\n") {
		name, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		if v, err := strconv.ParseFloat(val, 64); err == nil {
			out[name] = v
		}
	}
	return out
}

// resolveSpec builds what the server runs for a spec, through the same
// registry and workload functions the server resolves jobs with.
func resolveSpec(spec benchreport.JobSpec) (sched *broadcast.Schedule, top graph.Topology, params broadcast.ScheduleParams, cfg radio.Config, err error) {
	if sched, err = broadcast.LookupSchedule(spec.Schedule); err != nil {
		return
	}
	if cfg.Fault, err = radio.ParseFaultModel(spec.Fault); err != nil {
		return
	}
	if cfg.Draw, err = radio.ParseDrawContract(spec.Draw); err != nil {
		return
	}
	cfg.P = spec.P
	top, params, err = experiments.ScheduleWorkload(sched, spec.Topology, spec.N, max(spec.K, 1), spec.Seed)
	return
}

func ms(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }
