// Command perfbench is the end-to-end and per-layer benchmark of the
// simulator. It runs one of three workloads, checks the program's outputs
// and prints one JSON result line:
//
//	perfbench --workload paper-suite|dense-sweep|serve-mix --seed N --seconds S --trace 0|1
//
// With --trace 0 it repeats the workload for S seconds and reports the
// end-to-end metrics (medians over the repetitions). With --trace 1 it
// records a span around each call into the program and reports per-layer
// metrics instead. See README.md for the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"syscall"
	"time"

	"noisyradio/internal/benchreport"
	"noisyradio/internal/sim"
)

// options is one invocation. size, digests and tamper are set only by the
// self-tests: small inputs, and corrupted expectations that must fail
// the run.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	spansDir string

	size    size
	digests map[string]string
	tamper  func([]byte) []byte
}

// size selects a workload's inputs: full for the workload a run is named
// after, small for the companion runs that fill in the metrics of the
// other workloads' layers (and for the self-tests).
type size int

const (
	full size = iota
	small
)

var workloadNames = []string{"paper-suite", "dense-sweep", "serve-mix"}

// workload is one fixed piece of work the benchmark times.
type workload interface {
	// setup builds fresh inputs (graphs, specs, a booted server); it is
	// timed as setup_s.
	setup() error
	// run does the fixed work once, timed as wall_s. tr is nil when
	// untraced; root is the span the work's spans hang under.
	run(tr *tracer, root int) error
	teardown()
	// check runs the once-per-run output checks that need a second
	// execution of the work.
	check()
	// traceExtras runs the extra traced-only measurements of the layer.
	traceExtras(tr *tracer, root int) error
	// layers writes the workload's per-layer metrics from its traced run
	// and returns report lines for the log and the spans file.
	layers(m metrics, spans []span) []string
}

func newWorkload(name string, o *options, sz size, t *tally) (workload, error) {
	digests := o.digests
	if digests == nil {
		digests = suiteDigests
	}
	workers := runtime.NumCPU()
	switch name {
	case "paper-suite":
		return &paperSuite{seed: o.seed, size: sz, workers: workers, digests: digests, t: t}, nil
	case "dense-sweep":
		return &denseSweep{seed: o.seed, size: sz, workers: workers, t: t}, nil
	case "serve-mix":
		return &serveMix{seed: o.seed, size: sz, workers: workers, tamper: o.tamper, t: t}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", name, strings.Join(workloadNames, ", "))
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metrics map[string]metric

func (m metrics) set(name string, value float64, unit string) { m[name] = metric{value, unit} }

type result struct {
	Correct   bool    `json:"correct"`
	Attempted int     `json:"attempted"`
	Failed    int     `json:"failed"`
	Metrics   metrics `json:"metrics"`
}

// tally counts checked operations; a failed one fails the run.
type tally struct {
	attempted, failed int
	log               io.Writer
}

func (t *tally) op(ok bool, format string, args ...any) {
	t.attempted++
	if !ok {
		t.failed++
		fmt.Fprintf(t.log, "FAIL: "+format+"\n", args...)
	}
}

func main() {
	o := options{spansDir: ".bench_build"}
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.StringVar(&o.workload, "workload", "", "workload: "+strings.Join(workloadNames, " | "))
	fs.Uint64Var(&o.seed, "seed", defaultSeed, "workload seed")
	fs.IntVar(&o.seconds, "seconds", 20, "measuring window in seconds")
	traceFlag := fs.Int("trace", 0, "1 records spans and reports per-layer metrics")
	fs.StringVar(&o.spansDir, "spans-dir", o.spansDir, "directory the traced run writes its spans to")
	if err := fs.Parse(os.Args[1:]); err != nil {
		os.Exit(2)
	}
	if *traceFlag != 0 && *traceFlag != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: --trace must be 0 or 1")
		os.Exit(2)
	}
	o.trace = *traceFlag == 1
	res, err := run(&o, os.Stderr)
	if err == nil {
		var line []byte
		if line, err = json.Marshal(res); err == nil {
			fmt.Println(string(line))
		}
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
	}
	os.Exit(exitCode(res, err))
}

// exitCode is 0 only for a run that finished with every check passing.
func exitCode(res *result, err error) int {
	if err != nil || !res.Correct {
		return 1
	}
	return 0
}

// run executes one invocation; log receives failures and reports.
func run(o *options, log io.Writer) (*result, error) {
	t := &tally{log: log}
	w, err := newWorkload(o.workload, o, o.size, t)
	if err != nil {
		return nil, err
	}
	var m metrics
	if o.trace {
		m, err = traced(o, w, t, log)
	} else {
		m, err = untraced(o, w, t)
	}
	if err != nil {
		return nil, err
	}
	for name, v := range m {
		if math.IsNaN(v.Value) || math.IsInf(v.Value, 0) {
			return nil, fmt.Errorf("metric %s was not measured (%v)", name, v.Value)
		}
	}
	return &result{Correct: t.failed == 0, Attempted: t.attempted, Failed: t.failed, Metrics: m}, nil
}

// minSetups is how many times a run sets its workload up, at least, so
// setup_s is a median, not one sample.
const minSetups = 3

// untraced repeats the workload for the measuring window and reports the
// end-to-end metrics.
func untraced(o *options, w workload, t *tally) (metrics, error) {
	var setupS, wallS, cpuS, allocMB []float64
	window := time.Duration(o.seconds) * time.Second
	start := time.Now()
	for len(wallS) == 0 || time.Since(start) < window {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		// Start every timed run from a collected heap, so garbage left by
		// set-up or an earlier run is not charged to this one.
		runtime.GC()
		u0 := usage()
		t1 := time.Now()
		err := w.run(nil, -1)
		wall := time.Since(t1)
		u1 := usage()
		w.teardown()
		if err != nil {
			return nil, err
		}
		wallS = append(wallS, wall.Seconds())
		cpuS = append(cpuS, u1.cpu-u0.cpu)
		allocMB = append(allocMB, (u1.alloc-u0.alloc)/(1<<20))
	}
	for len(setupS) < minSetups {
		t0 := time.Now()
		if err := w.setup(); err != nil {
			return nil, err
		}
		setupS = append(setupS, time.Since(t0).Seconds())
		w.teardown()
	}
	w.check()
	peak := usage().maxRSS

	m := metrics{}
	m.set("setup_s", median(setupS), "s")
	m.set("wall_s", median(wallS), "s")
	m.set("cpu_s", median(cpuS), "s")
	m.set("alloc_mb", median(allocMB), "MB")
	m.set("peak_rss_mb", peak, "MB")

	// The serve latencies come from the serve-mix itself, or from
	// serve-mix runs after the workload, so every workload reports every
	// end-to-end metric.
	sm, ok := w.(*serveMix)
	if !ok {
		c, err := newWorkload("serve-mix", o, full, t)
		if err != nil {
			return nil, err
		}
		sm = c.(*serveMix)
		for i := 0; i < companionRuns; i++ {
			if _, err := runOnce(sm, nil, ""); err != nil {
				return nil, err
			}
		}
	}
	sm.latencies(m)
	return m, nil
}

// companionRuns is how many serve-mix runs (each on a fresh server) pool
// their latencies for the workloads without a service. Loopback latency
// shifts by 10-20% between runs of one process, so one run is not enough.
const companionRuns = 3

// traced runs the workload once untraced and once traced, then the other
// workloads at small size and the layer probes, all traced, and reports
// the per-layer metrics.
func traced(o *options, w workload, t *tally, log io.Writer) (metrics, error) {
	m := metrics{}

	// Untraced run: the base of the tracing overhead, and the exact trial
	// and plan counts of the workload (set-up excluded).
	if err := w.setup(); err != nil {
		return nil, err
	}
	runtime.GC()
	trials0, plans0 := sim.TotalTrials(), sim.PlanLog()
	t0 := time.Now()
	err := w.run(nil, -1)
	wallUntraced := time.Since(t0)
	w.teardown()
	if err != nil {
		return nil, err
	}
	m.set("sim.trials", float64(sim.TotalTrials()-trials0), "count")
	planRows(m, plans0, sim.PlanLog())

	tr := newTracer()
	wallTraced, err := runOnce(w, tr, o.workload)
	if err != nil {
		return nil, err
	}
	w.check()
	m.set("trace.overhead_s", (wallTraced - wallUntraced).Seconds(), "s")

	all := []workload{w}
	for _, name := range workloadNames {
		if name == o.workload {
			continue
		}
		c, err := newWorkload(name, o, small, t)
		if err != nil {
			return nil, err
		}
		if _, err := runOnce(c, tr, name+"/small"); err != nil {
			return nil, err
		}
		c.check()
		all = append(all, c)
	}
	report, err := probes(tr, o.seed, m)
	if err != nil {
		return nil, err
	}

	spans := tr.snapshot()
	for _, c := range all {
		report = append(report, c.layers(m, spans)...)
	}
	for _, line := range report {
		fmt.Fprintln(log, line)
	}
	if o.spansDir != "" {
		if err := os.MkdirAll(o.spansDir, 0o755); err != nil {
			return nil, err
		}
		path := filepath.Join(o.spansDir, fmt.Sprintf("spans-%s-seed%d.json", o.workload, o.seed))
		if err := writeSpans(path, spans, report); err != nil {
			return nil, fmt.Errorf("writing spans: %w", err)
		}
	}
	return m, nil
}

// runOnce sets w up, runs it once from a collected heap and tears it down,
// returning the run's wall time. With a tracer, the run and its traced-only
// measurements hang under one root span tagged tag.
func runOnce(w workload, tr *tracer, tag string) (time.Duration, error) {
	if err := w.setup(); err != nil {
		return 0, err
	}
	defer w.teardown()
	runtime.GC()
	root := tr.begin("workload", tag, -1, -1)
	t0 := time.Now()
	err := w.run(tr, root)
	wall := time.Since(t0)
	tr.end(root)
	if err == nil && tr != nil {
		err = w.traceExtras(tr, root)
	}
	return wall, err
}

// planNames are the plans the auto planner can choose: the sparse and
// implicit engines always run scalar, the dense engine at a width from
// radio.BatchWidths. sim.plan_rows.other counts any other plan.
var planNames = []string{"sparse.w1", "implicit.w1", "dense.w1", "dense.w4", "dense.w8", "dense.w16"}

// planRows reports how many schedule rows got each execution plan between
// two snapshots of the process plan log.
func planRows(m metrics, before, after []benchreport.Plan) {
	counts := map[string]int{}
	for _, p := range after {
		counts[fmt.Sprintf("%s.w%d", p.Engine, p.Width)] += p.Count
	}
	for _, p := range before {
		counts[fmt.Sprintf("%s.w%d", p.Engine, p.Width)] -= p.Count
	}
	for _, name := range planNames {
		m.set("sim.plan_rows."+name, float64(counts[name]), "count")
		delete(counts, name)
	}
	other := 0
	for _, n := range counts {
		other += n
	}
	m.set("sim.plan_rows.other", float64(other), "count")
}

// resources is a snapshot of the process's resource use.
type resources struct {
	cpu    float64 // user+system CPU seconds
	alloc  float64 // bytes allocated since start (MemStats.TotalAlloc)
	maxRSS float64 // peak resident set, MB
}

func usage() resources {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		panic(fmt.Sprintf("getrusage: %v", err))
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return resources{
		cpu:    tv(ru.Utime) + tv(ru.Stime),
		alloc:  float64(ms.TotalAlloc),
		maxRSS: float64(ru.Maxrss) / 1024, // Linux reports KiB
	}
}

// quantile returns the q-quantile of xs by linear interpolation between
// order statistics; NaN for an empty sample.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(pos)
	if lo+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[lo] + (pos-float64(lo))*(s[lo+1]-s[lo])
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }
