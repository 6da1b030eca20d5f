package main

import (
	"fmt"
	"math"
	"time"

	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rng"
	"noisyradio/internal/sim"
	"noisyradio/internal/stats"
)

// denseSweep runs schedule rows on explicit dense graphs through
// sim.Sweep.AddSchedule with the default auto plan: the dense engine and
// the trial-batch plane do the work here, unlike in the paper suite.
type denseSweep struct {
	seed    uint64
	size    size
	workers int
	t       *tally

	rows    []denseRow
	buildS  float64     // graph construction time of the last setup
	planned []accDigest // accumulators of the last planned run
	scalar  []accDigest // accumulators of the forced-scalar per-row runs, when traced

	sweepSpans []int
	rowTimes   []rowTiming
}

type denseRow struct {
	name   string
	sched  *broadcast.Schedule
	top    graph.Topology
	params broadcast.ScheduleParams
	trials int
	seed   uint64
}

// rowTiming is the trial-batch plane's evidence for one row: the plan the
// planner picks and what it buys over forced-scalar execution.
type rowTiming struct {
	engine          radio.Engine
	width           int
	reason          string
	planned, scalar time.Duration
}

var denseNoise = radio.Config{Fault: radio.ReceiverFaults, P: 0.3}

func (d *denseSweep) setup() error {
	gnpN, completeN, routingN := 2048, 2048, 1024
	trials := [3]int{256, 256, 128}
	if d.size == small {
		gnpN, completeN, routingN = 256, 256, 128
		trials = [3]int{32, 32, 16}
	}
	t0 := time.Now()
	gnp := graph.GNP(gnpN, 0.3, rng.NewFrom(d.seed, 0x676e70))
	complete := graph.Complete(completeN)
	routing := graph.Complete(routingN)
	for _, top := range []graph.Topology{gnp, complete, routing} {
		top.G.AdjacencyBits() // the dense engine's lazily built bit matrix
	}
	d.buildS = time.Since(t0).Seconds()
	rowSeed := func(i uint64) uint64 { return rng.NewFrom(d.seed, 0x726f77+i).Uint64() }
	decay := broadcast.MustSchedule("decay")
	d.rows = []denseRow{
		{"decay-gnp", decay, gnp, broadcast.ScheduleParams{}, trials[0], rowSeed(0)},
		{"decay-complete", decay, complete, broadcast.ScheduleParams{}, trials[1], rowSeed(1)},
		{"routing-complete", broadcast.MustSchedule("sequential-decay-routing"), routing, broadcast.ScheduleParams{K: 8}, trials[2], rowSeed(2)},
	}
	return nil
}

func (d *denseSweep) run(tr *tracer, root int) error {
	accs, _, err := d.sweep(tr, root, d.rows, sim.TrialBatchAuto)
	if err != nil {
		return err
	}
	if d.planned != nil {
		for i, r := range d.rows {
			d.t.op(accs[i] == d.planned[i], "dense-sweep: row %s differs between two planned runs", r.name)
		}
	}
	d.planned = accs
	return nil
}

func (d *denseSweep) teardown() {}

// check: each row's accumulator must be identical between the planned run
// and a forced-scalar run.
func (d *denseSweep) check() {
	scalar := d.scalar
	if scalar == nil {
		var err error
		scalar, _, err = d.sweep(nil, -1, d.rows, 0)
		if err != nil {
			d.t.op(false, "dense-sweep: forced-scalar run: %v", err)
			return
		}
	}
	for i, r := range d.rows {
		d.t.op(scalar[i] == d.planned[i], "dense-sweep: row %s differs between the planned and the forced-scalar run", r.name)
	}
}

// traceExtras times each row alone, planned and forced scalar: the
// evidence the trial-batch plane's keep-or-delete decision needs.
func (d *denseSweep) traceExtras(tr *tracer, root int) error {
	d.scalar = make([]accDigest, len(d.rows))
	d.rowTimes = make([]rowTiming, len(d.rows))
	for i, r := range d.rows {
		engine := denseNoise.ResolveEngine(r.top.G)
		w, reason := radio.PlanBatchWidth(engine, r.trials)
		_, planned, err := d.sweep(tr, root, d.rows[i:i+1], sim.TrialBatchAuto)
		if err != nil {
			return err
		}
		accs, scalar, err := d.sweep(tr, root, d.rows[i:i+1], 0)
		if err != nil {
			return err
		}
		d.scalar[i] = accs[0]
		d.rowTimes[i] = rowTiming{engine, w, reason, planned, scalar}
	}
	return nil
}

func (d *denseSweep) layers(m metrics, spans []span) []string {
	kids := children(spans)
	var report []string
	var self, sweepWorkerTime, trialTime time.Duration
	for _, h := range d.sweepSpans {
		self += selfTime(spans, kids[h], h)
		sweepWorkerTime += spans[h].dur() * time.Duration(d.workers)
		for _, k := range kids[h] {
			trialTime += spans[k].dur()
		}
	}
	m.set("sim.self_s", self.Seconds(), "s")
	m.set("sim.busy_frac", trialTime.Seconds()/sweepWorkerTime.Seconds(), "ratio")
	m.set("graph.build_s", d.buildS, "s")
	for i, r := range d.rows {
		rt := d.rowTimes[i]
		m.set("radio.batch_speedup."+r.name, rt.scalar.Seconds()/rt.planned.Seconds(), "ratio")
		m.set("radio.plan_w."+r.name, float64(rt.width), "count")
		report = append(report, fmt.Sprintf("dense-sweep row %s (%s, n=%d, %d trials): engine=%s W=%d reason=%q planned=%.3fs scalar=%.3fs batch_speedup=%.3f",
			r.name, r.sched.Name, r.top.G.N(), r.trials, rt.engine, rt.width, rt.reason, rt.planned.Seconds(), rt.scalar.Seconds(), rt.scalar.Seconds()/rt.planned.Seconds()))
	}
	return report
}

// sweep runs rows on one sweep with the given trial-batch plan and returns
// each row's accumulator and the sweep's wall time. Untraced, rows go
// through AddSchedule; traced, through AddBatch with a span around every
// Schedule.Run and RunBatch call. On the dense engine the auto planner
// treats both registrations alike (an AddBatch row plans as dense).
func (d *denseSweep) sweep(tr *tracer, root int, rows []denseRow, trialBatch int) ([]accDigest, time.Duration, error) {
	sw := sim.NewSweep(sim.SweepConfig{Workers: d.workers, TrialBatch: trialBatch})
	h := tr.begin("sim.Sweep.Run", fmt.Sprintf("trialbatch=%d", trialBatch), root, -1)
	handles := make([]*sim.Row, len(rows))
	for i, r := range rows {
		if tr == nil {
			handles[i] = sw.AddSchedule(r.sched, r.top, denseNoise, r.params, r.trials, r.seed, roundsValue)
			continue
		}
		r := r
		scalar := func(trial int, rs *rng.Stream) (float64, error) {
			s := tr.begin("broadcast.Schedule.Run", r.name, h, int64(trial))
			out, err := r.sched.Run(r.top, denseNoise, rs, r.params)
			tr.end(s)
			if err != nil {
				return 0, err
			}
			return roundsValue(out)
		}
		batch := func(start int, rnds []*rng.Stream) ([]float64, []error) {
			s := tr.begin("broadcast.Schedule.RunBatch", r.name, h, int64(start))
			outs, err := r.sched.RunBatch(r.top, denseNoise, rnds, r.params)
			tr.end(s)
			return sim.AdaptBatch(func([]*rng.Stream) ([]broadcast.Outcome, error) { return outs, err }, roundsValue)(start, rnds)
		}
		handles[i] = sw.AddBatch(r.trials, r.seed, scalar, batch)
	}
	t0 := time.Now()
	err := sw.Run()
	wall := time.Since(t0)
	tr.end(h)
	if tr != nil {
		d.sweepSpans = append(d.sweepSpans, h)
	}
	if err != nil {
		return nil, 0, fmt.Errorf("dense-sweep: %w", err)
	}
	accs := make([]accDigest, len(rows))
	for i, row := range handles {
		accs[i] = digestAcc(row.Acc())
	}
	return accs, wall, nil
}

// roundsValue folds rounds to completion, a failed trial as the
// accumulator's NaN sentinel — the statistic the sweep service folds.
func roundsValue(o broadcast.Outcome) (float64, error) {
	if !o.Success {
		return math.NaN(), nil
	}
	return float64(o.Rounds), nil
}

// accDigest is an accumulator's every reported statistic, bit for bit.
type accDigest [10]uint64

func digestAcc(a *stats.Accumulator) accDigest {
	b := math.Float64bits
	return accDigest{uint64(a.N()), uint64(a.Dropped()), b(a.Sum()), b(a.Mean()), b(a.Variance()),
		b(a.Min()), b(a.Max()), b(a.Median()), b(a.P10()), b(a.P90())}
}
