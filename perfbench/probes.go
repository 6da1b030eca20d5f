package main

import (
	"fmt"
	"time"

	"noisyradio/internal/bitset"
	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/radio"
	"noisyradio/internal/rlnc"
	"noisyradio/internal/rng"
	"noisyradio/internal/rs"
	"noisyradio/internal/stats"
)

// sink keeps probe results live so the compiler cannot drop the calls.
var sink int

// probes measures the single layers below the workloads by calling their
// public functions in loops on fixed inputs drawn from seed. One span
// covers each loop: a span per call would cost more than the call.
func probes(tr *tracer, seed uint64, m metrics) ([]string, error) {
	root := tr.begin("probes", "", -1, -1)
	defer tr.end(root)
	report, err := broadcastProbe(tr, root, seed, m)
	if err != nil {
		return nil, err
	}

	step := func(tag string, top graph.Topology, cfg radio.Config, tx *bitset.Set) (float64, error) {
		net, err := radio.New[int32](top.G, cfg, rng.New(seed))
		if err != nil {
			return 0, fmt.Errorf("probe %s: %w", tag, err)
		}
		payload := make([]int32, top.G.N())
		rx := bitset.New(top.G.N())
		return timeOps(tr, "radio.Network.StepSet", tag, root, func(n int) {
			for i := 0; i < n; i++ {
				rx.Reset()
				net.StepSet(tx, payload, rx, nil)
			}
		}), nil
	}
	// Each engine on its home topology, n/64 contiguous broadcasters as in
	// an early Decay phase; the star's hub alone gives 4096 touched
	// listeners per round.
	grid, star := graph.Grid(64, 64), graph.Star(4096)
	complete, implicit := graph.Complete(2048), graph.ImplicitComplete(16384)
	hub := bitset.New(star.G.N())
	hub.Set(0)
	for _, c := range []struct {
		name string
		top  graph.Topology
		cfg  radio.Config
		tx   *bitset.Set
	}{
		{"sparse", grid, radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Sparse}, band(grid.G.N())},
		{"sparse-star4096", star, radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Sparse}, hub},
		{"dense", complete, radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Dense}, band(complete.G.N())},
		{"implicit", implicit, radio.Config{Fault: radio.SenderFaults, P: 0.1, Engine: radio.Implicit}, band(implicit.G.N())},
	} {
		ns, err := step(c.name, c.top, c.cfg, c.tx)
		if err != nil {
			return nil, err
		}
		m.set("radio.stepset_ns."+c.name, ns, "ns")
	}

	// StepBatch at W=16 on the dense engine, per trial-round.
	const w = 16
	rnds := make([]*rng.Stream, w)
	for l := range rnds {
		rnds[l] = rng.NewFrom(seed, uint64(l))
	}
	bnet, err := radio.NewBatch[int32](complete.G, radio.Config{Fault: radio.ReceiverFaults, P: 0.3, Engine: radio.Dense}, rnds)
	if err != nil {
		return nil, fmt.Errorf("probe stepbatch: %w", err)
	}
	btx, brx := bitset.NewBlock(complete.G.N(), w), bitset.NewBlock(complete.G.N(), w)
	scalarTx := band(complete.G.N())
	for l := 0; l < w; l++ {
		btx.LaneCopyFrom(l, scalarTx)
	}
	ns := timeOps(tr, "radio.BatchNetwork.StepBatch", "w16", root, func(n int) {
		for i := 0; i < n; i++ {
			brx.Reset()
			bnet.StepBatch(btx, nil, brx, 1<<w-1, nil)
		}
	})
	m.set("radio.stepbatch_ns.w16", ns/w, "ns")

	// Sender-fault draws at p = 0.001 over 10⁵ sites: every node of an
	// implicit complete graph broadcasts, so no listener resolves and the
	// round is the draw contract's marking pass.
	sites := graph.ImplicitComplete(100000)
	all := bitset.New(sites.G.N())
	all.Fill()
	for _, dc := range radio.DrawContracts() {
		ns, err := step("faultdraw-"+dc.String(), sites, radio.Config{Fault: radio.SenderFaults, P: 0.001, Draw: dc, Engine: radio.Implicit}, all)
		if err != nil {
			return nil, err
		}
		m.set("radio.faultdraw_ns."+dc.String(), ns, "ns")
	}

	// Geometric draws at Decay's phase probabilities 2^-1 .. 2^-11.
	var probs [11]float64
	var geos [11]rng.Geometric
	for i := range probs {
		probs[i] = 1 / float64(uint(2)<<i)
		geos[i] = rng.NewGeometric(probs[i])
	}
	r := rng.New(seed)
	m.set("rng.geometric_ns", timeOps(tr, "rng.Stream.Geometric", "", root, func(n int) {
		for i := 0; i < n; i++ {
			sink += r.Geometric(probs[i%len(probs)])
		}
	}), "ns")
	m.set("rng.geometric_hoisted_ns", timeOps(tr, "rng.Geometric.Draw", "", root, func(n int) {
		for i := 0; i < n; i++ {
			sink += geos[i%len(geos)].Draw(r)
		}
	}), "ns")

	ns, err = rlncInsert(tr, root, seed)
	if err != nil {
		return nil, err
	}
	m.set("rlnc.insert_ns", ns, "ns")

	code, err := rs.New(8, 12)
	if err != nil {
		return nil, err
	}
	data := make([][]byte, 8)
	for i := range data {
		data[i] = make([]byte, 1024)
		r.Bytes(data[i])
	}
	if _, err := code.Encode(data); err != nil {
		return nil, err
	}
	m.set("rs.encode_ns", timeOps(tr, "rs.Code.Encode", "8of12x1KiB", root, func(n int) {
		for i := 0; i < n; i++ {
			out, _ := code.Encode(data) // the same input succeeded above
			sink += len(out)
		}
	}), "ns")

	// Accumulator.Add over round-count-like values; Merge of eight shard
	// accumulators into a fresh one, as the sweep service merges shards.
	values := make([]float64, 4096)
	for i := range values {
		values[i] = float64(20 + r.Intn(200))
	}
	acc := stats.NewAccumulator()
	m.set("stats.add_ns", timeOps(tr, "stats.Accumulator.Add", "", root, func(n int) {
		for i := 0; i < n; i++ {
			acc.Add(values[i%len(values)])
		}
	}), "ns")
	shards := make([]*stats.Accumulator, 8)
	for k := range shards {
		shards[k] = stats.NewAccumulator()
		for _, v := range values[k*64 : (k+1)*64] {
			shards[k].Add(v)
		}
	}
	m.set("stats.merge_ns", timeOps(tr, "stats.Accumulator.Merge", "8x64", root, func(n int) {
		for i := 0; i < n; i++ {
			merged := stats.NewAccumulator()
			for _, s := range shards {
				merged.Merge(s)
			}
			sink += merged.N()
		}
	})/float64(len(shards)), "ns")

	specs, _ := jobList(seed, full)
	m.set("benchreport.plankey_ns", timeOps(tr, "benchreport.JobSpec.PlanKey", "", root, func(n int) {
		for i := 0; i < n; i++ {
			sink += len(specs[i%len(specs)].PlanKey())
		}
	}), "ns")
	return report, nil
}

// broadcastProbe times Schedule.Run per trial for the paper suite's main
// schedules on a sparse grid, and sums the outcomes' exact round and
// channel counts.
func broadcastProbe(tr *tracer, root int, seed uint64, m metrics) ([]string, error) {
	const trials = 32
	top := graph.Grid(32, 32)
	cfg := radio.Config{Fault: radio.ReceiverFaults, P: 0.3}
	var rounds int64
	var ch radio.Stats
	var elapsed time.Duration
	for si, c := range []struct {
		name   string
		params broadcast.ScheduleParams
	}{
		{"decay", broadcast.ScheduleParams{}},
		{"fastbc", broadcast.ScheduleParams{}},
		{"robust-fastbc", broadcast.ScheduleParams{}},
		{"sequential-decay-routing", broadcast.ScheduleParams{K: 4}},
	} {
		sched := broadcast.MustSchedule(c.name)
		per := make([]float64, 0, trials)
		for t := 0; t < trials; t++ {
			rs := rng.NewFrom(seed, uint64(si)<<32|uint64(t))
			h := tr.begin("broadcast.Schedule.Run", c.name, root, int64(t))
			t0 := time.Now()
			out, err := sched.Run(top, cfg, rs, c.params)
			d := time.Since(t0)
			tr.end(h)
			if err != nil {
				return nil, fmt.Errorf("broadcast probe %s: %w", c.name, err)
			}
			per = append(per, float64(d.Nanoseconds())/1e3)
			elapsed += d
			rounds += int64(out.Rounds)
			ch.Broadcasts += out.Channel.Broadcasts
			ch.Deliveries += out.Channel.Deliveries
			ch.Collisions += out.Channel.Collisions
			ch.SenderFaults += out.Channel.SenderFaults
			ch.ReceiverFaults += out.Channel.ReceiverFaults
		}
		m.set("broadcast.trial_us."+c.name, median(per), "us")
	}
	m.set("broadcast.rounds", float64(rounds), "count")
	m.set("broadcast.ns_per_round", float64(elapsed.Nanoseconds())/float64(rounds), "ns")
	m.set("radio.broadcasts", float64(ch.Broadcasts), "count")
	m.set("radio.deliveries", float64(ch.Deliveries), "count")
	m.set("radio.collisions", float64(ch.Collisions), "count")
	m.set("radio.faults", float64(ch.SenderFaults+ch.ReceiverFaults), "count")
	m.set("radio.deliveries_per_broadcast", float64(ch.Deliveries)/float64(ch.Broadcasts), "ratio")
	return []string{fmt.Sprintf("broadcast probe (%s, receiver faults p=0.3, %d trials each): rounds=%d broadcasts=%d deliveries=%d collisions=%d faults=%d",
		top.Name, trials, rounds, ch.Broadcasts, ch.Deliveries, ch.Collisions, ch.SenderFaults+ch.ReceiverFaults)}, nil
}

// rlncInsert times Decoder.InsertPacket at E6's largest k (64, 8-byte
// payloads), filling decoders to full rank from random combinations made
// before the timed loop (an insert consumes its packet).
func rlncInsert(tr *tracer, root int, seed uint64) (float64, error) {
	const k, payload, fills = 64, 8, 8
	r := rng.NewFrom(seed, 0x726c6e63)
	msgs := make([][]byte, k)
	for i := range msgs {
		msgs[i] = make([]byte, payload)
		r.Bytes(msgs[i])
	}
	src, err := rlnc.SourceDecoder(msgs)
	if err != nil {
		return 0, err
	}
	h := tr.begin("rlnc.Decoder.InsertPacket", "k64", root, -1)
	defer tr.end(h)
	var per []float64
	for rep := 0; rep < 5; rep++ {
		pkts := make([]rlnc.Packet, 0, fills*(k+8))
		for len(pkts) < cap(pkts) {
			if p, ok := src.RandomCombination(r); ok {
				pkts = append(pkts, p)
			}
		}
		inserts := 0
		t0 := time.Now()
		for f, next := 0, 0; f < fills && next < len(pkts); f++ {
			d := rlnc.NewDecoder(k, payload)
			for !d.CanDecode() && next < len(pkts) {
				if _, err := d.InsertPacket(pkts[next]); err != nil {
					return 0, err
				}
				next++
				inserts++
			}
		}
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(inserts))
	}
	return median(per), nil
}

// band is the probe broadcast set: n/64 contiguous broadcasters from the
// middle of the id range.
func band(n int) *bitset.Set {
	tx := bitset.New(n)
	for v := n / 2; v < n/2+n/64; v++ {
		tx.Set(v)
	}
	return tx
}

// timeOps calibrates op(n) to about 10 ms, then returns the median ns per
// operation over five such loops, all under one span.
func timeOps(tr *tracer, name, tag string, root int, op func(n int)) float64 {
	h := tr.begin(name, tag, root, -1)
	defer tr.end(h)
	n := 1
	for {
		t0 := time.Now()
		op(n)
		d := time.Since(t0)
		if d >= 2*time.Millisecond {
			n = max(1, int(float64(n)*float64(10*time.Millisecond)/float64(d)))
			break
		}
		n *= 4
	}
	per := make([]float64, 0, 5)
	for i := 0; i < 5; i++ {
		t0 := time.Now()
		op(n)
		per = append(per, float64(time.Since(t0).Nanoseconds())/float64(n))
	}
	return median(per)
}
