package main

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"

	"noisyradio/internal/experiments"
	"noisyradio/internal/radio"
	"noisyradio/internal/sim"
)

// defaultSeed is the seed the committed digests are for; it is also the
// seed of the repository's quick-suite golden.
const defaultSeed = 1

// suiteDigests are the SHA-256 digests of the suite's JSON tables (encoded
// as `noisysim -exp all -json` prints them) at defaultSeed. "quick" equals
// the digest of internal/experiments/testdata/golden_quick.json.
var suiteDigests = map[string]string{
	"full":  "cb52a3b09a46a0d80babdb93149a1ea1f2ddf5e455bc28e96eaaa021c2b2de10",
	"quick": "2dd813986b66994239c473c23263c8658e857250d550dc47b92f5a53000f171c",
}

// paperSuite runs every table of the paper-claim registry, as a reader of
// the paper does with `noisysim -exp all`: auto engine, auto trial-batch
// plan, one worker per CPU. At small size it runs the quick suite.
type paperSuite struct {
	seed    uint64
	size    size
	workers int
	digests map[string]string
	t       *tally

	quickAuto []byte // the quick suite under the auto plan, from setup
	out, prev []byte // this and the previous run's tables
	tableSpan map[string]int
}

func (p *paperSuite) config(quick bool) experiments.Config {
	return experiments.Config{Seed: p.seed, Workers: p.workers, TrialBatch: sim.TrialBatchAuto, Quick: quick}
}

func (p *paperSuite) digestKey() string {
	if p.size == small {
		return "quick"
	}
	return "full"
}

// setup runs the quick suite under the auto plan: it warms the process
// (code, pools, lazily built tables) before the timed run, and its output
// is one side of the quick-suite cross-check.
func (p *paperSuite) setup() error {
	out, err := runSuite(p.config(true), nil, -1, nil)
	if err != nil {
		return fmt.Errorf("paper-suite setup: %w", err)
	}
	p.quickAuto = out
	return nil
}

func (p *paperSuite) run(tr *tracer, root int) error {
	p.tableSpan = map[string]int{}
	out, err := runSuite(p.config(p.size == small), tr, root, p.tableSpan)
	p.t.op(err == nil, "paper-suite: %v", err)
	if err != nil {
		return nil
	}
	p.prev, p.out = p.out, out
	if p.prev != nil {
		p.t.op(bytes.Equal(p.prev, p.out), "paper-suite: tables differ between two runs of seed %d", p.seed)
	}
	if p.seed == defaultSeed {
		got := digest(p.out)
		p.t.op(got == p.digests[p.digestKey()], "paper-suite: %s suite digest %s, committed %s", p.digestKey(), got, p.digests[p.digestKey()])
	}
	return nil
}

func (p *paperSuite) teardown() {}

// check: at any seed the quick suite must be byte-equal between the
// plainest plan (sparse engine, scalar trials, one worker) and auto.
func (p *paperSuite) check() {
	cfg := experiments.Config{Seed: p.seed, Workers: 1, Engine: radio.Sparse, TrialBatch: 0, Quick: true}
	plain, err := runSuite(cfg, nil, -1, nil)
	p.t.op(err == nil, "paper-suite: quick suite on the sparse scalar plan: %v", err)
	p.t.op(err == nil && bytes.Equal(plain, p.quickAuto), "paper-suite: quick suite differs between the sparse scalar plan and auto at seed %d", p.seed)
	if p.seed == defaultSeed {
		got := digest(p.quickAuto)
		p.t.op(got == p.digests["quick"], "paper-suite: quick suite digest %s, committed %s", got, p.digests["quick"])
	}
}

func (p *paperSuite) traceExtras(*tracer, int) error { return nil }

func (p *paperSuite) layers(m metrics, spans []span) []string {
	for _, e := range experiments.Registry() {
		s := spans[p.tableSpan[e.ID]]
		m.set("experiments.table_s."+e.ID, s.dur().Seconds(), "s")
	}
	return nil
}

// runSuite runs every registry table and returns them encoded exactly as
// `noisysim -exp all -json` prints them. With a tracer it records one span
// per table into spansByID.
func runSuite(cfg experiments.Config, tr *tracer, root int, spansByID map[string]int) ([]byte, error) {
	reg := experiments.Registry()
	tables := make([]experiments.Table, 0, len(reg))
	for i, e := range reg {
		h := tr.begin("experiments.Entry.Run", e.ID, root, int64(i))
		tbl, err := e.Run(cfg)
		tr.end(h)
		if spansByID != nil {
			spansByID[e.ID] = h
		}
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		tables = append(tables, tbl)
	}
	var buf bytes.Buffer
	enc := json.NewEncoder(&buf)
	enc.SetIndent("", "  ")
	if err := enc.Encode(tables); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

func digest(b []byte) string {
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:])
}
