package main

import (
	"bytes"
	"encoding/json"
	"os"
	"strings"
	"testing"
)

type benchmarkFile struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

func loadBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var b benchmarkFile
	if err := json.Unmarshal(raw, &b); err != nil {
		t.Fatal(err)
	}
	return b
}

func runSmall(t *testing.T, o options) (*result, string) {
	t.Helper()
	o.size = small
	if o.seed == 0 {
		o.seed = defaultSeed
	}
	o.spansDir = t.TempDir()
	var log bytes.Buffer
	res, err := run(&o, &log)
	if err != nil {
		t.Fatalf("%s: %v\n%s", o.workload, err, log.String())
	}
	return res, log.String()
}

// Every workload, at small size, prints exactly the metrics BENCHMARK.json
// names, each with its unit, and passes its checks.
func TestSmallWorkloadsPrintEveryMetric(t *testing.T) {
	b := loadBenchmarkFile(t)
	for _, name := range workloadNames {
		for _, trace := range []bool{false, true} {
			want := b.EndToEnd
			if trace {
				want = b.PerLayer
			}
			res, log := runSmall(t, options{workload: name, trace: trace})
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d\n%s", name, trace, res.Correct, res.Attempted, res.Failed, log)
			}
			for _, w := range want {
				got, ok := res.Metrics[w.Name]
				if !ok || got.Unit != w.Unit {
					t.Errorf("%s trace=%v: metric %s = %+v (present %v), want unit %s", name, trace, w.Name, got, ok, w.Unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics printed, BENCHMARK.json names %d", name, trace, len(res.Metrics), len(want))
			}
		}
	}
}

// A wrong committed digest fails the run.
func TestCorruptDigestFailsRun(t *testing.T) {
	bad := map[string]string{"full": suiteDigests["full"], "quick": strings.Repeat("0", 64)}
	res, log := runSmall(t, options{workload: "paper-suite", digests: bad})
	if res.Failed == 0 || res.Correct || exitCode(res, nil) == 0 {
		t.Fatalf("corrupted digest: correct=%v failed=%d\n%s", res.Correct, res.Failed, log)
	}
	if !strings.Contains(log, "digest") {
		t.Errorf("failure log does not name the digest:\n%s", log)
	}
}

// A replayed body that differs from the cold body fails the run.
func TestTamperedBodyFailsRun(t *testing.T) {
	flip := func(b []byte) []byte {
		c := append([]byte(nil), b...)
		c[len(c)/2] ^= 1
		return c
	}
	res, log := runSmall(t, options{workload: "serve-mix", tamper: flip})
	if res.Failed == 0 || res.Correct || exitCode(res, nil) == 0 {
		t.Fatalf("tampered body: correct=%v failed=%d\n%s", res.Correct, res.Failed, log)
	}
}
