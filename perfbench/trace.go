package main

import (
	"encoding/json"
	"os"
	"sort"
	"sync"
	"time"
)

// span is one timed call into the program, recorded by the benchmark
// around the call. Spans stay in memory until the run ends.
type span struct {
	Name   string `json:"name"`
	Tag    string `json:"tag,omitempty"` // table id, row or spec name
	ID     int64  `json:"id"`            // trial, batch-start or job index; -1 when none
	Parent int    `json:"parent"`        // index of the causing span; -1 for a root
	Start  int64  `json:"start_ns"`      // since the tracer's epoch
	End    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer records spans. A nil *tracer records nothing, so untraced runs
// pass nil and pay one nil check per call site.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its handle for end.
func (t *tracer) begin(name, tag string, parent int, id int64) int {
	if t == nil {
		return -1
	}
	start := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Tag: tag, ID: id, Parent: parent, Start: start, End: -1})
	return len(t.spans) - 1
}

func (t *tracer) end(h int) {
	if t == nil {
		return
	}
	end := time.Since(t.epoch).Nanoseconds()
	t.mu.Lock()
	t.spans[h].End = end
	t.mu.Unlock()
}

// snapshot returns a copy of the recorded spans.
func (t *tracer) snapshot() []span {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]span(nil), t.spans...)
}

// children indexes spans by parent.
func children(spans []span) map[int][]int {
	out := make(map[int][]int)
	for i, s := range spans {
		if s.Parent >= 0 {
			out[s.Parent] = append(out[s.Parent], i)
		}
	}
	return out
}

// selfTime is a span's duration minus the part of its interval that its
// child spans cover (children may overlap when they run on several
// workers, so the union is subtracted, not the sum).
func selfTime(spans []span, kids []int, i int) time.Duration {
	s := spans[i]
	type iv struct{ lo, hi int64 }
	ivs := make([]iv, 0, len(kids))
	for _, k := range kids {
		lo, hi := max(spans[k].Start, s.Start), min(spans[k].End, s.End)
		if hi > lo {
			ivs = append(ivs, iv{lo, hi})
		}
	}
	sort.Slice(ivs, func(a, b int) bool { return ivs[a].lo < ivs[b].lo })
	var covered, curLo, curHi int64
	curLo, curHi = -1, -1
	for _, v := range ivs {
		if v.lo > curHi {
			if curHi > curLo {
				covered += curHi - curLo
			}
			curLo, curHi = v.lo, v.hi
		} else if v.hi > curHi {
			curHi = v.hi
		}
	}
	if curHi > curLo {
		covered += curHi - curLo
	}
	return s.dur() - time.Duration(covered)
}

// writeSpans writes the spans and the run's free-form report as JSON.
func writeSpans(path string, spans []span, report []string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	enc := json.NewEncoder(f)
	if err := enc.Encode(struct {
		Report []string `json:"report"`
		Spans  []span   `json:"spans"`
	}{report, spans}); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
