package experiments

import (
	"math"
	"testing"

	"noisyradio/internal/broadcast"
)

// TestWorkloadRejectsNBeyondInt32: sizes whose node ids overflow int32 are
// usage errors for every schedule, including those that build their own
// graphs, before any graph or per-node state is allocated.
func TestWorkloadRejectsNBeyondInt32(t *testing.T) {
	const n = math.MaxInt32 + 1
	for _, c := range []struct{ schedule, topology string }{
		{"decay", "complete"},
		{"star-routing", ""},
		{"wct-routing", ""},
		{"path-pipeline-routing", ""},
		{"single-link-adaptive", ""},
	} {
		if _, _, err := ScheduleWorkload(broadcast.MustSchedule(c.schedule), c.topology, n, 1, 1); err == nil {
			t.Errorf("ScheduleWorkload(%s, %q, n=%d) accepted", c.schedule, c.topology, n)
		}
	}
	if _, err := WorkloadTopology("path", n); err == nil {
		t.Errorf("WorkloadTopology(path, n=%d) accepted", n)
	}
}
