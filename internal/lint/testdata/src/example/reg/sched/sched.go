// Package sched is the schedule-registry twin: a registry entry type
// with scalarName/batchName fields, helper-constructed and literal
// entries (with and without a batch name), and the three failure shapes —
// unregistered function, ghost registration, duplicate registration.
package sched

type Result struct{}

type MultiResult struct{}

type Entry struct {
	Name       string
	scalarName string
	batchName  string
}

func newEntry(name, scalarName, batchName string) Entry {
	return Entry{Name: name, scalarName: scalarName, batchName: batchName}
}

var registry = []Entry{
	newEntry("good", "Good", "GoodBatch"),
	{Name: "direct", scalarName: "Direct", batchName: "DirectBatch"},
	{Name: "trace", scalarName: "WithTrace", batchName: "TraceBatch"},
	newEntry("solo", "Solo", ""),
	{Name: "lone", scalarName: "Lone"},
	newEntry("ghost", "Ghost", "GoodBatch"), // want "Ghost, which is not an exported schedule-shaped function" "GoodBatch is reachable from two registry entries"
}

func Good() (Result, error) { return Result{}, nil }

func GoodBatch() ([]Result, error) { return nil, nil }

func Direct() (MultiResult, error) { return MultiResult{}, nil }

func DirectBatch() ([]MultiResult, error) { return nil, nil }

func WithTrace() (MultiResult, [][]byte, error) { return MultiResult{}, nil, nil }

func TraceBatch() ([]MultiResult, error) { return nil, nil }

func Solo() (MultiResult, error) { return MultiResult{}, nil }

func Lone() (Result, error) { return Result{}, nil }

func Orphan() (Result, error) { return Result{}, nil } // want "not reachable from any registry entry"

// Helper is exported but not schedule-shaped: no registration required.
func Helper() error { return nil }

var _ = registry
