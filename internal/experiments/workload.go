package experiments

import (
	"fmt"
	"math"

	"noisyradio/internal/broadcast"
	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// LargeNImplicit is the node count at which WorkloadTopology switches the
// workload to the CSR-less implicit storage mode: past it, materialized
// adjacency (a Θ(n²/8)-byte bit matrix, an O(m) CSR) stops fitting memory
// for the dense topologies on offer, while every offered topology has a
// closed-form NeighborModel. Engines are bit-identical across storage
// modes, so the switch never changes output.
const LargeNImplicit = 4096

// WorkloadTopology builds the named size-n workload graph for demo,
// schedule and sweep-service runs, validating the caller-supplied sizes
// up front so the graph generators' panics surface as usage errors
// instead of crashes. Topology names are the CLI -topology vocabulary:
// path | complete | star | cycle | grid | hypercube.
func WorkloadTopology(name string, n int) (graph.Topology, error) {
	if n < 2 {
		return graph.Topology{}, fmt.Errorf("topology %s needs n >= 2, got %d", name, n)
	}
	if err := checkMaxN(n); err != nil {
		return graph.Topology{}, err
	}
	implicit := n >= LargeNImplicit
	switch name {
	case "path":
		if implicit {
			return graph.ImplicitPath(n), nil
		}
		return graph.Path(n), nil
	case "complete":
		if implicit {
			return graph.ImplicitComplete(n), nil
		}
		return graph.Complete(n), nil
	case "star":
		if implicit {
			return graph.ImplicitStar(n - 1), nil
		}
		return graph.Star(n - 1), nil
	case "cycle":
		if n < 3 {
			return graph.Topology{}, fmt.Errorf("topology cycle needs n >= 3, got %d", n)
		}
		if implicit {
			return graph.ImplicitCycle(n), nil
		}
		return graph.Cycle(n), nil
	case "grid":
		side := int(math.Sqrt(float64(n)))
		for side*side < n {
			side++
		}
		for side*side > n {
			side--
		}
		if side < 1 || side*side != n {
			return graph.Topology{}, fmt.Errorf("topology grid needs a square n, got %d (nearest squares: %d, %d)", n, side*side, (side+1)*(side+1))
		}
		if implicit {
			return graph.ImplicitGrid(side, side), nil
		}
		return graph.Grid(side, side), nil
	case "hypercube":
		if n&(n-1) != 0 {
			return graph.Topology{}, fmt.Errorf("topology hypercube needs a power-of-two n, got %d", n)
		}
		dim := 0
		for 1<<uint(dim+1) <= n {
			dim++
		}
		if dim > 30 {
			return graph.Topology{}, fmt.Errorf("topology hypercube supports at most 2^30 nodes, got 2^%d", dim)
		}
		if implicit {
			return graph.ImplicitHypercube(dim), nil
		}
		return graph.Hypercube(dim), nil
	default:
		return graph.Topology{}, fmt.Errorf("unknown topology %q (path|complete|star|cycle|grid|hypercube)", name)
	}
}

// ScheduleWorkload builds the topology and parameters a schedule run
// executes: a size-n workload shaped for the schedule (the named topology
// graph for topology-taking schedules, star leaves, a WCT instance, a
// pipeline length), with k messages for multi-message schedules. It also
// rejects schedule/storage combinations that cannot execute — the FASTBC
// family builds a BFS tree up front, which the implicit storage mode
// cannot serve — so both the CLI and the sweep service fail these as
// usage errors rather than let the graph layer panic mid-job.
func ScheduleWorkload(sched *broadcast.Schedule, topology string, n, k int, seed uint64) (graph.Topology, broadcast.ScheduleParams, error) {
	if n < 2 {
		return graph.Topology{}, broadcast.ScheduleParams{}, fmt.Errorf("schedule run needs n >= 2, got %d", n)
	}
	if err := checkMaxN(n); err != nil {
		return graph.Topology{}, broadcast.ScheduleParams{}, err
	}
	if k < 1 {
		return graph.Topology{}, broadcast.ScheduleParams{}, fmt.Errorf("schedule run needs k >= 1, got %d", k)
	}
	p := broadcast.ScheduleParams{}
	if sched.Kind == broadcast.MultiMessage {
		p.K = k
	}
	switch sched.Name {
	case "star-routing", "star-coding":
		p.Leaves = n
		return graph.Topology{}, p, nil
	case "wct-routing", "wct-coding":
		p.WCT = graph.NewWCT(graph.DefaultWCTParams(n), rng.NewFrom(seed, 1<<32))
		return graph.Topology{}, p, nil
	case "single-link-nonadaptive", "single-link-adaptive", "single-link-coding":
		return graph.Topology{}, p, nil
	case "path-pipeline-routing", "transformed-path-routing", "transformed-path-coding":
		p.PathLen = n
		return graph.Topology{}, p, nil
	default:
		top, err := WorkloadTopology(topology, n)
		if err != nil {
			return graph.Topology{}, p, err
		}
		if top.G != nil && !top.G.HasCSR() && (sched.Name == "fastbc" || sched.Name == "robust-fastbc") {
			return graph.Topology{}, p, fmt.Errorf("schedule %s needs materialized adjacency, but n %d >= %d builds the implicit form; use a smaller n", sched.Name, n, LargeNImplicit)
		}
		return top, p, nil
	}
}

// checkMaxN rejects workload sizes whose node ids overflow the graph
// layer's int32 storage, for every schedule: those that build their own
// graphs (star, WCT, path pipelines) as well as the named topologies.
func checkMaxN(n int) error {
	if n > math.MaxInt32 {
		return fmt.Errorf("n must be <= %d (node ids are int32), got %d", math.MaxInt32, n)
	}
	return nil
}
