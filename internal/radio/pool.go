package radio

import (
	"runtime"
	"sync"
	"weak"

	"noisyradio/internal/graph"
	"noisyradio/internal/rng"
)

// poolKey identifies networks that are interchangeable after a Reset: the
// same graph, fault environment, engine selection, draw-contract version
// with its parameters, and batch width (0 for
// scalar networks — a scalar checkout must never be handed batch-sized
// scratch, and vice versa, so the width is part of the key exactly like
// the graph is). Configs with per-node fault probabilities are not pooled
// (the slice is not comparable and the case is rare). The graph is held
// weakly: an idle pooled network never keeps its graph alive.
type poolKey struct {
	g      weak.Pointer[graph.Graph]
	fault  FaultModel
	p      float64
	engine Engine
	draw   DrawContract // networks under different contracts never mix
	burst  BurstParams  // v3 parameters (normalised; zero otherwise)
	jam    JamParams    // v4 parameters (normalised; zero otherwise)
	width  int          // 0 = scalar Network, >= 1 = BatchNetwork lane count
}

// makePoolKey builds the key for a (graph, config, width) triple. The
// contract parameters go in normalised — defaults resolved, non-selected
// contracts zeroed — so configurations that run identically share a
// freelist.
func makePoolKey(g *graph.Graph, cfg Config, width int) poolKey {
	burst, jam := cfg.drawParams()
	return poolKey{
		g:      weak.Make(g),
		fault:  cfg.Fault,
		p:      cfg.P,
		engine: cfg.Engine,
		draw:   cfg.Draw,
		burst:  burst,
		jam:    jam,
		width:  width,
	}
}

// Pool reuses Networks (and their batch counterparts) across Monte-Carlo
// trials. Trials over the same (graph, config) pair are the hot path of
// the experiment harness: without reuse every trial reallocates the
// adjacency scratch and fault buffers (Θ(n) per trial — Θ(W·n) for a
// batch) just to throw them away a few thousand rounds later. Get returns
// a Reset cached network when one is available and constructs one
// otherwise; Put stores a finished network for the next trial. GetBatch
// and PutBatch are the same for BatchNetworks, keyed additionally by
// width.
//
// Pooling is purely a performance optimisation: Reset restores the exact
// just-constructed state, so pooled and fresh networks produce
// bit-identical executions (enforced by tests). The zero value is ready
// for use, and the pool is safe for concurrent use — row-parallel sweeps
// acquire networks for several distinct graphs at once, which is why the
// freelist is keyed rather than a single sync.Pool.
//
// A stored network holds its graph only weakly (see poolKey, and
// Network.detach): once nothing else references a graph it is collected,
// and its stored networks are forgotten. A long run that builds fresh
// graphs row after row therefore keeps no dead graph, and no dead
// adjacency matrix, alive.
type Pool[P any] struct {
	mu        sync.Mutex
	free      map[poolKey][]*Network[P]      // width == 0 keys only
	freeBatch map[poolKey][]*BatchNetwork[P] // width >= 1 keys only
	// order lists keys with non-empty freelists, least recently stored
	// first — the eviction order when the total cap is reached.
	order []poolKey
	size  int
	// watched holds the graphs with a cleanup registered: when one is
	// collected, forget drops its stored networks.
	watched map[weak.Pointer[graph.Graph]]bool
}

// Per-key and total caps bound the memory pinned by idle networks. A Put
// beyond the per-key cap is dropped (the key already has more spares than
// concurrent trials can use); a Put beyond the total cap evicts the
// oldest stored network instead, so a long multi-experiment run keeps
// reusing networks for its *current* graphs rather than filling the pool
// with those of graphs still alive but no longer run, silently disabling
// pooling.
// Scalar and batch networks share the caps: both count towards size.
const (
	poolKeyCap   = 16
	poolTotalCap = 256
)

// Get returns a network over g with the given configuration and
// randomness, reusing a pooled one when possible. It is equivalent to
// New[P](g, cfg, rnd) in every observable way; in particular the key's
// zero width guarantees a scalar checkout can never receive a pooled
// batch network's scratch.
func (p *Pool[P]) Get(g *graph.Graph, cfg Config, rnd *rng.Stream) (*Network[P], error) {
	if cfg.PerNodeP == nil {
		key := makePoolKey(g, cfg, 0)
		p.mu.Lock()
		if list := p.free[key]; len(list) > 0 {
			n := list[len(list)-1]
			p.free[key] = list[:len(list)-1]
			p.size--
			if len(list) == 1 {
				p.dropKey(key)
			}
			p.mu.Unlock()
			n.Reset(rnd)
			n.attach(g)
			return n, nil
		}
		p.mu.Unlock()
	}
	return New[P](g, cfg, rnd)
}

// GetBatch returns a lockstep batch network over g with one lane per
// stream in rnds, reusing a pooled one of the same width when possible.
// It is equivalent to NewBatch[P](g, cfg, rnds) in every observable way.
func (p *Pool[P]) GetBatch(g *graph.Graph, cfg Config, rnds []*rng.Stream) (*BatchNetwork[P], error) {
	if cfg.PerNodeP == nil {
		key := makePoolKey(g, cfg, len(rnds))
		p.mu.Lock()
		if list := p.freeBatch[key]; len(list) > 0 {
			b := list[len(list)-1]
			p.freeBatch[key] = list[:len(list)-1]
			p.size--
			if len(list) == 1 {
				p.dropKey(key)
			}
			p.mu.Unlock()
			b.Reset(rnds)
			b.attach(g)
			return b, nil
		}
		p.mu.Unlock()
	}
	return NewBatch[P](g, cfg, rnds)
}

// dropKey removes key from the eviction order and its freelist map; the
// caller holds p.mu and has emptied (or is emptying) the key's list.
func (p *Pool[P]) dropKey(key poolKey) {
	if key.width > 0 {
		delete(p.freeBatch, key)
	} else {
		delete(p.free, key)
	}
	for i, k := range p.order {
		if k == key {
			p.order = append(p.order[:i], p.order[i+1:]...)
			return
		}
	}
}

// evictOldest discards one network from the least recently stored key.
// The caller holds p.mu and guarantees the pool is non-empty.
func (p *Pool[P]) evictOldest() {
	key := p.order[0]
	var remaining int
	if key.width > 0 {
		list := p.freeBatch[key]
		p.freeBatch[key] = list[:len(list)-1]
		remaining = len(list) - 1
	} else {
		list := p.free[key]
		p.free[key] = list[:len(list)-1]
		remaining = len(list) - 1
	}
	p.size--
	if remaining == 0 {
		p.dropKey(key)
	}
}

// watch registers, once per graph, a cleanup that forgets g's stored
// networks when g is collected. The caller holds p.mu.
func (p *Pool[P]) watch(g *graph.Graph, wg weak.Pointer[graph.Graph]) {
	if p.watched[wg] {
		return
	}
	if p.watched == nil {
		p.watched = make(map[weak.Pointer[graph.Graph]]bool)
	}
	p.watched[wg] = true
	runtime.AddCleanup(g, p.forget, wg)
}

// forget drops every stored network of the collected graph behind wg.
func (p *Pool[P]) forget(wg weak.Pointer[graph.Graph]) {
	p.mu.Lock()
	defer p.mu.Unlock()
	delete(p.watched, wg)
	kept := p.order[:0]
	for _, key := range p.order {
		switch {
		case key.g != wg:
			kept = append(kept, key)
		case key.width > 0:
			p.size -= len(p.freeBatch[key])
			delete(p.freeBatch, key)
		default:
			p.size -= len(p.free[key])
			delete(p.free, key)
		}
	}
	p.order = kept
}

// Put stores a finished network for reuse. The caller must not use n after
// Put. Networks with per-node fault probabilities, or arriving when their
// key is already at the per-key cap, are dropped; at the total cap the
// oldest stored network is evicted to make room.
func (p *Pool[P]) Put(n *Network[P]) {
	if n == nil || n.cfg.PerNodeP != nil {
		return
	}
	key := makePoolKey(n.g, n.cfg, 0)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.free[key]) >= poolKeyCap {
		return
	}
	if p.size >= poolTotalCap {
		p.evictOldest()
	}
	p.watch(n.g, key.g)
	n.detach()
	if p.free == nil {
		p.free = make(map[poolKey][]*Network[P])
	}
	if len(p.free[key]) == 0 {
		p.order = append(p.order, key)
	}
	p.free[key] = append(p.free[key], n)
	p.size++
}

// PutBatch stores a finished batch network for reuse under its width's
// key. The caller must not use b after PutBatch.
func (p *Pool[P]) PutBatch(b *BatchNetwork[P]) {
	if b == nil || b.cfg.PerNodeP != nil {
		return
	}
	key := makePoolKey(b.g, b.cfg, b.w)
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.freeBatch[key]) >= poolKeyCap {
		return
	}
	if p.size >= poolTotalCap {
		p.evictOldest()
	}
	p.watch(b.g, key.g)
	b.detach()
	if p.freeBatch == nil {
		p.freeBatch = make(map[poolKey][]*BatchNetwork[P])
	}
	if len(p.freeBatch[key]) == 0 {
		p.order = append(p.order, key)
	}
	p.freeBatch[key] = append(p.freeBatch[key], b)
	p.size++
}
