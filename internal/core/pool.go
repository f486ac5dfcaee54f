package core

import (
	"sync"
	"sync/atomic"

	"flick/internal/netstack"
)

// poolCap bounds the idle instances a GraphPool retains.
const poolCap = 256

// GraphPool is the graph dispatcher's pre-allocated pool of instances (§5)
// and the one source of them: Get reuses an idle instance when available,
// otherwise builds a fresh one; Put resets and retains up to poolCap.
type GraphPool struct {
	tmpl  *Template
	sched *Scheduler
	owner *Service // whose wiring build installs (nil: a bare pool)

	mu   sync.Mutex
	free []*Instance

	hits   atomic.Uint64
	builds atomic.Uint64
}

// NewGraphPool creates an empty pool of tmpl's instances.
func NewGraphPool(tmpl *Template, sched *Scheduler) *GraphPool {
	return &GraphPool{tmpl: tmpl, sched: sched}
}

// build wires a new instance, once for all its bindings, to this pool
// (its way back) and to the owner's cache and latency runtimes.
func (p *GraphPool) build() *Instance {
	inst := NewInstance(p.tmpl, p.sched)
	inst.pool = p
	if s := p.owner; s != nil {
		inst.installCache(s.cfg.Cache)
		inst.installLatency(s.lat)
	}
	return inst
}

// Prime pre-allocates n pooled instances.
func (p *GraphPool) Prime(n int) {
	p.mu.Lock()
	defer p.mu.Unlock()
	for len(p.free) < n && len(p.free) < poolCap {
		p.free = append(p.free, p.build())
	}
}

// Get returns an idle instance, ready to bind.
func (p *GraphPool) Get() *Instance {
	p.mu.Lock()
	if n := len(p.free); n > 0 {
		inst := p.free[n-1]
		p.free = p.free[:n-1]
		p.mu.Unlock()
		p.hits.Add(1)
		return inst
	}
	p.mu.Unlock()
	p.builds.Add(1)
	return p.build()
}

// Put is the one release path, for a finished instance and for a bound one
// whose dispatch failed. It leaves the owner's live set and is reset into
// the free list (or dropped: pool full, owner closing) BEFORE its
// connections close, so a client that redials on seeing the close finds it
// back in the pool.
func (p *GraphPool) Put(inst *Instance) {
	var held [8]netstack.Conn
	conns := append(held[:0], inst.conns...)
	if s := p.owner; s == nil || s.forget(inst) {
		inst.Reset()
		p.mu.Lock()
		if len(p.free) < poolCap {
			p.free = append(p.free, inst)
		}
		p.mu.Unlock()
	}
	for _, c := range conns {
		if c != nil {
			c.Close()
		}
	}
}

// Stats reports pool reuse counters.
type PoolStats struct {
	Hits   uint64 // instances served from the pool
	Builds uint64 // instances constructed
}

// Stats returns a snapshot.
func (p *GraphPool) Stats() PoolStats {
	return PoolStats{Hits: p.hits.Load(), Builds: p.builds.Load()}
}
