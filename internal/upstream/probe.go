package upstream

import (
	"time"

	"flick/internal/buffer"
	"flick/internal/netstack"
)

// SetBackends reconciles every shard's pool set with a new backend
// topology. Per shard, pools are created for added addresses — making
// them probe targets at once, so their sockets are pre-established before
// the first lease — and retired for removed ones: a retired pool refuses
// new leases, while sessions already leased keep using their socket until
// they close (an in-flight request always completes on the socket it was
// written to). Each retired socket closes as its last session detaches,
// counted by the drained counter.
//
// After the first call the manager is topology-managed: leases to
// addresses outside the current set fail with ErrRetired instead of
// lazily dialling a backend the topology no longer owns.
func (m *Manager) SetBackends(addrs []string) {
	if m.closed.Load() {
		return
	}
	for _, sh := range m.shards {
		sh.setBackends(addrs)
	}
}

// setBackends applies the topology to one shard.
func (sh *shard) setBackends(addrs []string) {
	want := make(map[string]bool, len(addrs))
	for _, a := range addrs {
		want[a] = true
	}
	sh.mu.Lock()
	sh.want = want
	var retired []*pool
	for a, p := range sh.pools {
		if !want[a] {
			retired = append(retired, p)
			delete(sh.pools, a)
			// Track until its last socket closes: Manager.Close must be
			// able to sweep a pool that is gone from the address map but
			// still owns draining sockets.
			sh.draining[p] = struct{}{}
		}
	}
	for a := range want {
		if sh.pools[a] == nil {
			sh.pools[a] = newPool(sh, a)
		}
	}
	sh.mu.Unlock()
	for _, p := range retired {
		p.retire()
		sh.reapDrained(p)
	}
}

// reapDrained drops a retired pool from the shard's draining set once no
// live socket remains — and none can appear: a slot with a dial in flight
// counts as live (the dial may still install a socket; its own retired
// re-check will fail it and call back here).
func (sh *shard) reapDrained(p *pool) {
	p.mu.Lock()
	done := true
	for i, c := range p.slots {
		if p.dialing[i] || (c != nil && !c.isBroken()) {
			done = false
			break
		}
	}
	p.mu.Unlock()
	if !done {
		return
	}
	sh.mu.Lock()
	delete(sh.draining, p)
	sh.mu.Unlock()
}

// retire marks the pool draining and closes any socket that already has no
// sessions; the rest drain as their sessions detach (conn.maybeDrain).
func (p *pool) retire() {
	p.mu.Lock()
	p.retired = true
	conns := make([]*conn, 0, len(p.slots))
	for _, c := range p.slots {
		if c != nil {
			conns = append(conns, c)
		}
	}
	p.cond.Broadcast() // leases waiting out a dial must observe retirement
	p.mu.Unlock()
	for _, c := range conns {
		c.maybeDrain()
	}
}

// probeLoop drives background health probing (Config.Probe): each tick,
// every empty or broken slot of every probe target's probing pool
// (probePool) is dialled and round-tripped. A successful probe repairs the
// slot in place — the dial resets the pool's backoff, closing the
// fail-fast window — and leaves the socket live for the next lease, so
// probes double as pre-warming for new backends. Probe dials ignore the
// backoff gate, which exists so that clients never wait on a dead
// backend's connect timeout; the probe goroutine is where that wait is
// free. Probes run once per backend, through one shard's pool, and every
// verdict is broadcast to every shard (broadcastVerdict), so health
// traffic does not multiply with the core count.
func (m *Manager) probeLoop() {
	t := time.NewTicker(m.cfg.ProbeInterval)
	defer t.Stop()
	for {
		select {
		case <-m.done:
			return
		case <-t.C:
			m.probeAll()
		}
	}
}

// probeTargets returns the address set to probe: the topology want-set
// when the manager is topology-managed, otherwise the union of every
// shard's pool addresses (a backend first leased on shard 3 must still
// be probed; probePool picks which shard's pool carries the probe).
func (m *Manager) probeTargets() []string {
	// Topology-managed: SetBackends fans one want-set to every shard, so
	// shard 0's copy is the whole answer.
	sh0 := m.shards[0]
	sh0.mu.Lock()
	if sh0.want != nil {
		out := make([]string, 0, len(sh0.want))
		for a := range sh0.want {
			out = append(out, a)
		}
		sh0.mu.Unlock()
		return out
	}
	sh0.mu.Unlock()
	seen := map[string]bool{}
	var out []string
	for _, sh := range m.shards {
		sh.mu.Lock()
		for a := range sh.pools {
			if !seen[a] {
				seen[a] = true
				out = append(out, a)
			}
		}
		sh.mu.Unlock()
	}
	return out
}

// probePool picks the one pool that carries addr's probe stream: the
// first shard (in shard order) that already pools the address. Under
// topology management SetBackends creates the pool in every shard, so
// this is shard 0 — probes then double as pre-warming for new backends.
// Without topology management, probing through a shard that already
// pools the address keeps the probe from materialising sockets on a
// shard no lease ever uses.
func (m *Manager) probePool(addr string) *pool {
	for _, sh := range m.shards {
		sh.mu.Lock()
		p := sh.pools[addr]
		sh.mu.Unlock()
		if p != nil {
			return p
		}
	}
	return nil
}

// probeAll sweeps every probe target's probing pool once. Pools probe
// concurrently (one goroutine each, never overlapping per pool): a single
// blackholed backend spending its OS connect timeout must not
// head-of-line block the probing — and pre-warming — of every other
// backend. After the slot sweep, a healthy probing pool additionally
// verifies on behalf of degraded sibling shards (verifySiblings), so a
// fail-fast window armed by one shard's failed dial still closes when
// the backend recovers — while the probe stream stays one per backend.
func (m *Manager) probeAll() {
	for _, addr := range m.probeTargets() {
		if m.closed.Load() {
			return
		}
		p := m.probePool(addr)
		if p == nil {
			continue
		}
		p.mu.Lock()
		busy := p.probing || p.retired
		if !busy {
			p.probing = true
		}
		p.mu.Unlock()
		if busy {
			continue // last tick's sweep of this pool is still running
		}
		go func(p *pool) {
			for slot := range p.slots {
				p.probeSlot(slot)
			}
			p.verifySiblings()
			p.mu.Lock()
			p.probing = false
			p.mu.Unlock()
		}(p)
	}
}

// verifySiblings closes sibling shards' fail-fast windows when the
// probing pool looks healthy but another shard's pool for the same
// address is not: one probe round trip over a short-lived dedicated dial
// confirms the backend answers, and the success verdict clears every
// shard's window. Without it, a window armed by (say) shard 3's failed
// dial during a blip would never be repaired while the probing shard's
// sockets stayed live, and every shard-3 lease would steal cross-core.
//
// The verify does not ride a shared socket: its response would queue
// behind up to Window client responses, so a loaded backend would time it
// out, and a failure there would EOF every multiplexed client. A failed
// verify broadcasts nothing: the probing pool's live sockets make the
// backend's state ambiguous, and probeSlot owns the dead-backend verdict.
func (p *pool) verifySiblings() {
	if !p.m.siblingDown(p.addr, p.sh.id) {
		return
	}
	raw, err := p.m.cfg.Transport.Dial(p.addr)
	if err != nil {
		return
	}
	defer raw.Close()
	if _, err := raw.Write(p.m.cfg.Probe); err != nil {
		return
	}
	raw.SetReadDeadline(time.Now().Add(p.m.cfg.ProbeTimeout))
	var buf [256]byte
	if _, err := raw.Read(buf[:]); err != nil {
		return
	}
	p.m.probes.Inc()
	p.m.broadcastVerdict(p.addr, true, time.Time{}, 0)
}

// siblingDown reports whether any shard other than exclude holds an open
// fail-fast window for addr.
func (m *Manager) siblingDown(addr string, exclude int) bool {
	now := time.Now()
	for _, sh := range m.shards {
		if sh.id == exclude {
			continue
		}
		sh.mu.Lock()
		p := sh.pools[addr]
		sh.mu.Unlock()
		if p == nil {
			continue
		}
		p.mu.Lock()
		down := now.Before(p.downUntil)
		p.mu.Unlock()
		if down {
			return true
		}
	}
	return false
}

// probeSlot re-establishes one dead slot and verifies the backend
// answers, then broadcasts the dial verdict to every shard.
func (p *pool) probeSlot(slot int) {
	p.mu.Lock()
	if p.retired || p.dialing[slot] {
		p.mu.Unlock()
		return
	}
	if c := p.slots[slot]; c != nil && !c.isBroken() {
		p.mu.Unlock()
		return
	}
	// dialSlot releases p.mu; on failure it re-arms the backoff window so
	// leases keep failing fast until a later probe succeeds.
	s, err := p.dialSlot(slot)
	if err != nil {
		// The backend refused the dial: every shard's pool fails fast for
		// the same window, so no shard pays its own discovery dial.
		p.mu.Lock()
		until, backoff := p.downUntil, p.backoff
		p.mu.Unlock()
		p.m.broadcastVerdict(p.addr, false, until, backoff)
		return
	}
	if err := p.m.probeSession(s); err != nil {
		// Connected but not answering: break the socket so no lease lands
		// on a half-dead backend; the next probe tick re-dials. The dial
		// itself succeeded, so no window verdict is broadcast — sibling
		// shards' sockets to this backend break on their own read
		// timeouts, exactly as an unsharded pool's other slots would.
		s.c.fail(err)
		s.Close()
		return
	}
	p.m.probes.Inc()
	p.m.broadcastVerdict(p.addr, true, time.Time{}, 0)
	s.Close()
}

// broadcastVerdict propagates one probe's dial verdict for addr to every
// shard's pool: up closes the fail-fast window (and resets the backoff)
// everywhere, down extends every window to at least the probing pool's —
// a lease on any shard then fails fast instead of re-paying the dead
// backend's connect timeout, and recovers the moment a probe succeeds.
func (m *Manager) broadcastVerdict(addr string, up bool, until time.Time, backoff time.Duration) {
	for _, sh := range m.shards {
		sh.mu.Lock()
		p := sh.pools[addr]
		sh.mu.Unlock()
		if p == nil {
			continue
		}
		p.mu.Lock()
		if up {
			p.backoff, p.downUntil = 0, time.Time{}
		} else if p.downUntil.Before(until) {
			p.backoff, p.downUntil = backoff, until
		}
		p.mu.Unlock()
	}
}

// probeSession round-trips the configured no-op request on a fresh
// session, on the probe goroutine: it waits on the session's callbacks,
// bounded by ProbeTimeout. Any framed response counts as alive — the
// probe checks liveness, not semantics.
func (m *Manager) probeSession(s *Session) error {
	wake := make(chan struct{}, 1)
	ping := func() {
		select {
		case wake <- struct{}{}:
		default:
		}
	}
	s.SetReadableCallback(ping)
	s.SetWritableCallback(ping)
	timeout := time.NewTimer(m.cfg.ProbeTimeout)
	defer timeout.Stop()
	q := buffer.NewQueue(m.bufs)
	defer q.Reset()
	for probe := [][]byte{m.cfg.Probe}; ; probe = nil { // then retry what is staged
		if _, err := s.WriteBatch(probe); err != nil && err != netstack.ErrBacklogged {
			return err
		}
		if n, err := s.TryReadRefs(q); n > 0 || err != nil {
			return err
		}
		select {
		case <-wake:
		case <-timeout.C:
			return netstack.ErrTimeout
		}
	}
}
