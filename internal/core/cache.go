package core

import (
	"bytes"
	"sync"

	rcache "flick/internal/cache"
	"flick/internal/value"
)

// cacheRT is an instance's response-cache runtime: the per-binding
// bookkeeping that connects the shared cache.Cache (service-wide, set via
// ServiceConfig.Cache) to this instance's task graph.
//
// Two correlation disciplines, selected by the protocol adapter:
//
//   - Non-FIFO (memcached): requests are classified at the primary port's
//     input node, between decode and dispatch. Hits push a served view
//     straight to the client output node; leading misses register a
//     pendingFill and forward; coalesced misses park a waiter and forward
//     nothing. Upstream responses are matched against the pendings by
//     echoed key (GETK) or unique opaque, out of order.
//
//   - FIFO (HTTP/1.1): responses answer requests strictly in order per
//     upstream connection, so each backend port keeps a slot queue in
//     request order. Hits and coalesced waits park as slots; upstream
//     responses resolve the oldest upstream-expecting slot; delivery to
//     the client drains ready slots from the head, preserving response
//     order even when a cached hit resolves instantly between two
//     upstream round trips.
//
// Lock discipline: crt.mu is leaf-level — never held across a call into
// the cache package (whose own locks call back into the waiter sinks that
// take crt.mu). A parked waiter is plain data resolved by one of two sinks
// — the runtime itself for non-FIFO followers, the parked slot for FIFO
// ones — on whatever goroutine resolved the flight, gated by gen: Reset
// bumps it under crt.mu, so a stale delivery from a previous binding drops
// its view instead of pushing into the next session's channels.
type cacheRT struct {
	cc    *rcache.Cache
	proto rcache.Protocol
	fifo  bool

	// hitCh is a client-output in-channel: where non-FIFO hit views are
	// delivered. redispatchCh is the primary input node's out-channel:
	// where an aborted non-FIFO follower re-forwards its request.
	hitCh        *Chan
	redispatchCh *Chan

	mu       sync.Mutex
	gen      uint64
	pendings []pendingFill // non-FIFO: fills this instance leads
	ports    []cachePort   // FIFO: per-port slot queues
}

// pendingFill is one upstream round trip the non-FIFO correlation table
// tracks: either a fill this instance leads on behalf of a flight, or a
// tracking-only slot (f == nil) for a re-dispatched aborted follower. The
// tracker exists so the re-dispatched request's response consumes its own
// correlation slot — without it, a plain-GET response whose client-chosen
// opaque collides with a newer pending fill for a different key would
// fill that entry with the wrong bytes.
type pendingFill struct {
	f       *rcache.Flight // nil: tracking-only, nothing fills on match
	key     []byte         // f's owned key, or an owned copy for trackers
	variant byte
	tag     uint64
	hasTag  bool
}

type slotKind uint8

const (
	// slotUpstream expects an upstream response that passes through
	// (plain forwards, invalidating writes).
	slotUpstream slotKind = iota
	// slotLead expects an upstream response that also fills s.f.
	slotLead
	// slotWait is parked on another instance's flight (coalesced miss).
	slotWait
	// slotReady holds a deliverable view (cache hit, delivered fill, or
	// arrived upstream response parked behind an unresolved slot).
	slotReady
	// slotReval expects the upstream response of a background
	// revalidation: it lives only in the pending (send-order) queue — no
	// client is waiting, the stale entry already served them — and its
	// response resolves the refresh flight without being forwarded.
	slotReval
)

// slot is one in-flight request of a FIFO port, in client request order.
// A slotWait slot is also its parked waiter's sink.
type slot struct {
	kind slotKind
	f    *rcache.Flight
	cp   *cachePort  // the port whose queue holds the slot
	view value.Value // owned while kind == slotReady
}

// cachePort is the FIFO runtime of one backend port.
type cachePort struct {
	crt    *cacheRT
	respCh *Chan // backend input node's out-channel (client-bound)
	reqCh  *Chan // backend output node's in-channel (re-dispatch)

	slots   []*slot // client delivery order
	pending []*slot // upstream send order (slots expecting a response)

	// requeued marks re-dispatched requests in flight back to this
	// port's output node: the intercept re-links their original slot
	// into pending instead of queueing a fresh one.
	requeued []requeue

	// revalq marks fabricated revalidation requests in flight to this
	// port's output node: the intercept turns each into a slotReval
	// pending entry instead of classifying it as fresh client traffic.
	revalq []revalDispatch
}

type requeue struct {
	id any // message identity (record owner region)
	s  *slot
}

type revalDispatch struct {
	id any // message identity (the refresh record's owner)
	f  *rcache.Flight
}

// cacheMsgID returns a message's identity for requeue matching: the
// record's owner region is unique per decoded message and stable across
// retains.
func cacheMsgID(msg value.Value) any { return msg.Region() }

// installCache installs the service's response cache (GraphPool.build).
// Graphs without a primary in/out port pair are left uncached.
func (inst *Instance) installCache(c *rcache.Cache) {
	if c == nil {
		return
	}
	primary := -1
	for i := range inst.tmpl.ports {
		if inst.tmpl.ports[i].Primary {
			primary = i
			break
		}
	}
	if primary < 0 {
		return
	}
	p := inst.tmpl.ports[primary]
	if p.In < 0 || p.Out < 0 || len(inst.nodeIn[p.Out]) == 0 || len(inst.nodeOut[p.In]) == 0 {
		return
	}
	crt := &cacheRT{
		cc:           c,
		proto:        c.Proto(),
		fifo:         c.Proto().Fifo(),
		hitCh:        inst.nodeIn[p.Out][0],
		redispatchCh: inst.nodeOut[p.In][0],
		ports:        make([]cachePort, len(inst.tmpl.ports)),
	}
	for i := range inst.tmpl.ports {
		bp := inst.tmpl.ports[i]
		if bp.Primary || bp.In < 0 || bp.Out < 0 {
			continue
		}
		if len(inst.nodeOut[bp.In]) == 0 || len(inst.nodeIn[bp.Out]) == 0 {
			continue
		}
		crt.ports[i].crt = crt
		crt.ports[i].respCh = inst.nodeOut[bp.In][0]
		crt.ports[i].reqCh = inst.nodeIn[bp.Out][0]
	}
	inst.crt = crt
}

// resetCache invalidates the binding's cache bookkeeping (from Reset,
// before channels clear): the generation bump turns outstanding waiter
// callbacks into no-ops, led flights abort so their followers re-dispatch,
// and parked views release.
func (inst *Instance) resetCache() {
	crt := inst.crt
	if crt == nil {
		return
	}
	var flights []*rcache.Flight
	crt.mu.Lock()
	crt.gen++
	for _, p := range crt.pendings {
		if p.f != nil {
			flights = append(flights, p.f)
		}
	}
	crt.pendings = nil
	for i := range crt.ports {
		cp := &crt.ports[i]
		for _, s := range cp.slots {
			switch s.kind {
			case slotLead:
				flights = append(flights, s.f)
			case slotReady:
				s.view.Release()
				s.view = value.Null
			}
		}
		// Revalidation slots live only in the pending queue; aborting them
		// hands the stale entry back its claim so a later hit re-tries.
		for _, s := range cp.pending {
			if s.kind == slotReval && s.f != nil {
				flights = append(flights, s.f)
				s.f = nil
			}
		}
		for _, rd := range cp.revalq {
			flights = append(flights, rd.f)
		}
		cp.slots = nil
		cp.pending = nil
		cp.requeued = nil
		cp.revalq = nil
	}
	crt.mu.Unlock()
	// Outside crt.mu: aborting takes the cache's locks, and this binding's
	// own waiters (if any coalesced onto its flights) re-enter crt.mu.
	for _, f := range flights {
		f.Abort()
	}
}

// cacheClientRequest intercepts one decoded primary-port request (non-FIFO
// protocols), between decode and dispatch. Returns true when the request
// was consumed: a hit view is already on its way to the client output, or
// the request coalesced onto an in-flight fill. False forwards as usual
// (pass traffic, invalidating writes, leading misses).
func (inst *Instance) cacheClientRequest(ctx *ExecCtx, msg value.Value, out *Chan) bool {
	crt := inst.crt
	info := crt.proto.Request(msg)
	switch info.Class {
	case rcache.ClassPass:
		return false
	case rcache.ClassInvalidate:
		// Fires at decode time, before the write reaches the backend: a
		// fill beginning after this point can still race the write
		// upstream, so staleness past a write is TTL-bounded (see the
		// cache package doc), not zero.
		crt.cc.Invalidate(info.Scope, info.Key)
		return false
	case rcache.ClassInvalidateAll:
		crt.cc.Clear()
		return false
	}
	// Non-FIFO protocols render no refresh request: their entries die at
	// expiry, so a lookup here never claims a revalidation.
	view, ok, _ := crt.cc.Get(ctx.Worker(), info)
	if ok {
		crt.hitCh.Push(view)
		view.Release()
		return true
	}
	if info.Class == rcache.ClassCond {
		// Conditional miss: the origin evaluates the condition; its
		// response passes through unadmitted, so no flight is led.
		return false
	}
	return inst.cacheBeginMiss(info, msg)
}

// cacheBeginMiss leads or joins the flight of a non-FIFO lookup miss.
// Returns true when the request coalesced onto another request's flight.
// The waiter is plain data with crt as its sink, so a leading miss — whose
// waiter Begin ignores — allocates only the flight it leads
// (TestLeadingMissAllocs).
func (inst *Instance) cacheBeginMiss(info rcache.ReqInfo, msg value.Value) bool {
	crt := inst.crt
	crt.mu.Lock()
	gen := crt.gen
	crt.mu.Unlock()
	msg.Retain() // for the waiter; undone immediately when leading
	f, leader := crt.cc.Begin(info, rcache.Waiter{
		Tag: info.Tag, HasTag: info.HasTag, Gen: gen, Msg: msg, Sink: crt,
	})
	if !leader {
		return true // coalesced; the waiter owns the retained msg
	}
	msg.Release()
	if f != nil {
		crt.mu.Lock()
		crt.pendings = append(crt.pendings, pendingFill{
			f:       f,
			key:     f.Key(),
			variant: f.Variant(),
			tag:     info.Tag,
			hasTag:  info.HasTag,
		})
		crt.mu.Unlock()
	}
	return false
}

// Deliver implements rcache.WaiterSink for non-FIFO followers: the view
// goes to the client output. The push happens under crt.mu so it strictly
// precedes (or follows, and is then skipped by) Reset's generation bump —
// a stale view can never land in the next binding's channels.
func (crt *cacheRT) Deliver(w *rcache.Waiter, view value.Value) {
	crt.mu.Lock()
	if crt.gen == w.Gen {
		crt.hitCh.Push(view)
	}
	crt.mu.Unlock()
	view.Release()
	w.Msg.Release()
}

// Abort implements rcache.WaiterSink for non-FIFO followers: the request
// re-forwards into the dispatch path for its own upstream round trip,
// uncached — but tracked, so its response consumes a correlation slot
// instead of being invisible to the ambiguity check (the retained request
// still pins its key's bytes here; the tracker keeps its own copy).
func (crt *cacheRT) Abort(w *rcache.Waiter) {
	// Decoded before crt.mu: the lock is never held across a call into the
	// cache package, and w.Msg stays retained until the Release below.
	info := crt.proto.Request(w.Msg)
	crt.mu.Lock()
	if crt.gen == w.Gen {
		crt.pendings = append(crt.pendings, pendingFill{
			key:     append([]byte(nil), info.Key...),
			variant: info.Variant,
			tag:     w.Tag,
			hasTag:  w.HasTag,
		})
		crt.redispatchCh.Push(w.Msg)
	}
	crt.mu.Unlock()
	w.Msg.Release()
}

// cacheBackendResponse correlates one decoded backend response (non-FIFO)
// against the instance's pending table, after the response was pushed
// downstream (msg stays valid: the caller still holds its reference). A
// unique match on a fill fills (or, for a non-admissible response, aborts)
// its flight; a unique match on a tracking-only pending just consumes the
// slot; an ambiguous match — same variant and opaque, no key echo —
// aborts every candidate fill rather than risk caching under the wrong
// key. rawSlot is the response codec's "_raw" image slot.
func (inst *Instance) cacheBackendResponse(msg value.Value, rawSlot int) {
	crt := inst.crt
	ri := crt.proto.Response(msg)
	if !ri.Match {
		return
	}
	var mbuf [4]*rcache.Flight
	matched := mbuf[:0] // the matched pendings' flights (nil: a tracker)
	crt.mu.Lock()
	keep := crt.pendings[:0]
	for _, p := range crt.pendings {
		if p.variant == ri.Variant &&
			(ri.HasKey && bytes.Equal(p.key, ri.Key) ||
				!ri.HasKey && ri.HasTag && p.hasTag && p.tag == ri.Tag) {
			matched = append(matched, p.f)
			continue
		}
		keep = append(keep, p)
	}
	clear(crt.pendings[len(keep):])
	crt.pendings = keep
	crt.mu.Unlock()
	switch {
	case len(matched) == 1:
		if f := matched[0]; f != nil {
			f.Fill(msg.BytesAt(rawSlot), ri)
		}
	case len(matched) > 1:
		for _, f := range matched {
			if f != nil {
				f.Abort()
			}
		}
	}
}

// cacheUpstreamRequest intercepts one request popped at a backend output
// node (FIFO protocols), before encoding. Every request gets a slot in the
// port's client-order queue; only requests that truly go upstream also
// join the pending (send-order) queue. Returns true when the request was
// consumed (hit or coalesced) and must not be encoded.
func (inst *Instance) cacheUpstreamRequest(ctx *ExecCtx, msg value.Value, port int) bool {
	crt := inst.crt
	cp := &crt.ports[port]
	if cp.respCh == nil {
		return false
	}
	// A re-dispatched request (aborted coalesced slot) keeps its original
	// client-order slot; it only (re-)joins the upstream send order. A
	// fabricated revalidation request takes a pending-only slotReval — no
	// client is waiting on it. Both tables are written under crt.mu by
	// callbacks (from whatever goroutine resolved the flight or claimed
	// the refresh), so even the emptiness checks must hold the lock.
	if id := cacheMsgID(msg); id != nil {
		crt.mu.Lock()
		for i, rq := range cp.requeued {
			if rq.id == id {
				cp.requeued = append(cp.requeued[:i], cp.requeued[i+1:]...)
				rq.s.kind = slotUpstream
				cp.pending = append(cp.pending, rq.s)
				crt.mu.Unlock()
				return false
			}
		}
		for i, rd := range cp.revalq {
			if rd.id == id {
				cp.revalq = append(cp.revalq[:i], cp.revalq[i+1:]...)
				cp.pending = append(cp.pending, &slot{kind: slotReval, f: rd.f})
				crt.mu.Unlock()
				return false
			}
		}
		crt.mu.Unlock()
	}
	info := crt.proto.Request(msg)
	switch info.Class {
	case rcache.ClassInvalidate:
		crt.cc.Invalidate(info.Scope, info.Key)
	case rcache.ClassInvalidateAll:
		crt.cc.Clear()
	}
	if info.Class != rcache.ClassLookup && info.Class != rcache.ClassCond {
		s := &slot{kind: slotUpstream}
		crt.mu.Lock()
		cp.slots = append(cp.slots, s)
		cp.pending = append(cp.pending, s)
		crt.mu.Unlock()
		return false
	}
	view, ok, rv := crt.cc.Get(ctx.Worker(), info)
	if ok {
		crt.mu.Lock()
		cp.slots = append(cp.slots, &slot{kind: slotReady, view: view})
		cp.drainLocked()
		crt.mu.Unlock()
		if rv != nil {
			// The hit was served stale: dispatch the claimed background
			// refresh through this port's own send queue.
			inst.dispatchReval(cp, rv)
		}
		return true
	}
	if info.Class == rcache.ClassCond {
		// Conditional miss: forward for the origin to evaluate — a plain
		// upstream slot, no flight, the 200/304 passes through unadmitted.
		s := &slot{kind: slotUpstream}
		crt.mu.Lock()
		cp.slots = append(cp.slots, s)
		cp.pending = append(cp.pending, s)
		crt.mu.Unlock()
		return false
	}
	s := &slot{kind: slotWait, cp: cp}
	crt.mu.Lock()
	gen := crt.gen
	cp.slots = append(cp.slots, s)
	crt.mu.Unlock()
	msg.Retain() // for the waiter; undone immediately when leading
	f, leader := crt.cc.Begin(info, rcache.Waiter{
		Tag: info.Tag, HasTag: info.HasTag, Gen: gen, Msg: msg, Sink: s,
	})
	if !leader {
		return true // coalesced; the waiter owns the retained msg
	}
	msg.Release()
	crt.mu.Lock()
	if f != nil {
		s.kind = slotLead
		s.f = f
		cp.pending = append(cp.pending, s)
	} else {
		// Closed cache: plain upstream forward.
		s.kind = slotUpstream
		cp.pending = append(cp.pending, s)
	}
	crt.mu.Unlock()
	return false
}

// Deliver implements rcache.WaiterSink for a FIFO slot parked on another
// instance's flight: the view readies the slot, and delivery drains the
// port's ready prefix in client order.
func (s *slot) Deliver(w *rcache.Waiter, view value.Value) {
	crt := s.cp.crt
	crt.mu.Lock()
	if crt.gen == w.Gen {
		s.kind = slotReady
		s.view = view
		view.Retain()
		s.cp.drainLocked()
	}
	crt.mu.Unlock()
	view.Release()
	w.Msg.Release()
}

// Abort implements rcache.WaiterSink for a parked FIFO slot: the slot keeps
// its place in client order and the request goes back to the port's output
// node for an upstream round trip of its own.
func (s *slot) Abort(w *rcache.Waiter) {
	crt := s.cp.crt
	crt.mu.Lock()
	if crt.gen == w.Gen {
		s.cp.requeued = append(s.cp.requeued, requeue{id: cacheMsgID(w.Msg), s: s})
		s.cp.reqCh.Push(w.Msg)
	}
	crt.mu.Unlock()
	w.Msg.Release()
}

// dispatchReval sends a claimed background revalidation upstream on the
// port that served the stale hit: the refresh request record is routed to
// the port's output node, where the revalq identity match parks it as a
// pending-only slotReval.
func (inst *Instance) dispatchReval(cp *cachePort, rv *rcache.Reval) {
	crt := inst.crt
	crt.mu.Lock()
	cp.revalq = append(cp.revalq, revalDispatch{id: cacheMsgID(rv.Req), f: rv.F})
	cp.reqCh.Push(rv.Req)
	crt.mu.Unlock()
	rv.Req.Release()
}

// cacheFifoResponse routes one decoded backend response (FIFO) through the
// port's slot queues: it resolves the oldest upstream-expecting slot, then
// delivery drains ready slots from the head of the client-order queue —
// never overtaking an unresolved older slot, so the client sees responses
// strictly in request order. Informational (1xx) responses pass straight
// through without consuming a slot. Returns the flight to fill (nil when
// the response doesn't complete a led miss) — the caller invokes Fill
// outside this instance's lock, while it still holds the message.
func (inst *Instance) cacheFifoResponse(msg value.Value, port int, out *Chan) *rcache.Flight {
	crt := inst.crt
	cp := &crt.ports[port]
	ri := crt.proto.Response(msg)
	if cp.respCh == nil {
		out.Push(msg)
		return nil
	}
	crt.mu.Lock()
	if len(cp.pending) == 0 {
		// Untracked response (nothing was sent upstream by this port):
		// pass through rather than stall the connection.
		crt.mu.Unlock()
		out.Push(msg)
		return nil
	}
	s := cp.pending[0]
	if ri.Informational {
		// 1xx: forwarded without consuming the slot — unless it belongs
		// to a background revalidation, which has no client to forward to.
		isReval := s.kind == slotReval
		crt.mu.Unlock()
		if !isReval {
			out.Push(msg)
		}
		return nil
	}
	cp.pending = cp.pending[1:]
	f := s.f
	s.f = nil
	if s.kind == slotReval {
		// The refresh's response resolves the flight (caller fills) and
		// goes no further: the clients it would have answered were already
		// served from the stale entry.
		crt.mu.Unlock()
		return f
	}
	s.kind = slotReady
	s.view = msg
	msg.Retain()
	cp.drainLocked()
	crt.mu.Unlock()
	return f
}

// drainLocked delivers the ready prefix of a FIFO port's client-order
// queue (crt.mu held). Chan.Push never blocks, so pushing under the lock
// is safe and keeps delivery atomic with the generation check of the
// sinks that call here.
func (cp *cachePort) drainLocked() {
	for len(cp.slots) > 0 && cp.slots[0].kind == slotReady {
		s := cp.slots[0]
		cp.slots = cp.slots[1:]
		cp.respCh.Push(s.view)
		s.view.Release()
		s.view = value.Null
	}
}
