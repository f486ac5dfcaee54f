package cache

import (
	"time"

	"flick/internal/metrics"
	"flick/internal/value"
)

// A Waiter is a coalesced miss parked on another request's in-flight fill.
// It is plain data — the requester's tag, its binding generation, its
// retained request and the sink that resolves it — so a leading miss,
// whose waiter Begin ignores, builds nothing on the heap: only a
// follower's append to its flight allocates. The zero Waiter is valid: a
// view delivered to it is released and an abort is only counted.
type Waiter struct {
	// Tag/HasTag is the waiter's own correlation tag (memcached opaque):
	// the delivered view carries it, not the leader's.
	Tag    uint64
	HasTag bool
	// Gen is the sink's binding generation when the waiter parked: a sink
	// whose binding moved on since drops the outcome.
	Gen uint64
	// Msg is the waiter's retained request (value.Null: none). Ownership
	// passes to Sink with whichever call resolves the waiter.
	Msg value.Value
	// Sink resolves the waiter (nil: release and drop).
	Sink WaiterSink

	// start is the coalesced-wait stamp, set by Begin when the waiter
	// parks; the delivery loop records Begin→Deliver into coalLat.
	start int64
}

// A WaiterSink resolves parked waiters. Exactly one of its methods fires
// per waiter, asynchronously, from whichever goroutine resolves the
// flight: it must not block and must tolerate firing after the waiter's
// binding recycled (see Waiter.Gen).
type WaiterSink interface {
	// Deliver receives a self-contained response view built from the
	// filled entry; ownership of one reference transfers to the sink.
	Deliver(w *Waiter, view value.Value)
	// Abort fires when the flight dies without a usable fill (invalidated,
	// non-cacheable response, instance reset): the waiter re-dispatches
	// its own upstream request.
	Abort(w *Waiter)
}

func (w *Waiter) deliver(view value.Value) {
	if w.Sink != nil {
		w.Sink.Deliver(w, view)
		return
	}
	view.Release()
	w.Msg.Release()
}

func (w *Waiter) abort() {
	if w.Sink != nil {
		w.Sink.Abort(w)
		return
	}
	w.Msg.Release()
}

// Flight is one in-flight fill: the first miss for a key leads it (owns
// the upstream round trip and resolves it with Fill or Abort); later
// misses for the same key join as waiters. A reval flight is the
// background-refresh flavour, claimed by a stale hit instead of a miss.
// While a flight sits in Cache.flights its key is claimed — which is also
// what keeps a stale window's refresh single-flight.
type Flight struct {
	c       *Cache
	skey    string // full owned key (vary secondary segment included)
	base    string // variant-prefixed primary key
	key     []byte // owned copy of the request key (nil on reval flights)
	variant byte
	vrule   string // vary rule skey was computed under
	reval   bool   // background refresh of a retained entry
	start   int64  // leading-miss stamp (Begin → Fill into missLat)
	waiters []Waiter

	// req is the retained request record — the leader's, or the refresh
	// request a reval flight was claimed with (value.Null when the protocol
	// set none): Fill's Store call renders Vary secondary keys and the
	// next refresh request from it. Guarded by c.fmu; whoever clears it to
	// Null owns the release.
	req value.Value
}

// Key returns the flight's owned request key.
func (f *Flight) Key() []byte { return f.key }

// Variant returns the flight's protocol variant.
func (f *Flight) Variant() byte { return f.variant }

// Begin joins or leads the key's flight after a miss. The leader
// (leader=true) forwards its request upstream and must eventually call
// Fill or Abort; w is ignored for it. A follower (leader=false) parks w on
// the existing flight — which may be a background refresh already in
// flight — and must NOT forward. On a closed cache Begin returns
// (nil, true): forward upstream with no tracking.
func (c *Cache) Begin(info ReqInfo, w Waiter) (*Flight, bool) {
	now := metrics.Now()
	c.fmu.Lock()
	if c.closed {
		c.fmu.Unlock()
		return nil, true
	}
	var kbuf [64]byte // the composite key, on the stack when it fits
	base := string(appendSKey(kbuf[:0], info.Variant, info.Scope, info.Key))
	skey := base
	rule := c.varies[base]
	if rule != "" && !info.Msg.IsNull() {
		kb := append([]byte(base), varySep)
		skey = string(c.proto.SecondaryKey(kb, info.Msg, rule))
	}
	if f := c.flights[skey]; f != nil {
		w.start = now
		f.waiters = append(f.waiters, w)
		c.fmu.Unlock()
		c.coalesced.Inc()
		return f, false
	}
	f := &Flight{
		c:       c,
		skey:    skey,
		base:    base,
		key:     append([]byte(nil), info.Key...),
		variant: info.Variant,
		vrule:   rule,
		start:   now,
		req:     value.Null,
	}
	if !info.Msg.IsNull() {
		info.Msg.Retain()
		f.req = info.Msg
	}
	c.flights[skey] = f
	c.fmu.Unlock()
	return f, true
}

// Reval is a claimed background revalidation: Req is the refresh request
// record fabricated over the stale entry's pre-rendered conditional request
// (the caller owns one reference). The caller sends it upstream and
// resolves F with Fill or Abort; until then the stale entry keeps serving.
type Reval struct {
	F   *Flight
	Req value.Value
}

// claimReval registers the single background refresh of a stale entry.
// Returns nil when the key is already claimed by a flight, e is no longer
// the published entry, the cache closed, or the protocol renders no
// refresh request.
func (c *Cache) claimReval(e *entry) *Reval {
	c.fmu.Lock()
	defer c.fmu.Unlock()
	if c.closed || c.lookupLocked(e.skey) != e || c.flights[e.skey] != nil {
		return nil
	}
	req := c.proto.MakeReval(e.reval.in(e.buf))
	if req.IsNull() {
		return nil
	}
	req.Retain() // the flight's reference; the caller owns the first
	f := &Flight{
		c:     c,
		skey:  e.skey,
		base:  e.base,
		reval: true,
		start: metrics.Now(),
		req:   req,
	}
	c.flights[e.skey] = f
	return &Reval{F: f, Req: req}
}

// Fill resolves the flight with the upstream response's wire image. When
// the response is admissible (ri.Admit, non-empty, within MaxEntryBytes)
// the protocol's rendered image is installed and every waiter receives its
// own retained view; otherwise the waiters abort and re-dispatch. A
// response carrying Vary updates the base key's learned rule: the entry
// installs under the folded secondary key, and a rule *change* purges the
// base's old-rule entries and aborts the waiters (their secondary keys
// were computed under the stale rule).
//
// A reval flight differs in two places. An upstream 304 re-headers the
// entry it refreshed instead of aborting; any other inadmissible answer —
// error response, non-cacheable refresh — installs nothing either way,
// which for a refresh means the stale entry serves on until its hard
// deadline, the graceful-degradation half of stale-while-revalidate. And a
// replacing 200 keeps the key the refresh was claimed under: its request
// was fabricated from the entry, not sent by a client, so it carries no
// headers to fold a vary rule over.
//
// A flight already killed by invalidation (or a closed cache) stores
// nothing — its waiters were aborted at kill time. raw need only stay
// valid for the duration of the call; the entry owns a copy.
func (f *Flight) Fill(raw []byte, ri RespInfo) {
	c := f.c
	// Take the retained request under fmu first: a concurrent kill path
	// releases f.req, so reading it unlocked would race. Clearing it to
	// Null transfers ownership here; the kill paths then skip it.
	c.fmu.Lock()
	if c.flights[f.skey] != f {
		c.fmu.Unlock()
		return
	}
	req := f.req
	f.req = value.Null
	c.fmu.Unlock()
	defer func() {
		if !req.IsNull() {
			req.Release()
		}
	}()

	// Render the stored image outside every lock (Store may copy and
	// allocate; misses are off the hit path).
	admit := ri.Admit && !ri.NotModified && len(raw) > 0 && len(raw) <= MaxEntryBytes
	if ri.Negative && c.negTTL <= 0 {
		admit = false
	}
	rule := f.vrule
	skey := f.skey
	var img []byte
	var si StoreInfo
	if admit && !f.reval {
		rule = normalizeVary(ri.Vary)
		if rule != f.vrule {
			if req.IsNull() && rule != "" {
				// No request material to fold the new rule's headers from:
				// the response can't be keyed. Serve-and-drop.
				admit = false
			} else {
				skey = f.base
				if rule != "" {
					kb := append(append([]byte(nil), f.base...), varySep)
					skey = string(c.proto.SecondaryKey(kb, req, rule))
				}
			}
		}
	}
	if admit {
		img, si = c.proto.Store(raw, ri, req)
		if si.ImageLen == 0 {
			si.ImageLen = len(img)
			si.AgeOff = -1
		}
		admit = len(img) > 0
	}

	var dead casualties
	c.fmu.Lock()
	if c.flights[f.skey] != f {
		c.fmu.Unlock()
		return
	}
	c.killLocked(f, &dead)
	var e *entry
	switch {
	case c.closed:
	case f.reval && ri.NotModified:
		if cur := c.lookupLocked(f.skey); cur != nil {
			e = c.reheader(cur, ri)
			c.install(e)
			c.revalidated.Inc()
		}
	case admit:
		if rule != f.vrule {
			c.setVaryRuleLocked(f.base, rule)
			// Existing entries under the base were keyed by the old rule;
			// purge them so new-rule lookups can't serve a mismatched
			// variant.
			c.removeBaseLocked(f.base)
		}
		e = c.newEntry(skey, f.base, img, si, ri)
		c.install(e)
		c.fills.Inc()
		if skey != f.base {
			c.variants.Inc()
		}
	}
	// Waiters joined under the flight's rule: a changed rule aborts them.
	deliver := e != nil && rule == f.vrule && len(dead.waiters) > 0
	c.fmu.Unlock()
	now := metrics.Now()
	c.missLat.Record(time.Duration(now - f.start))
	if !deliver {
		c.settle(dead)
		return
	}
	// e is immutable and its bytes outlive any concurrent eviction for as
	// long as the loop (and the views it builds) points into them.
	for i := range dead.waiters {
		w := &dead.waiters[i]
		c.coalLat.Record(time.Duration(now - w.start))
		w.deliver(c.proto.MakeHit(Hit{
			Raw: e.raw(), Tag: w.Tag, HasTag: w.HasTag, AgeOff: int(e.ageOff),
		}))
	}
}

// Abort resolves the flight without a fill: every parked waiter
// re-dispatches, and a stale entry whose refresh this was is free to be
// claimed again. Safe to call on an already-resolved flight.
func (f *Flight) Abort() {
	c := f.c
	var dead casualties
	c.fmu.Lock()
	if c.flights[f.skey] == f {
		c.killLocked(f, &dead)
	}
	c.fmu.Unlock()
	c.settle(dead)
}

// casualties is what killed flights leave to settle outside the cache's
// locks: parked waiters to abort and retained requests to release.
type casualties struct {
	waiters []Waiter
	reqs    []value.Value
}

// killLocked drops f from the flight table (fmu held) and moves its
// waiters and its retained request — unless a Fill in progress already
// took that — into dead.
func (c *Cache) killLocked(f *Flight, dead *casualties) {
	delete(c.flights, f.skey)
	if dead.waiters == nil {
		dead.waiters = f.waiters // the common single-flight kill: no copy
	} else {
		dead.waiters = append(dead.waiters, f.waiters...)
	}
	f.waiters = nil
	if !f.req.IsNull() {
		dead.reqs = append(dead.reqs, f.req)
		f.req = value.Null
	}
}

// settle releases the requests and aborts the waiters of killed flights,
// outside every cache lock.
func (c *Cache) settle(dead casualties) {
	for _, r := range dead.reqs {
		r.Release()
	}
	for i := range dead.waiters {
		c.aborts.Inc()
		dead.waiters[i].abort()
	}
}
