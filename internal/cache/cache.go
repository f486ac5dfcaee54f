// Package cache is the in-network response cache of the service graphs:
// retained zero-copy response views keyed by request key, served from
// worker-local shards on the hit path, with single-flight coalescing of
// concurrent misses (flight.go) and protocol adapters that decide what is
// cacheable (memcached.go, httpget.go).
//
// # Design
//
// The cache sits between a service's client-side decode and its backend
// dispatch: the core runtime classifies every decoded client request
// through the service's Protocol adapter and either serves a retained
// response view (hit), joins the key's in-flight fill (coalesced miss), or
// forwards upstream and captures the response on its way back (leading
// miss). One entry holds one admitted response's rendered wire image in
// one exact-size allocation the garbage collector owns, followed by the
// serving-time structures its protocol pre-rendered — a synthesized
// validator-hit response (HTTP 304) and an upstream refresh request — and
// located by offsets: a fixed-width Age patch zone and the validators.
// Nothing counts references to an image: a served view, a re-headered
// entry or a delivery loop that still points into it keeps it alive, and
// eviction, invalidation and re-header only drop the entry. An image costs
// its own size class plus a 160-byte entry header (TestCacheHeapPerEntry
// pins the total per entry).
//
// Sharding mirrors the PR-5 upstream layer: one shard per scheduler
// worker, each holding a full replica of the key map (entries are shared;
// maps are per shard), so a hit takes only the executing worker's shard
// lock — uncontended against every other worker — and reads immutable
// data: an entry never changes once published, it is only ever replaced.
// Structural changes (fill, revalidate, invalidate, evict, clear) are
// serialised by one structure lock and sweep all shards; they are
// miss-path events and orders of magnitude rarer than hits. The shard
// maps are also the only key index: they are written only under the
// structure lock plus their own, so a holder of the structure lock reads
// any of them without taking its shard lock.
//
// The hit path performs zero heap allocations: the key lookup (including
// the Vary secondary-key fold) runs against a per-shard scratch buffer,
// the served view is a pooled record (value.RecordDesc.NewOwned) whose
// only populated field is the captured wire image — patched in a pooled
// copy when the image carries a correlation tag or Age zone, replayed by
// reference otherwise — and the output node's scatter encoder replays that
// image by reference (TestCacheHitZeroAlloc pins this, including the
// variant-hit and synthesized-304 paths).
//
// # Freshness
//
// Entries carry three deadlines derived from one admission: expires (the
// freshness lifetime — Config.TTL capped by the protocol's verdict, e.g.
// Cache-Control: max-age), stale (expires plus Config.StaleTTL for
// entries that can be revalidated) and birth (for the served Age).
// Between expires and stale the entry keeps serving — counted as
// stale_served — while the first lookup to observe expiry claims a
// background revalidation: a single-flight refresh built from the entry's
// pre-rendered conditional request. An upstream 304 extends the retained
// entry's freshness in place (revalidated); a 200 replaces it; a failed
// refresh leaves the stale entry serving until its hard deadline, so an
// origin outage degrades to bounded staleness instead of a miss storm.
// Past the hard deadline (or immediately at expiry for entries without a
// refresh request) expiry is structural, exactly as before: the lookup
// misses and the entry is removed so idle keys don't pin their bytes.
//
// Responses carrying Vary are admitted under a learned per-key vary rule:
// the response's named request headers are folded into a secondary key
// segment, so each header combination gets its own entry. The rule is
// replicated into every shard next to the key index, keeping the hit-path
// fold allocation-free.
//
// # Eviction
//
// The byte budget charges each entry the length of its image; eviction
// drops the entry from the index and the segment lists and leaves the
// bytes to the collector once no served view points into them.
//
// Capacity eviction is segmented LRU: new entries enter a probation
// segment; an entry hit at least once after install earns promotion to a
// protected segment (capped at 80% of the byte budget, overflow demoting
// back to probation) the next time the eviction scan reaches it. The hit
// signal is one atomic counter per entry — the hit path never touches the
// structure lock — and promotion is applied lazily during eviction, so
// the policy stays deterministic for a given op order (the reference-model
// test relies on this). Scan-shaped traffic therefore can't flush the
// working set: one-touch entries die at probation's head while re-hit
// entries survive in protected.
//
// # Invalidation
//
// Write-through invalidation (memcached SET/DELETE, HTTP non-GET) removes
// the key's entries in every variant — including every Vary variant, via
// a per-base list kept only for those — drops the learned vary rule, and
// kills the key's in-flight fills: their followers re-dispatch upstream
// instead of receiving the pre-write value. Invalidation fires when the write
// request is decoded — before the write reaches the backend — so a fill
// that *begins* after the invalidation can still race the write, capture
// the pre-write value, and serve it until its deadline: staleness past a
// write is bounded by the entry TTL (plus StaleTTL), not zero.
package cache

import (
	"sync"
	"sync/atomic"
	"time"

	"flick/internal/metrics"
	"flick/internal/value"
)

// Defaults and bounds.
const (
	// DefaultTTL bounds entry staleness when the protocol imposes none.
	DefaultTTL = 5 * time.Second
	// DefaultMaxBytes bounds resident response bytes.
	DefaultMaxBytes = 64 << 20
	// MaxEntryBytes is the admission cap per response: bulk transfers are
	// not worth displacing a working set of small hot objects for.
	MaxEntryBytes = 1 << 20
	// DefaultNegativeTTL bounds negative entries (authoritative key-absence
	// responses): long enough to absorb a miss storm, short enough that a
	// racing out-of-band write surfaces quickly.
	DefaultNegativeTTL = time.Second
)

// varySep separates the base key from the folded Vary secondary segment.
// NUL can appear in no HTTP header value and no memcached key, so varied
// and unvaried keys can never collide.
const varySep = 0x00

// Eviction segments.
const (
	segProbation = iota
	segProtected
)

// Config configures a Cache.
type Config struct {
	// Proto classifies requests and responses (required).
	Proto Protocol
	// Workers is the shard count, normally the platform's scheduler
	// worker count so every worker owns an uncontended shard (<=0: 1).
	Workers int
	// TTL is the default entry lifetime (<=0: DefaultTTL).
	TTL time.Duration
	// MaxBytes bounds resident response bytes; segmented-LRU eviction
	// reclaims past it (<=0: DefaultMaxBytes).
	MaxBytes int64
	// StaleTTL extends serving past expiry: an expired entry that can be
	// revalidated keeps serving for this window while a background
	// single-flight refresh runs (<=0: disabled — entries die at expiry).
	StaleTTL time.Duration
	// NegativeTTL is the lifetime of negative entries (0:
	// DefaultNegativeTTL; <0: negative caching disabled).
	NegativeTTL time.Duration
}

// span locates one pre-rendered view inside an image's buf (n == 0:
// absent). Offsets instead of slices keep the entry header inside Go's
// 160-byte size class (TestEntryHeaderSize).
type span struct{ off, n uint32 }

func spanAt(off, n int) span {
	if n <= 0 {
		return span{}
	}
	return span{uint32(off), uint32(n)}
}

// in returns the span's bytes inside buf (nil when absent).
func (s span) in(buf []byte) []byte {
	if s.n == 0 {
		return nil
	}
	return buf[s.off : s.off+s.n]
}

// image is the retained bytes of one admitted response and where the views
// a protocol pre-rendered sit in them. buf is one exact-size allocation the
// collector owns; entry headers share it by value.
type image struct {
	buf     []byte // served image, then the pre-rendered 304 and refresh request
	rawLen  uint32 // served response image: buf[:rawLen]
	ageOff  int32  // Age digit zone offset inside the served image (-1: none)
	notmod  span   // pre-rendered validator-hit response
	reval   span   // pre-rendered upstream refresh request (absent: no SWR)
	etag    span   // stored validators (inside the served image)
	lastMod span

	negative bool
}

// raw returns the served response image.
func (im *image) raw() []byte { return im.buf[:im.rawLen] }

// size is what the byte budget charges for the image.
func (im *image) size() int64 { return int64(len(im.buf)) }

// entry is one servable header over an image, shared by every shard's map
// and immutable once published: a refill or an upstream 304 installs a new
// entry instead of changing this one, so lookups read it under their shard
// lock alone. The exceptions are hits — the lone hit-path write, an atomic
// — and the segment membership (seg, prev, next), which only fmu holders
// touch.
type entry struct {
	skey string // full owned key (vary secondary segment included)
	base string // variant-prefixed primary key (== skey when unvaried)
	image

	born    int64 // install stamp (UnixNano; Age base)
	expires int64 // freshness deadline
	stale   int64 // hard serve deadline (== expires without reval/StaleTTL)

	// hits counts lookups since install or last segment move: the lazy
	// promotion signal the eviction scan consumes.
	hits atomic.Uint32

	seg        uint8
	prev, next *entry // segment list links (fmu)
}

// elist is one eviction segment: an intrusive doubly-linked list ordered
// oldest (head) to newest (tail).
type elist struct{ head, tail *entry }

func (l *elist) pushTail(e *entry) {
	e.prev, e.next = l.tail, nil
	if l.tail != nil {
		l.tail.next = e
	} else {
		l.head = e
	}
	l.tail = e
}

func (l *elist) unlink(e *entry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

// shard is one worker's replica of the key map and the vary-rule table.
// The hit path takes only its home shard's lock; kbuf is the lock-guarded
// scratch the prefixed lookup key is assembled in (no allocation: map
// lookups through a []byte→string conversion in index position don't
// copy).
type shard struct {
	mu   sync.Mutex
	m    map[string]*entry
	vary map[string]string // base key → learned vary rule
	kbuf []byte
}

// Cache is a sharded single-flight response cache. Create with New.
type Cache struct {
	proto    Protocol
	ttl      time.Duration
	staleTTL time.Duration
	negTTL   time.Duration
	maxBytes int64
	shards   []shard

	// fmu serialises structural state: the shard maps' contents, per-base
	// lists, segment lists, vary rules, the in-flight fill table and the
	// closed flag. Writers take fmu, then each shard lock in turn; readers
	// take their shard lock and read immutable data. Since every map write
	// holds fmu, an fmu holder reads any shard map without its lock
	// (lookupLocked).
	fmu     sync.Mutex
	byBase  map[string][]*entry // Vary variants (skey != base) of a base key
	varies  map[string]string   // canonical vary rules (shards replicate)
	flights map[string]*Flight
	prob    elist // probation segment (new entries)
	prot    elist // protected segment (re-hit entries)
	closed  bool

	resident  int64 // bytes held by live entries (fmu)
	protBytes int64 // bytes held by the protected segment (fmu)

	hits          metrics.Counter
	misses        metrics.Counter
	coalesced     metrics.Counter
	fills         metrics.Counter
	evictions     metrics.Counter
	invalidations metrics.Counter
	expired       metrics.Counter
	aborts        metrics.Counter
	revalidated   metrics.Counter // upstream 304s that re-headered an entry
	staleServed   metrics.Counter // hits served past expires (SWR window)
	variants      metrics.Counter // installs under a Vary secondary key
	negHits       metrics.Counter // hits served from negative entries

	// Latency dimensions of the live pipeline. hitLat is sharded like the
	// key index — the hit path records into the executing worker's shard,
	// staying wait-free and allocation-free. missLat (Begin → Fill, the
	// upstream round trip a leading miss or background refresh pays) and
	// coalLat (Begin → waiter delivery, what a coalesced request waited)
	// are plain histograms: misses are orders of magnitude rarer than
	// hits, so cross-worker cache-line sharing on their atomics is noise
	// next to the round trip.
	hitLat  *metrics.ShardedHistogram
	missLat metrics.Histogram
	coalLat metrics.Histogram

	// now is the clock: monotonic nanoseconds (metrics.Now), so a
	// wall-clock step neither expires nor revives entries. Tests override.
	now func() int64
}

// New creates a cache.
func New(cfg Config) *Cache {
	if cfg.Proto == nil {
		panic("cache: Config.Proto is required")
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = 1
	}
	ttl := cfg.TTL
	if ttl <= 0 {
		ttl = DefaultTTL
	}
	maxBytes := cfg.MaxBytes
	if maxBytes <= 0 {
		maxBytes = DefaultMaxBytes
	}
	staleTTL := cfg.StaleTTL
	if staleTTL < 0 {
		staleTTL = 0
	}
	negTTL := cfg.NegativeTTL
	if negTTL == 0 {
		negTTL = DefaultNegativeTTL
	} else if negTTL < 0 {
		negTTL = 0
	}
	c := &Cache{
		proto:    cfg.Proto,
		ttl:      ttl,
		staleTTL: staleTTL,
		negTTL:   negTTL,
		maxBytes: maxBytes,
		shards:   make([]shard, workers),
		byBase:   map[string][]*entry{},
		varies:   map[string]string{},
		flights:  map[string]*Flight{},
		hitLat:   metrics.NewShardedHistogram(workers),
		now:      metrics.Now,
	}
	for i := range c.shards {
		c.shards[i].m = map[string]*entry{}
		c.shards[i].vary = map[string]string{}
	}
	return c
}

// Proto returns the cache's protocol adapter.
func (c *Cache) Proto() Protocol { return c.proto }

// appendSKey renders the composite cache key into dst: the variant byte,
// then the scope (when present) separated from the key by '\n' — a byte
// that can appear in neither an HTTP header value nor a memcached key, so
// scoped and unscoped keys can never collide.
func appendSKey(dst []byte, variant byte, scope, key []byte) []byte {
	dst = append(dst, variant)
	if len(scope) > 0 {
		dst = append(dst, scope...)
		dst = append(dst, '\n')
	}
	return append(dst, key...)
}

// Get serves a hit for a ClassLookup or ClassCond request from worker's
// shard, returning a self-contained response view (the caller owns one
// reference), whether an entry was found, and — when the entry is serving
// stale — the claimed background revalidation whose request the caller must
// send upstream (nil when another lookup already claimed it). A ClassCond
// request whose validators match the entry's receives the pre-rendered 304
// instead of the body. The miss path (including lazy expiry) is counted
// here; callers follow a miss with Begin (ClassLookup) or forward
// untracked (ClassCond).
func (c *Cache) Get(worker int, info ReqInfo) (value.Value, bool, *Reval) {
	start := c.now()
	sh := &c.shards[worker%len(c.shards)]
	sh.mu.Lock()
	sh.kbuf = appendSKey(sh.kbuf[:0], info.Variant, info.Scope, info.Key)
	if len(sh.vary) > 0 {
		if rule, ok := sh.vary[string(sh.kbuf)]; ok {
			sh.kbuf = append(sh.kbuf, varySep)
			sh.kbuf = c.proto.SecondaryKey(sh.kbuf, info.Msg, rule)
		}
	}
	e := sh.m[string(sh.kbuf)]
	sh.mu.Unlock()
	if e == nil {
		c.misses.Inc()
		return value.Null, false, nil
	}
	now := start // one clock read serves freshness and the hit latency
	stale := now > e.expires
	if stale && (now > e.stale || e.reval.n == 0) {
		// Hard expiry: remove the entry structurally so an idle key
		// doesn't pin its bytes (and the resident gauge) until a refill or
		// capacity eviction. Lock order is fmu → shard.mu, so the identity
		// is re-checked under fmu — a racing removal or refill leaves e
		// unindexed.
		c.fmu.Lock()
		if c.lookupLocked(e.skey) == e {
			c.removeLocked(e)
		}
		c.fmu.Unlock()
		c.expired.Inc()
		c.misses.Inc()
		return value.Null, false, nil
	}
	e.hits.Add(1)
	// The view is built outside the shard lock: a published entry never
	// changes, and its bytes live as long as anything points into them.
	h := Hit{Tag: info.Tag, HasTag: info.HasTag, AgeOff: -1}
	if (len(info.IfNoneMatch) > 0 || len(info.IfModifiedSince) > 0) &&
		e.notmod.n > 0 && validatorHit(e, info) {
		h.Raw = e.notmod.in(e.buf)
	} else {
		h.Raw, h.AgeOff = e.raw(), int(e.ageOff)
		h.AgeSecs = (now - e.born) / int64(time.Second)
	}
	view := c.proto.MakeHit(h)
	c.hits.Inc()
	if e.negative {
		c.negHits.Inc()
	}
	var rv *Reval
	if stale {
		c.staleServed.Inc()
		rv = c.claimReval(e)
	}
	c.hitLat.Record(worker, time.Duration(c.now()-start))
	return view, true, rv
}

// validatorHit reports whether a conditional request's validators match
// the entry's: If-None-Match wins when present (weak comparison, per RFC
// 9110 §13.1.2); If-Modified-Since falls back to byte equality against the
// stored Last-Modified — deliberately conservative (no date parsing on the
// hit path): a differently-rendered but equal date refetches, it never
// serves a wrong 304.
func validatorHit(e *entry, info ReqInfo) bool {
	if len(info.IfNoneMatch) > 0 {
		return e.etag.n > 0 && etagMatch(info.IfNoneMatch, e.etag.in(e.buf))
	}
	return e.lastMod.n > 0 && bytesEqualTrim(info.IfModifiedSince, e.lastMod.in(e.buf))
}

// HitLatency returns the in-cache serve-time histogram of the hit path
// (lookup entry → view built) — not the client-observed latency, which
// additionally includes decode and flush batching.
func (c *Cache) HitLatency() *metrics.ShardedHistogram { return c.hitLat }

// MissLatency returns the leading-miss histogram: Begin (miss classified)
// → Fill (upstream response resolved the flight). Background refreshes
// record here too; aborted flights record nothing.
func (c *Cache) MissLatency() *metrics.Histogram { return &c.missLat }

// CoalescedLatency returns the coalesced-wait histogram: Begin (joined an
// in-flight fill) → waiter delivery. Aborted waiters record nothing.
func (c *Cache) CoalescedLatency() *metrics.Histogram { return &c.coalLat }

// Invalidate removes the scoped key's entries (every protocol variant,
// every Vary variant), drops the key's learned vary rules, and kills the
// key's in-flight fills: their followers re-dispatch upstream, so a fill
// already in flight can never reinstate the pre-write response. A fill
// that begins after this call can still race the write to the backend —
// see the package doc's bounded-staleness note.
func (c *Cache) Invalidate(scope, key []byte) {
	if len(key) == 0 {
		return
	}
	var dead casualties
	c.fmu.Lock()
	touched := false
	for _, v := range c.proto.Variants() {
		base := string(appendSKey(nil, v, scope, key))
		if c.removeBaseLocked(base) {
			touched = true
		}
		c.setVaryRuleLocked(base, "")
		for _, f := range c.flights {
			if f.base == base {
				c.killLocked(f, &dead)
				touched = true
			}
		}
	}
	if touched {
		c.invalidations.Inc()
	}
	c.fmu.Unlock()
	c.settle(dead)
}

// Clear removes every entry, every learned vary rule and kills every
// in-flight fill (memcached flush_all; Close).
func (c *Cache) Clear() {
	var dead casualties
	c.fmu.Lock()
	for c.prob.head != nil {
		c.removeLocked(c.prob.head)
	}
	for c.prot.head != nil {
		c.removeLocked(c.prot.head)
	}
	for base := range c.varies {
		c.setVaryRuleLocked(base, "")
	}
	for _, f := range c.flights {
		c.killLocked(f, &dead)
	}
	c.invalidations.Inc()
	c.fmu.Unlock()
	c.settle(dead)
}

// Close clears the cache and stops admitting: subsequent Begin calls
// return no flight (callers forward upstream untracked) and fills are
// dropped. Close drops every entry and releases every retained request,
// restoring pool ref-balance (refgets == refputs) for teardown assertions:
// entries hold no pooled references of their own.
func (c *Cache) Close() {
	c.fmu.Lock()
	c.closed = true
	c.fmu.Unlock()
	c.Clear()
}

// setVaryRuleLocked updates the canonical vary rule for a base key and
// replicates it into every shard ("" deletes). fmu held; takes shard
// locks, honouring the fmu → shard.mu order.
func (c *Cache) setVaryRuleLocked(base, rule string) {
	cur, had := c.varies[base]
	if (!had && rule == "") || (had && cur == rule) {
		return
	}
	if rule == "" {
		delete(c.varies, base)
	} else {
		c.varies[base] = rule
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if rule == "" {
			delete(sh.vary, base)
		} else {
			sh.vary[base] = rule
		}
		sh.mu.Unlock()
	}
}

// lookupLocked returns the entry published under skey (fmu held): every
// shard map holds the same entries, so the first one answers.
func (c *Cache) lookupLocked(skey string) *entry { return c.shards[0].m[skey] }

// install publishes an entry (fmu held) — the one way anything becomes
// servable: it replaces the key's previous entry, replicates into every
// shard map, enters probation and runs the eviction scan past the byte
// budget.
func (c *Cache) install(e *entry) {
	if old := c.lookupLocked(e.skey); old != nil {
		c.removeLocked(old)
	}
	if e.skey != e.base {
		c.byBase[e.base] = append(c.byBase[e.base], e)
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		sh.m[e.skey] = e
		sh.mu.Unlock()
	}
	e.seg = segProbation
	c.prob.pushTail(e)
	c.resident += e.size()
	c.evictLocked(e)
}

// evictLocked reclaims bytes past the budget (fmu held), never evicting
// keep (the just-installed entry). Segmented LRU with lazy promotion: the
// scan walks probation oldest-first — an entry hit since install earns
// promotion to protected (the "second hit" signal, applied here rather
// than on the hit path so hits stay wait-free), an unhit entry is evicted.
// Protected is capped at 80% of the budget; overflow demotes its oldest
// back to probation's tail with the hit signal cleared, so every scan step
// either frees bytes or moves a cleared entry behind the scan point —
// progress is bounded by concurrent re-hits, which arrive at most once per
// lookup.
func (c *Cache) evictLocked(keep *entry) {
	protCap := c.maxBytes - c.maxBytes/5
	for c.resident > c.maxBytes {
		v := c.prob.head
		if v == nil {
			v = c.prot.head
		}
		if v == nil || v == keep {
			return
		}
		if v.seg == segProbation && v.hits.Load() != 0 {
			v.hits.Store(0)
			c.prob.unlink(v)
			v.seg = segProtected
			c.prot.pushTail(v)
			c.protBytes += v.size()
			for c.protBytes > protCap {
				d := c.prot.head
				if d == nil || d == keep {
					break
				}
				d.hits.Store(0)
				c.prot.unlink(d)
				d.seg = segProbation
				c.protBytes -= d.size()
				c.prob.pushTail(d)
			}
			continue
		}
		c.removeLocked(v)
		c.evictions.Inc()
	}
}

// removeBaseLocked removes a base key's unvaried entry and every Vary
// variant of it (fmu held), reporting whether there was any.
func (c *Cache) removeBaseLocked(base string) bool {
	found := false
	if e := c.lookupLocked(base); e != nil {
		c.removeLocked(e)
		found = true
	}
	for vs := c.byBase[base]; len(vs) > 0; vs = c.byBase[base] {
		c.removeLocked(vs[0])
		found = true
	}
	return found
}

// removeLocked unlinks an entry from every shard map, its variant list and
// its segment list, and uncharges its bytes (fmu held). That is all: the
// image belongs to the collector, so a hit that read the entry before the
// sweep keeps serving intact bytes for as long as its view lives.
func (c *Cache) removeLocked(e *entry) {
	if e.skey != e.base {
		bb := c.byBase[e.base]
		for i, x := range bb {
			if x == e {
				bb[i] = bb[len(bb)-1]
				bb[len(bb)-1] = nil
				bb = bb[:len(bb)-1]
				break
			}
		}
		if len(bb) == 0 {
			delete(c.byBase, e.base)
		} else {
			c.byBase[e.base] = bb
		}
	}
	for i := range c.shards {
		sh := &c.shards[i]
		sh.mu.Lock()
		if sh.m[e.skey] == e {
			delete(sh.m, e.skey)
		}
		sh.mu.Unlock()
	}
	if e.seg == segProtected {
		c.prot.unlink(e)
		c.protBytes -= e.size()
	} else {
		c.prob.unlink(e)
	}
	c.resident -= e.size()
}

// deadlines derives a new header's three stamps from one admission (or
// one upstream 304, whose own max-age caps the extension): Age restarts at
// now per RFC 9111 §4.2.3, freshness runs for the configured TTL capped by
// the response's verdict, and a revalidatable positive image keeps serving
// for StaleTTL past that.
func (c *Cache) deadlines(img *image, ri RespInfo) (born, expires, stale int64) {
	ttl := c.ttl
	if img.negative {
		ttl = c.negTTL
	}
	if ri.TTL > 0 && ri.TTL < ttl {
		ttl = ri.TTL
	}
	born = c.now()
	expires = born + int64(ttl)
	stale = expires
	if img.reval.n > 0 && !img.negative {
		stale += int64(c.staleTTL)
	}
	return
}

// newEntry copies a rendered store image into one exact-size allocation
// and locates the entry's serving-time views by the StoreInfo offsets.
func (c *Cache) newEntry(skey, base string, buf []byte, si StoreInfo, ri RespInfo) *entry {
	img := image{
		buf:      append([]byte(nil), buf...),
		rawLen:   uint32(si.ImageLen),
		ageOff:   int32(si.AgeOff),
		notmod:   spanAt(si.NotModOff, si.NotModLen),
		reval:    spanAt(si.RevalOff, si.RevalLen),
		etag:     spanAt(si.ETagOff, si.ETagLen),
		lastMod:  spanAt(si.LastModOff, si.LastModLen),
		negative: ri.Negative,
	}
	born, expires, stale := c.deadlines(&img, ri)
	return &entry{skey: skey, base: base, image: img, born: born, expires: expires, stale: stale}
}

// reheader builds the entry an upstream 304 installs in old's place: fresh
// deadlines over the same image. Like any new entry it starts unhit, in
// probation.
func (c *Cache) reheader(old *entry, ri RespInfo) *entry {
	born, expires, stale := c.deadlines(&old.image, ri)
	return &entry{skey: old.skey, base: old.base, image: old.image, born: born, expires: expires, stale: stale}
}

// Counters snapshots the cache's counters (registered as "cache" in the
// admin /counters registry; see PERFORMANCE.md for reading them).
func (c *Cache) Counters() metrics.CounterSet {
	return metrics.NewCounterSet(
		"hits", c.hits.Value(),
		"misses", c.misses.Value(),
		"coalesced", c.coalesced.Value(),
		"fills", c.fills.Value(),
		"evictions", c.evictions.Value(),
		"invalidations", c.invalidations.Value(),
		"expired", c.expired.Value(),
		"aborts", c.aborts.Value(),
		"revalidated", c.revalidated.Value(),
		"stale_served", c.staleServed.Value(),
		"variants", c.variants.Value(),
		"neg_hits", c.negHits.Value(),
		"bytes", uint64(c.BytesResident()),
		"entries", uint64(c.Len()),
	)
}

// BytesResident returns the bytes currently held by live entries.
func (c *Cache) BytesResident() int64 {
	c.fmu.Lock()
	n := c.resident
	c.fmu.Unlock()
	return n
}

// HitRatio returns hits/(hits+misses) over the cache's lifetime (0 before
// any lookup).
func (c *Cache) HitRatio() float64 {
	h, m := c.hits.Value(), c.misses.Value()
	if h+m == 0 {
		return 0
	}
	return float64(h) / float64(h+m)
}

// Len returns the number of live entries (tests and diagnostics).
func (c *Cache) Len() int {
	c.fmu.Lock()
	n := len(c.shards[0].m)
	c.fmu.Unlock()
	return n
}
