package cache

import (
	"encoding/binary"
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"flick/internal/buffer"
	"flick/internal/metrics"
	"flick/internal/proto/memcache"
	"flick/internal/value"
)

// respRaw renders one memcached GETK response wire image with the given
// opaque, key and value.
func respRaw(t *testing.T, opcode byte, opaque uint32, key, val string) []byte {
	t.Helper()
	req := memcache.Request(opcode, []byte(key), nil)
	req.SetField("opaque", value.Int(int64(opaque)))
	resp := memcache.Response(req, memcache.StatusOK, []byte(key), []byte(val))
	raw, err := memcache.Codec.Encode(nil, resp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	req.Release()
	resp.Release()
	return raw
}

func lookupInfo(opcode byte, key string, opaque uint32) ReqInfo {
	return ReqInfo{
		Class:   ClassLookup,
		Key:     []byte(key),
		Variant: opcode,
		Tag:     uint64(opaque),
		HasTag:  true,
	}
}

// fill installs one entry by leading and resolving a flight.
func fill(t *testing.T, c *Cache, opcode byte, key string, opaque uint32, val string) {
	t.Helper()
	info := lookupInfo(opcode, key, opaque)
	f, leader := c.Begin(info, Waiter{})
	if !leader {
		t.Fatalf("fill(%q): expected to lead", key)
	}
	f.Fill(respRaw(t, opcode, opaque, key, val),
		RespInfo{Match: true, Admit: true, Variant: opcode, Tag: uint64(opaque), HasTag: true})
}

// funcSink resolves waiters through callbacks: a nil deliver releases the
// view, a nil abort ignores the abort.
type funcSink struct {
	deliver func(view value.Value)
	abort   func()
}

func (s funcSink) Deliver(_ *Waiter, view value.Value) {
	if s.deliver == nil {
		view.Release()
		return
	}
	s.deliver(view)
}

func (s funcSink) Abort(*Waiter) {
	if s.abort != nil {
		s.abort()
	}
}

func newTestCache(t *testing.T, cfg Config) *Cache {
	t.Helper()
	if cfg.Proto == nil {
		cfg.Proto = Memcached{}
	}
	c := New(cfg)
	t.Cleanup(c.Close)
	return c
}

// TestCacheHitZeroAlloc pins the hit path at zero heap allocations — both
// the verbatim replay (requester opaque matches the stored image) and the
// opaque-patching copy path (pooled region reuse).
func TestCacheHitZeroAlloc(t *testing.T) {
	c := newTestCache(t, Config{Workers: 2})
	fill(t, c, memcache.OpGetK, "key-000001", 42, "hello-world")

	same := lookupInfo(memcache.OpGetK, "key-000001", 42)
	if n := testing.AllocsPerRun(200, func() {
		v, ok, _ := c.Get(0, same)
		if !ok {
			panic("miss on warm key")
		}
		v.Release()
	}); n != 0 {
		t.Fatalf("verbatim hit path allocates %v per run, want 0", n)
	}

	patched := lookupInfo(memcache.OpGetK, "key-000001", 7777)
	if n := testing.AllocsPerRun(200, func() {
		v, ok, _ := c.Get(1, patched)
		if !ok {
			panic("miss on warm key")
		}
		v.Release()
	}); n != 0 {
		t.Fatalf("opaque-patching hit path allocates %v per run, want 0", n)
	}

	// The hit-latency instrumentation is always on inside Get: every hit
	// measured above must appear in the live histogram, still at 0 allocs.
	if n := c.HitLatency().Count(); n < 400 {
		t.Fatalf("hit-latency histogram recorded %d hits, want >= 400", n)
	}
}

// TestEntryHeaderSize pins the entry header inside Go's 160-byte size
// class: the secondary views are offsets into the image, not slices.
func TestEntryHeaderSize(t *testing.T) {
	if n := unsafe.Sizeof(entry{}); n > 160 {
		t.Fatalf("entry header is %d bytes, want <= 160", n)
	}
}

// TestCacheHeapPerEntry pins what one resident entry costs the heap. It
// admits 4 096 memcached GET images of 540 bytes (512-byte values, the
// mc-rw-cached shape) into a two-worker cache with room for all of them
// and measures the live heap after a collection: at most 1 000 bytes per
// entry — the image's own size class, the entry header, the key string
// and its slots in the shard maps.
func TestCacheHeapPerEntry(t *testing.T) {
	const n = 4096
	c := newTestCache(t, Config{Workers: 2, MaxBytes: n << 10})
	// A plain GET answer echoes no key: 24-byte header plus 516 bytes of
	// body (4 bytes of flags and a 512-byte value).
	raw := respRaw(t, memcache.OpGet, 0, "", string(make([]byte, 516)))
	ri := RespInfo{Match: true, Admit: true, Variant: memcache.OpGet, HasTag: true}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		f, _ := c.Begin(lookupInfo(memcache.OpGet, fmt.Sprintf("key-%06d", i), 0), Waiter{})
		f.Fill(raw, ri)
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if got := c.BytesResident(); got != n*540 || c.Len() != n {
		t.Fatalf("resident %d bytes in %d entries, want %d in %d", got, c.Len(), n*540, n)
	}
	per := (int64(after.HeapAlloc) - int64(before.HeapAlloc)) / n
	t.Logf("%d heap bytes per 540-byte entry", per)
	if per > 1000 {
		t.Fatalf("%d heap bytes per 540-byte entry, want <= 1000", per)
	}
}

// TestHitPatchesOpaque checks a served view carries the requester's
// opaque, not the stored image's, and replays the stored bytes otherwise.
func TestHitPatchesOpaque(t *testing.T) {
	c := newTestCache(t, Config{Workers: 1})
	stored := respRaw(t, memcache.OpGetK, 42, "k1", "v1")
	fill(t, c, memcache.OpGetK, "k1", 42, "v1")

	v, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "k1", 99))
	if !ok {
		t.Fatal("expected hit")
	}
	raw := v.Field("_raw").AsBytes()
	if got := binary.BigEndian.Uint32(raw[memcachedOpaqueOff:]); got != 99 {
		t.Fatalf("served opaque = %d, want 99", got)
	}
	// Everything but the opaque is the stored image verbatim.
	if len(raw) != len(stored) {
		t.Fatalf("served %d bytes, stored %d", len(raw), len(stored))
	}
	for i := range raw {
		if i >= memcachedOpaqueOff && i < memcachedOpaqueOff+4 {
			continue
		}
		if raw[i] != stored[i] {
			t.Fatalf("served byte %d = %#x, stored %#x", i, raw[i], stored[i])
		}
	}
	v.Release()

	v2, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "k1", 42))
	if !ok {
		t.Fatal("expected hit")
	}
	raw2 := v2.Field("_raw").AsBytes()
	if string(raw2) != string(stored) {
		t.Fatal("matching opaque should replay the stored image verbatim")
	}
	v2.Release()
}

// TestSingleFlightStress races N goroutines missing one key: exactly one
// leads (one upstream round trip), the rest coalesce and receive views
// with their own opaque. The leader fills only once all N-1 have parked:
// a goroutine that missed before the fill but reached Begin after it would
// rightly lead a second round trip. Run under -race; the teardown
// ref-balance check pins refgets == refputs.
func TestSingleFlightStress(t *testing.T) {
	before := buffer.Global.Counters()
	c := New(Config{Proto: Memcached{}, Workers: 4})

	const N = 64
	var upstream atomic.Int32
	var delivered atomic.Int32
	var wg sync.WaitGroup
	start := make(chan struct{})
	errs := make(chan string, 4*N)

	for i := 0; i < N; i++ {
		i := i
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			opaque := uint32(1000 + i)
			info := lookupInfo(memcache.OpGetK, "hotkey", opaque)
			if v, ok, _ := c.Get(i%4, info); ok {
				v.Release()
				errs <- "hit before the fill"
				return
			}
			got := make(chan value.Value, 1)
			w := Waiter{
				Tag:    uint64(opaque),
				HasTag: true,
				Sink: funcSink{
					deliver: func(view value.Value) { got <- view },
					abort:   func() { errs <- "unexpected abort" },
				},
			}
			f, leader := c.Begin(info, w)
			if leader {
				upstream.Add(1)
				deadline := time.Now().Add(5 * time.Second)
				for cval(c.Counters(), "coalesced") < N-1 && time.Now().Before(deadline) {
					time.Sleep(100 * time.Microsecond)
				}
				f.Fill(respRaw(t, memcache.OpGetK, opaque, "hotkey", "hotvalue"),
					RespInfo{Match: true, Admit: true, Variant: memcache.OpGetK,
						Tag: uint64(opaque), HasTag: true})
				return
			}
			select {
			case view := <-got:
				checkServed(errs, view, opaque)
				delivered.Add(1)
			case <-time.After(5 * time.Second):
				errs <- "timed out waiting for coalesced delivery"
			}
		}()
	}
	// Readers that only Get race the fill: they spin on misses until the
	// image is installed, so -race sees hit views built while Fill installs,
	// then check a few hits' bytes.
	const readers = 4
	for r := 0; r < readers; r++ {
		r := r
		wg.Add(1)
		go func() {
			defer wg.Done()
			<-start
			opaque := uint32(5000 + r)
			info := lookupInfo(memcache.OpGetK, "hotkey", opaque)
			deadline := time.Now().Add(5 * time.Second)
			for hits := 0; hits < 8; {
				if v, ok, _ := c.Get(r%4, info); ok {
					checkServed(errs, v, opaque)
					hits++
				} else if time.Now().After(deadline) {
					errs <- "reader never saw the fill"
					return
				} else {
					runtime.Gosched()
				}
			}
		}()
	}
	close(start)
	wg.Wait()
	close(errs)
	for e := range errs {
		t.Error(e)
	}
	if n := upstream.Load(); n != 1 {
		t.Fatalf("%d upstream round trips, want exactly 1", n)
	}
	if got := delivered.Load(); got != N-1 {
		t.Fatalf("%d coalesced views delivered, want %d", got, N-1)
	}
	if cval(c.Counters(), "fills") != 1 {
		t.Fatalf("fills = %d, want 1", cval(c.Counters(), "fills"))
	}
	c.Close()
	requirePoolBalanced(t, before)
}

func checkServed(errs chan<- string, v value.Value, opaque uint32) {
	raw := v.Field("_raw").AsBytes()
	if len(raw) < 24 {
		errs <- "short served view"
	} else if got := binary.BigEndian.Uint32(raw[memcachedOpaqueOff:]); got != opaque {
		errs <- fmt.Sprintf("served opaque %d, want %d", got, opaque)
	}
	v.Release()
}

// TestDefaultClockMonotonic pins the default clock to the process's
// monotonic nanoseconds (metrics.Now), not wall time: born, expires and
// stale deadlines then survive a wall-clock step, which would otherwise
// expire — or revive — every entry at once.
func TestDefaultClockMonotonic(t *testing.T) {
	c := newTestCache(t, Config{Workers: 1})
	before := metrics.Now()
	got := c.now()
	after := metrics.Now()
	if got < before || got > after {
		t.Fatalf("default clock read %d outside metrics.Now's [%d, %d]: not the monotonic clock",
			got, before, after)
	}
	// Entries fill and serve under it.
	fill(t, c, memcache.OpGetK, "k1", 1, "v1")
	v, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "k1", 1))
	if !ok {
		t.Fatal("want a hit under the default clock")
	}
	v.Release()
}

// TestTTLExpiry checks lazy expiry: the first lookup past the deadline
// misses and removes the entry structurally — every shard, the index and
// the resident-byte gauge — so an idle expired key holds no pooled bytes;
// a refill serves again.
func TestTTLExpiry(t *testing.T) {
	c := newTestCache(t, Config{Workers: 2, TTL: time.Second})
	var clock atomic.Int64
	c.now = clock.Load

	fill(t, c, memcache.OpGetK, "k1", 1, "v1")
	if _, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "k1", 1)); !ok {
		t.Fatal("want hit before expiry")
	}
	clock.Store(int64(2 * time.Second))
	if _, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "k1", 1)); ok {
		t.Fatal("want miss after expiry")
	}
	// The observed expiry removed the entry everywhere, not just from the
	// observing shard: the other shard misses structurally and nothing
	// stays resident.
	if _, ok, _ := c.Get(1, lookupInfo(memcache.OpGetK, "k1", 1)); ok {
		t.Fatal("want miss after expiry on second shard")
	}
	if got := cval(c.Counters(), "expired"); got != 1 {
		t.Fatalf("expired = %d, want 1", got)
	}
	if n := c.Len(); n != 0 {
		t.Fatalf("len = %d after observed expiry, want 0", n)
	}
	if b := c.BytesResident(); b != 0 {
		t.Fatalf("%d bytes resident after observed expiry, want 0", b)
	}
	fill(t, c, memcache.OpGetK, "k1", 1, "v2")
	v, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "k1", 1))
	if !ok {
		t.Fatal("want hit after refill")
	}
	v.Release()
}

// TestInvalidate checks write-through invalidation drops the key in every
// variant and kills its in-flight fill (followers re-dispatch, the late
// fill stores nothing).
func TestInvalidate(t *testing.T) {
	c := newTestCache(t, Config{Workers: 1})
	fill(t, c, memcache.OpGet, "k1", 1, "v1")
	fill(t, c, memcache.OpGetK, "k1", 2, "v1")
	fill(t, c, memcache.OpGetK, "other", 3, "v3")

	aborted := 0
	f, leader := c.Begin(lookupInfo(memcache.OpGetK, "pending", 4), Waiter{})
	if !leader {
		t.Fatal("expected to lead")
	}
	_, leader = c.Begin(lookupInfo(memcache.OpGetK, "pending", 5),
		Waiter{Sink: funcSink{
			deliver: func(v value.Value) { v.Release(); t.Error("delivered past invalidation") },
			abort:   func() { aborted++ },
		}})
	if leader {
		t.Fatal("expected to coalesce")
	}

	c.Invalidate(nil, []byte("k1"))
	c.Invalidate(nil, []byte("pending"))
	if aborted != 1 {
		t.Fatalf("aborted = %d, want 1", aborted)
	}
	if _, ok, _ := c.Get(0, lookupInfo(memcache.OpGet, "k1", 1)); ok {
		t.Fatal("GET variant survived invalidation")
	}
	if _, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "k1", 2)); ok {
		t.Fatal("GETK variant survived invalidation")
	}
	v, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "other", 3))
	if !ok {
		t.Fatal("unrelated key dropped by invalidation")
	}
	v.Release()

	// The killed flight's late fill must not resurrect the entry.
	f.Fill(respRaw(t, memcache.OpGetK, 4, "pending", "stale"),
		RespInfo{Match: true, Admit: true, Variant: memcache.OpGetK, Tag: 4, HasTag: true})
	if _, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "pending", 4)); ok {
		t.Fatal("late fill resurrected an invalidated key")
	}
	if cval(c.Counters(), "invalidations") != 2 {
		t.Fatalf("invalidations = %d, want 2", cval(c.Counters(), "invalidations"))
	}
}

// TestClear checks flush_all semantics.
func TestClear(t *testing.T) {
	c := newTestCache(t, Config{Workers: 2})
	for i := 0; i < 8; i++ {
		fill(t, c, memcache.OpGetK, fmt.Sprintf("k%d", i), uint32(i), "v")
	}
	if c.Len() != 8 {
		t.Fatalf("len = %d, want 8", c.Len())
	}
	c.Clear()
	if c.Len() != 0 || c.BytesResident() != 0 {
		t.Fatalf("len=%d bytes=%d after clear, want 0/0", c.Len(), c.BytesResident())
	}
	if _, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "k3", 3)); ok {
		t.Fatal("entry survived clear")
	}
}

// TestEviction checks the byte budget holds by evicting oldest-first.
func TestEviction(t *testing.T) {
	one := len(respRaw(t, memcache.OpGetK, 0, "k0", "v0"))
	c := newTestCache(t, Config{Workers: 1, MaxBytes: int64(3 * one)})
	for i := 0; i < 6; i++ {
		fill(t, c, memcache.OpGetK, fmt.Sprintf("k%d", i), uint32(i), fmt.Sprintf("v%d", i))
	}
	if got := c.BytesResident(); got > int64(3*one) {
		t.Fatalf("resident %d bytes exceeds budget %d", got, 3*one)
	}
	if got := cval(c.Counters(), "evictions"); got != 3 {
		t.Fatalf("evictions = %d, want 3", got)
	}
	// Oldest gone, newest present.
	if _, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "k0", 0)); ok {
		t.Fatal("oldest entry survived eviction")
	}
	v, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "k5", 5))
	if !ok {
		t.Fatal("newest entry evicted")
	}
	v.Release()
}

// TestNonAdmissibleFillAborts checks a miss resolved by a non-cacheable
// response (memcached KeyNotFound) aborts its followers instead of caching.
func TestNonAdmissibleFillAborts(t *testing.T) {
	c := newTestCache(t, Config{Workers: 1})
	info := lookupInfo(memcache.OpGetK, "missing", 1)
	f, leader := c.Begin(info, Waiter{})
	if !leader {
		t.Fatal("expected to lead")
	}
	aborted := 0
	c.Begin(lookupInfo(memcache.OpGetK, "missing", 2),
		Waiter{Sink: funcSink{abort: func() { aborted++ }}})
	f.Fill([]byte("irrelevant"), RespInfo{Match: true, Admit: false})
	if aborted != 1 {
		t.Fatalf("aborted = %d, want 1", aborted)
	}
	if _, ok, _ := c.Get(0, info); ok {
		t.Fatal("non-admissible response was cached")
	}
	if cval(c.Counters(), "aborts") != 1 {
		t.Fatalf("aborts = %d, want 1", cval(c.Counters(), "aborts"))
	}
}

// TestVariantSeparation checks GET and GETK entries don't serve each other.
func TestVariantSeparation(t *testing.T) {
	c := newTestCache(t, Config{Workers: 1})
	fill(t, c, memcache.OpGetK, "k1", 1, "v1")
	if _, ok, _ := c.Get(0, lookupInfo(memcache.OpGet, "k1", 1)); ok {
		t.Fatal("GET served from a GETK entry")
	}
	v, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "k1", 1))
	if !ok {
		t.Fatal("GETK entry missing")
	}
	v.Release()
}

// TestClosedCache checks post-Close behaviour: Begin returns no flight
// (untracked forward) and fills are dropped.
func TestClosedCache(t *testing.T) {
	c := New(Config{Proto: Memcached{}, Workers: 1})
	info := lookupInfo(memcache.OpGetK, "k1", 1)
	f, _ := c.Begin(info, Waiter{})
	c.Close()
	f.Fill(respRaw(t, memcache.OpGetK, 1, "k1", "v1"),
		RespInfo{Match: true, Admit: true, Variant: memcache.OpGetK, Tag: 1, HasTag: true})
	if c.Len() != 0 {
		t.Fatal("fill stored into a closed cache")
	}
	if f2, leader := c.Begin(info, Waiter{}); f2 != nil || !leader {
		t.Fatal("Begin on a closed cache must return (nil, true)")
	}
}

// cval reads one counter from a set (test convenience).
// requirePoolBalanced fails the test unless every pooled reference taken
// since the before snapshot has been released (refgets == refputs).
func requirePoolBalanced(t *testing.T, before metrics.CounterSet) {
	t.Helper()
	after := buffer.Global.Counters()
	gets := cval(after, "refgets") - cval(before, "refgets")
	puts := cval(after, "refputs") - cval(before, "refputs")
	if gets != puts {
		t.Fatalf("pool ref leak: refgets delta %d != refputs delta %d", gets, puts)
	}
}

func cval(cs metrics.CounterSet, name string) uint64 {
	v, _ := cs.Get(name)
	return v
}

// respRawNotFound renders a KeyNotFound response wire image (the negative
// caching seed).
func respRawNotFound(t *testing.T, opcode byte, opaque uint32, key string) []byte {
	t.Helper()
	req := memcache.Request(opcode, []byte(key), nil)
	req.SetField("opaque", value.Int(int64(opaque)))
	resp := memcache.Response(req, memcache.StatusKeyNotFound, nil, nil)
	raw, err := memcache.Codec.Encode(nil, resp)
	if err != nil {
		t.Fatalf("encode: %v", err)
	}
	req.Release()
	resp.Release()
	return raw
}

// TestNegativeCache checks memcached KeyNotFound responses are admitted as
// negative entries bounded by NegativeTTL: a miss storm on an absent key is
// absorbed, the entry expires on the short negative clock, writes drop it
// like any entry, and disabling negative caching drops the fill entirely.
func TestNegativeCache(t *testing.T) {
	// The adapter classifies authoritative absence as admissible+negative.
	req := memcache.Request(memcache.OpGetK, []byte("absent"), nil)
	resp := memcache.Response(req, memcache.StatusKeyNotFound, nil, nil)
	ri := Memcached{}.Response(resp)
	if !ri.Admit || !ri.Negative {
		t.Fatalf("KeyNotFound classified admit=%v negative=%v, want true/true", ri.Admit, ri.Negative)
	}
	req.Release()
	resp.Release()

	c := newTestCache(t, Config{Workers: 1}) // NegativeTTL 0 → DefaultNegativeTTL
	var clock atomic.Int64
	c.now = clock.Load

	info := lookupInfo(memcache.OpGetK, "absent", 7)
	f, leader := c.Begin(info, Waiter{})
	if !leader {
		t.Fatal("expected to lead")
	}
	f.Fill(respRawNotFound(t, memcache.OpGetK, 7, "absent"),
		RespInfo{Match: true, Admit: true, Negative: true,
			Variant: memcache.OpGetK, Tag: 7, HasTag: true})
	v, ok, _ := c.Get(0, info)
	if !ok {
		t.Fatal("negative entry did not serve")
	}
	v.Release()
	if got := cval(c.Counters(), "neg_hits"); got != 1 {
		t.Fatalf("neg_hits = %d, want 1", got)
	}
	// Negative entries live on the short clock, never the default TTL, and
	// never serve stale.
	clock.Store(int64(DefaultNegativeTTL) + 1)
	if _, ok, _ := c.Get(0, info); ok {
		t.Fatal("negative entry served past NegativeTTL")
	}

	// A write drops a resident negative entry like any other.
	f, _ = c.Begin(info, Waiter{})
	f.Fill(respRawNotFound(t, memcache.OpGetK, 7, "absent"),
		RespInfo{Match: true, Admit: true, Negative: true,
			Variant: memcache.OpGetK, Tag: 7, HasTag: true})
	c.Invalidate(nil, []byte("absent"))
	if _, ok, _ := c.Get(0, info); ok {
		t.Fatal("negative entry survived invalidation")
	}

	// NegativeTTL < 0 disables negative caching: the fill stores nothing.
	c2 := newTestCache(t, Config{Workers: 1, NegativeTTL: -1})
	f, _ = c2.Begin(info, Waiter{})
	f.Fill(respRawNotFound(t, memcache.OpGetK, 7, "absent"),
		RespInfo{Match: true, Admit: true, Negative: true,
			Variant: memcache.OpGetK, Tag: 7, HasTag: true})
	if c2.Len() != 0 {
		t.Fatal("negative entry stored with negative caching disabled")
	}
}

// TestMemcachedWriteScoping pins the invalidation blast radius of every
// mutation shape: key-carrying opcodes — loud, quiet, and expiry-touching —
// invalidate exactly their key; only flush and truly keyless unknown
// opcodes clear the whole cache.
func TestMemcachedWriteScoping(t *testing.T) {
	cases := []struct {
		name  string
		op    byte
		key   string
		class Class
	}{
		{"Set", memcache.OpSet, "k", ClassInvalidate},
		{"Delete", memcache.OpDelete, "k", ClassInvalidate},
		{"SetQ", memcache.OpSetQ, "k", ClassInvalidate},
		{"AddQ", memcache.OpAddQ, "k", ClassInvalidate},
		{"ReplaceQ", memcache.OpReplaceQ, "k", ClassInvalidate},
		{"DeleteQ", memcache.OpDeleteQ, "k", ClassInvalidate},
		{"IncrementQ", memcache.OpIncrementQ, "k", ClassInvalidate},
		{"DecrementQ", memcache.OpDecrementQ, "k", ClassInvalidate},
		{"AppendQ", memcache.OpAppendQ, "k", ClassInvalidate},
		{"PrependQ", memcache.OpPrependQ, "k", ClassInvalidate},
		{"Touch", memcache.OpTouch, "k", ClassInvalidate},
		{"GAT", memcache.OpGAT, "k", ClassInvalidate},
		{"GATQ", memcache.OpGATQ, "k", ClassInvalidate},
		{"GATK", memcache.OpGATK, "k", ClassInvalidate},
		{"GATKQ", memcache.OpGATKQ, "k", ClassInvalidate},
		{"unknown keyed", 0x55, "k", ClassInvalidate},
		{"Flush", memcache.OpFlush, "", ClassInvalidateAll},
		{"FlushQ", memcache.OpFlushQ, "", ClassInvalidateAll},
		{"unknown keyless", 0x55, "", ClassInvalidateAll},
		{"Noop", memcache.OpNoop, "", ClassPass},
		{"GetQ", memcache.OpGetQ, "k", ClassPass},
		{"Version", memcache.OpVersion, "", ClassPass},
	}
	for _, tc := range cases {
		var key []byte
		if tc.key != "" {
			key = []byte(tc.key)
		}
		req := memcache.Request(tc.op, key, nil)
		info := Memcached{}.Request(req)
		if info.Class != tc.class {
			t.Errorf("%s: class = %d, want %d", tc.name, info.Class, tc.class)
		}
		if tc.class == ClassInvalidate && string(info.Key) != tc.key {
			t.Errorf("%s: key = %q, want %q", tc.name, info.Key, tc.key)
		}
		req.Release()
	}

	// End to end: a quiet mutation's invalidation drops only its key.
	c := newTestCache(t, Config{Workers: 1})
	fill(t, c, memcache.OpGetK, "mine", 1, "v1")
	fill(t, c, memcache.OpGetK, "other", 2, "v2")
	w := memcache.Request(memcache.OpSetQ, []byte("mine"), []byte("nv"))
	wi := Memcached{}.Request(w)
	c.Invalidate(wi.Scope, wi.Key)
	w.Release()
	if _, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "mine", 1)); ok {
		t.Fatal("written key survived its quiet mutation")
	}
	v, ok, _ := c.Get(0, lookupInfo(memcache.OpGetK, "other", 2))
	if !ok {
		t.Fatal("unrelated key dropped by a single-key quiet mutation")
	}
	v.Release()
}
