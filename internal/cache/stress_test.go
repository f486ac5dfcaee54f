package cache

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flick/internal/buffer"
)

// notMod304 is the upstream revalidation answer the stress tests feed back.
const notMod304 = "HTTP/1.1 304 Not Modified\r\n\r\n"

// TestStaleRevalidateStress hammers one repeatedly-expiring key from 64
// goroutines under -race while a driver advances the clock: every expiry
// wave must claim exactly one background revalidation (the claim window is
// held open by a simulated slow upstream), a failing refresh must leave the
// stale entry serving (no goroutine ever wedges waiting), and teardown must
// restore pool ref-balance (refgets == refputs).
func TestStaleRevalidateStress(t *testing.T) {
	before := buffer.Global.Counters()
	c := New(Config{Proto: HTTPGet{}, Workers: 4, TTL: time.Second, StaleTTL: time.Hour})
	var clock atomic.Int64
	c.now = clock.Load

	req := decodeHTTP(t, true, reqA)
	info := HTTPGet{}.Request(req)
	seed := func(f *Flight) {
		resp := decodeHTTP(t, false, respSWR)
		ri := HTTPGet{}.Response(resp)
		f.Fill([]byte(respSWR), ri)
		resp.Release()
	}
	if f, leader := c.Begin(info, Waiter{}); !leader {
		t.Fatal("expected to lead the seed fill")
	} else {
		seed(f)
	}

	const N = 64
	const iters = 200
	// Workers also run until the clock has ticked past expiry a few times:
	// on a busy machine they could otherwise finish before it ticks once.
	const minTicks = 8
	var inflight, violations, claims, refills, ticks atomic.Int32
	var wg sync.WaitGroup
	stop := make(chan struct{})
	go func() { // the clock: each tick pushes the entry past max-age=1
		for {
			select {
			case <-stop:
				return
			default:
				clock.Add(int64(400 * time.Millisecond))
				ticks.Add(1)
				time.Sleep(100 * time.Microsecond)
			}
		}
	}()

	for g := 0; g < N; g++ {
		g := g
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < iters || ticks.Load() < minTicks; i++ {
				v, ok, rv := c.Get(g%4, info)
				if ok {
					v.Release()
				}
				if rv != nil {
					if cur := inflight.Add(1); cur > 1 {
						violations.Add(1)
					}
					claims.Add(1)
					time.Sleep(200 * time.Microsecond) // slow upstream
					inflight.Add(-1)
					rv.Req.Release()
					if i%3 == 0 {
						// Upstream died: the refresh fails, stale keeps serving.
						rv.F.Abort()
					} else {
						rv.F.Fill([]byte(notMod304),
							RespInfo{Match: true, NotModified: true})
					}
					continue
				}
				if !ok {
					// Hard-expired under a racing clock jump: refill so the
					// pipeline keeps moving.
					f, leader := c.Begin(info, Waiter{})
					if leader {
						refills.Add(1)
						seed(f)
					}
				}
			}
		}()
	}
	wg.Wait()
	close(stop)

	if n := violations.Load(); n != 0 {
		t.Fatalf("%d single-flight violations (more than one revalidation in flight)", n)
	}
	if claims.Load() == 0 {
		t.Fatal("stress sequence claimed no revalidations — clock never crossed expiry")
	}
	cs := c.Counters()
	if cval(cs, "stale_served") == 0 {
		t.Fatal("no stale hits recorded")
	}
	if cval(cs, "revalidated") == 0 {
		t.Fatal("no upstream 304 extensions recorded")
	}

	c.Close()
	req.Release()
	requirePoolBalanced(t, before)
}

// TestRevalUpstreamDeathServesStale is the deterministic fault-injection
// half: the upstream is killed mid-revalidation (the conditional request
// never completes) and the cache must degrade gracefully — the stale entry
// keeps serving inside its window, the claim is re-armed for the next
// lookup, a later successful refresh restores freshness, and the hard
// deadline still bounds total staleness.
func TestRevalUpstreamDeathServesStale(t *testing.T) {
	c := newTestCache(t, Config{Proto: HTTPGet{}, Workers: 1,
		TTL: 10 * time.Second, StaleTTL: 30 * time.Second})
	var clock atomic.Int64
	c.now = clock.Load

	req := decodeHTTP(t, true, reqA)
	defer req.Release()
	info := HTTPGet{}.Request(req)
	f, leader := c.Begin(info, Waiter{})
	if !leader {
		t.Fatal("expected to lead")
	}
	resp := decodeHTTP(t, false, respSWR)
	f.Fill([]byte(respSWR), HTTPGet{}.Response(resp))
	resp.Release()

	// Past max-age=1: stale hit claims the revalidation...
	clock.Store(int64(2 * time.Second))
	v, ok, rv := c.Get(0, info)
	if !ok || rv == nil {
		t.Fatalf("want stale hit with claim, got ok=%v rv=%v", ok, rv)
	}
	v.Release()
	// ...and the upstream dies before answering.
	if uri := string(rv.Req.Field("uri").AsBytes()); uri != "/a" {
		t.Fatalf("refresh request uri = %q, want /a", uri)
	}
	rv.Req.Release()
	rv.F.Abort()

	// Graceful degradation: the stale entry still serves, and the claim
	// re-arms for this lookup.
	v, ok, rv = c.Get(0, info)
	if !ok {
		t.Fatal("stale entry vanished after a failed revalidation")
	}
	v.Release()
	if rv == nil {
		t.Fatal("failed revalidation did not re-arm the claim")
	}

	// This time the upstream answers: a 304 restores freshness.
	rv.Req.Release()
	rv.F.Fill([]byte(notMod304), RespInfo{Match: true, NotModified: true})
	v, ok, rv = c.Get(0, info)
	if !ok || rv != nil {
		t.Fatalf("want fresh hit after 304, got ok=%v claimed=%v", ok, rv != nil)
	}
	v.Release()
	if got := cval(c.Counters(), "revalidated"); got != 1 {
		t.Fatalf("revalidated = %d, want 1", got)
	}

	// The hard deadline still holds: a revalidation that keeps failing
	// bounds staleness at expires + StaleTTL, then the entry dies.
	clock.Store(int64(37 * time.Second)) // extension expires at 12s, hard deadline 42s
	v, ok, rv = c.Get(0, info)
	if !ok || rv == nil {
		t.Fatal("want stale hit with claim inside the window")
	}
	v.Release()
	rv.Req.Release()
	rv.F.Abort()
	clock.Store(int64(47 * time.Second))
	if _, ok, _ := c.Get(0, info); ok {
		t.Fatal("entry served past its hard staleness deadline")
	}
	if c.Len() != 0 {
		t.Fatalf("len = %d after hard expiry, want 0", c.Len())
	}
	if got := cval(c.Counters(), "stale_served"); got != 3 {
		t.Fatalf("stale_served = %d, want 3", got)
	}
}

// TestGetVsRevalidate304Race is the regression for the data race that kept
// the race gate red: one goroutine serves hits from its own shard while
// another resolves revalidations with upstream 304s. Lookups hold only a
// shard lock, so anything a 304 changes about a published entry is a race
// the detector reports here; it passes because a 304 publishes a new entry
// instead.
func TestGetVsRevalidate304Race(t *testing.T) {
	c := newTestCache(t, Config{Proto: HTTPGet{}, Workers: 2,
		TTL: 10 * time.Second, StaleTTL: time.Hour})
	var clock atomic.Int64
	c.now = clock.Load

	req := decodeHTTP(t, true, reqA)
	defer req.Release()
	info := HTTPGet{}.Request(req)
	f, leader := c.Begin(info, Waiter{})
	if !leader {
		t.Fatal("expected to lead")
	}
	resp := decodeHTTP(t, false, respSWR)
	f.Fill([]byte(respSWR), HTTPGet{}.Response(resp))
	resp.Release()

	stop := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	wg.Add(1)
	go func() { // reader: hammers Get under its shard lock only
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			v, ok, rv := c.Get(1, info)
			if ok {
				v.Release()
			}
			if rv != nil {
				rv.Req.Release()
				rv.F.Abort()
			}
			reads.Add(1)
		}
	}()

	for i := 1; i <= 200; i++ {
		// Let the reader get a lookup in between 304s, then step past the
		// last one's max-age=1 extension so the entry is stale again.
		for n := reads.Load(); reads.Load() == n; {
			runtime.Gosched()
		}
		clock.Store(int64(i) * int64(2*time.Second))
		v, ok, rv := c.Get(0, info)
		if ok {
			v.Release()
		}
		if rv != nil {
			rv.Req.Release()
			rv.F.Fill([]byte(notMod304), RespInfo{Match: true, NotModified: true})
		}
	}
	close(stop)
	wg.Wait()
	if cval(c.Counters(), "revalidated") == 0 {
		t.Fatal("no upstream 304 was applied while the reader ran")
	}
}

// TestHitViewOutlives304 pins the ownership side of the re-header: views
// handed out before an upstream 304 — the patched body copy and the
// synthesized 304, which points into the entry's own image — stay
// byte-identical and releasable after the old header is dropped, and even
// after the new one is too, across a collection and a round of pool reuse;
// the pool balances once everything is released.
func TestHitViewOutlives304(t *testing.T) {
	before := buffer.Global.Counters()
	c := New(Config{Proto: HTTPGet{}, Workers: 2, TTL: 10 * time.Second, StaleTTL: 30 * time.Second})
	var clock atomic.Int64
	c.now = clock.Load

	req, cond := decodeHTTP(t, true, reqA), decodeHTTP(t, true, condV1)
	info, cinfo := HTTPGet{}.Request(req), HTTPGet{}.Request(cond)
	f, _ := c.Begin(info, Waiter{})
	resp := decodeHTTP(t, false, respSWR)
	f.Fill([]byte(respSWR), HTTPGet{}.Response(resp))
	resp.Release()

	body, ok1, _ := c.Get(0, info)
	notmod, ok2, _ := c.Get(1, cinfo)
	if !ok1 || !ok2 {
		t.Fatalf("want two hits on the seeded entry, got %v %v", ok1, ok2)
	}
	wantBody := string(body.Field("_raw").AsBytes())
	wantNotMod := string(notmod.Field("_raw").AsBytes())
	check := func(when string) {
		t.Helper()
		if got := string(body.Field("_raw").AsBytes()); got != wantBody {
			t.Fatalf("%s: body view changed:\n%q\nwant\n%q", when, got, wantBody)
		}
		if got := string(notmod.Field("_raw").AsBytes()); got != wantNotMod {
			t.Fatalf("%s: 304 view changed:\n%q\nwant\n%q", when, got, wantNotMod)
		}
	}

	resident := c.BytesResident()
	clock.Store(int64(2 * time.Second))
	v, ok, rv := c.Get(0, info)
	if !ok || rv == nil {
		t.Fatalf("want stale hit with claim, got ok=%v claimed=%v", ok, rv != nil)
	}
	v.Release()
	rv.Req.Release()
	rv.F.Fill([]byte(notMod304), RespInfo{Match: true, NotModified: true})
	cs := c.Counters()
	if cval(cs, "revalidated") != 1 || cval(cs, "fills") != 1 || c.Len() != 1 || c.BytesResident() != resident {
		t.Fatalf("after 304: revalidated=%d fills=%d len=%d resident=%d, want 1 1 1 %d",
			cval(cs, "revalidated"), cval(cs, "fills"), c.Len(), c.BytesResident(), resident)
	}
	check("old header dropped")

	c.Invalidate(info.Scope, info.Key) // now the views are all that point into the image
	runtime.GC()
	for i := 0; i < 8; i++ {
		// Bytes recycled too early would be handed out and scribbled on here.
		r := buffer.Global.GetRef(int(resident))
		b := r.Bytes()
		for j := range b {
			b[j] = 'x'
		}
		r.Release()
	}
	check("new header dropped")
	body.Release()
	notmod.Release()

	c.Close()
	req.Release()
	cond.Release()
	requirePoolBalanced(t, before)
}
