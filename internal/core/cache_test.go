package core

import (
	"testing"

	rcache "flick/internal/cache"
	"flick/internal/proto/memcache"
	"flick/internal/value"
)

// mcLookup builds the ReqInfo of a memcached GET for key with the given
// opaque.
func mcLookup(key string, opaque uint32) rcache.ReqInfo {
	return rcache.ReqInfo{
		Class:   rcache.ClassLookup,
		Key:     []byte(key),
		Variant: memcache.OpGet,
		Tag:     uint64(opaque),
		HasTag:  true,
	}
}

// mcResponse builds a decoded plain-GET response record (no key echo) with
// the given opaque and value.
func mcResponse(opaque uint32, val string) value.Value {
	req := memcache.Request(memcache.OpGet, nil, nil)
	req.SetField("opaque", value.Int(int64(opaque)))
	resp := memcache.Response(req, memcache.StatusOK, nil, []byte(val))
	resp.SetField("_raw", value.Bytes([]byte(val)))
	req.Release()
	return resp
}

// TestCacheTrackerBlocksWrongKeyFill pins the non-FIFO correlation rule
// that re-dispatched (tracking-only) pendings participate in the ambiguity
// check: a plain GET response whose client-chosen opaque collides with a
// newer pending fill for a different key must abort that fill, never fill
// it with the wrong key's bytes.
func TestCacheTrackerBlocksWrongKeyFill(t *testing.T) {
	cc := rcache.New(rcache.Config{Proto: rcache.Memcached{}, Workers: 1})
	defer cc.Close()
	inst := &Instance{crt: &cacheRT{cc: cc, proto: rcache.Memcached{}}}
	crt := inst.crt

	// A re-dispatched GET for key X is in flight, tracked without a
	// flight; a newer fill for key Y is pending under the same opaque.
	crt.pendings = append(crt.pendings, pendingFill{
		key: []byte("X"), variant: memcache.OpGet, tag: 7, hasTag: true,
	})
	fy, leader := cc.Begin(mcLookup("Y", 7), rcache.Waiter{})
	if !leader {
		t.Fatal("expected to lead Y's fill")
	}
	crt.pendings = append(crt.pendings, pendingFill{
		f: fy, key: fy.Key(), variant: fy.Variant(), tag: 7, hasTag: true,
	})

	// X's response arrives: same variant and opaque as Y's pending, no
	// key echo — ambiguous, so Y's flight must abort unfilled.
	resp := mcResponse(7, "value-of-X")
	inst.cacheBackendResponse(resp, memcache.SlotRaw)
	resp.Release()

	if len(crt.pendings) != 0 {
		t.Fatalf("%d pendings left, want 0 (ambiguous match consumes all)", len(crt.pendings))
	}
	if _, ok, _ := cc.Get(0, mcLookup("Y", 7)); ok {
		t.Fatal("key Y was filled with key X's response bytes")
	}

	// A tracked re-dispatch alone consumes its slot without filling.
	crt.pendings = append(crt.pendings, pendingFill{
		key: []byte("X"), variant: memcache.OpGet, tag: 9, hasTag: true,
	})
	resp = mcResponse(9, "value-of-X")
	inst.cacheBackendResponse(resp, memcache.SlotRaw)
	resp.Release()
	if len(crt.pendings) != 0 {
		t.Fatalf("%d pendings left, want 0 (tracker consumed)", len(crt.pendings))
	}
	if cc.Len() != 0 {
		t.Fatalf("%d entries cached, want 0 (trackers never fill)", cc.Len())
	}
}

// TestLeadingMissAllocs pins what a non-FIFO leading miss allocates: the
// flight it leads (header, owned key, composite key string) and nothing
// else — no waiter, which Begin ignores for a leader, and no pending-fill
// header, which the correlation table holds by value.
func TestLeadingMissAllocs(t *testing.T) {
	cc := rcache.New(rcache.Config{Proto: rcache.Memcached{}, Workers: 1})
	defer cc.Close()
	inst := &Instance{crt: &cacheRT{cc: cc, proto: rcache.Memcached{}}}
	crt := inst.crt
	msg := memcache.Request(memcache.OpGet, []byte("key-000001"), nil)
	defer msg.Release()
	info := crt.proto.Request(msg)
	n := testing.AllocsPerRun(200, func() {
		if inst.cacheBeginMiss(info, msg) {
			panic("a leading miss coalesced")
		}
		f := crt.pendings[0].f
		crt.pendings = crt.pendings[:0]
		f.Abort()
	})
	if n > 3 {
		t.Fatalf("leading miss allocates %v per run, want <= 3", n)
	}
}
