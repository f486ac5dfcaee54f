package cache

import (
	"encoding/binary"

	"flick/internal/buffer"
	"flick/internal/proto/memcache"
	"flick/internal/value"
)

// memcachedOpaqueOff is the byte offset of the opaque field in the 24-byte
// binary-protocol header — the correlation tag MakeHit patches.
const memcachedOpaqueOff = 12

// Memcached adapts the cache to the memcached binary protocol — the
// workload the paper's Listing 1 caches. GET and GETK responses are cached
// per key (as distinct variants: a GETK response echoes the key, a GET
// response doesn't); every mutation opcode writes through as an
// invalidation; flush_all clears. Correlation is tag-based (the opaque
// header field), so the adapter is non-FIFO: a GETK fill also matches by
// the echoed key.
//
// KeyNotFound responses are admitted as negative entries (RespInfo.
// Negative, bounded by Config.NegativeTTL): a miss storm on an absent key
// is absorbed by the proxy instead of hammering the backend, and any
// mutation of the key drops the negative entry like any other.
//
// Served views patch the stored image's opaque with the requester's own,
// so pipelined clients correlate correctly even though a hit may overtake
// an earlier in-flight miss on the same connection (binary-protocol
// clients order by opaque, not arrival).
type Memcached struct{}

// Name implements Protocol.
func (Memcached) Name() string { return "memcached" }

// Fifo implements Protocol: opaque/key correlation, not arrival order.
func (Memcached) Fifo() bool { return false }

// Variants implements Protocol.
func (Memcached) Variants() []byte { return []byte{memcache.OpGet, memcache.OpGetK} }

// Request implements Protocol.
func (Memcached) Request(req value.Value) ReqInfo {
	op := byte(req.IntAt(memcache.SlotOpcode))
	switch op {
	case memcache.OpGet, memcache.OpGetK:
		key := req.BytesAt(memcache.SlotKey)
		if len(key) == 0 {
			return ReqInfo{Class: ClassPass}
		}
		return ReqInfo{
			Class:   ClassLookup,
			Key:     key,
			Variant: op,
			Tag:     uint64(uint32(req.IntAt(memcache.SlotOpaque))),
			HasTag:  true,
		}
	case memcache.OpSet, memcache.OpAdd, memcache.OpReplace, memcache.OpDelete,
		memcache.OpIncrement, memcache.OpDecrement, memcache.OpAppend, memcache.OpPrepend,
		memcache.OpSetQ, memcache.OpAddQ, memcache.OpReplaceQ, memcache.OpDeleteQ,
		memcache.OpIncrementQ, memcache.OpDecrementQ, memcache.OpAppendQ, memcache.OpPrependQ,
		memcache.OpTouch, memcache.OpGAT, memcache.OpGATQ, memcache.OpGATK, memcache.OpGATKQ:
		// Every key-carrying mutation — loud, quiet, or expiry-touching —
		// invalidates exactly its key.
		return ReqInfo{Class: ClassInvalidate, Key: req.BytesAt(memcache.SlotKey)}
	case memcache.OpFlush, memcache.OpFlushQ:
		return ReqInfo{Class: ClassInvalidateAll}
	case memcache.OpNoop, memcache.OpGetQ, memcache.OpGetKQ, memcache.OpQuit,
		memcache.OpQuitQ, memcache.OpVersion, memcache.OpStat:
		// Quiet reads break per-request correlation (a miss says nothing)
		// and the rest carry no cacheable payload: pass through.
		return ReqInfo{Class: ClassPass}
	default:
		// Unknown opcode: assume the worst, scoped as tightly as the
		// request allows. With a key, a single-key invalidation covers any
		// mutation semantics it could have; only a keyless unknown op
		// forces a full clear.
		if key := req.BytesAt(memcache.SlotKey); len(key) > 0 {
			return ReqInfo{Class: ClassInvalidate, Key: key}
		}
		return ReqInfo{Class: ClassInvalidateAll}
	}
}

// Response implements Protocol.
func (Memcached) Response(resp value.Value) RespInfo {
	if !memcache.IsResponse(resp) {
		return RespInfo{}
	}
	op := byte(resp.IntAt(memcache.SlotOpcode))
	if op != memcache.OpGet && op != memcache.OpGetK {
		return RespInfo{}
	}
	ri := RespInfo{
		Match:   true,
		Variant: op,
		Tag:     uint64(uint32(resp.IntAt(memcache.SlotOpaque))),
		HasTag:  true,
	}
	if op == memcache.OpGetK {
		if key := resp.BytesAt(memcache.SlotKey); len(key) > 0 {
			ri.Key = key
			ri.HasKey = true
		}
	}
	switch memcache.Status(resp) {
	case memcache.StatusOK:
		ri.Admit = true
	case memcache.StatusKeyNotFound:
		// Authoritative absence: admit as a negative entry so the miss
		// storm coalesces at the proxy (Fill drops it when negative
		// caching is disabled).
		ri.Admit = true
		ri.Negative = true
	}
	return ri
}

// Store implements Protocol: memcached images replay verbatim — no patch
// zones beyond the opaque MakeHit handles, no validators, no revalidation.
func (Memcached) Store(raw []byte, _ RespInfo, _ value.Value) ([]byte, StoreInfo) {
	return raw, StoreInfo{ImageLen: len(raw), AgeOff: -1}
}

// SecondaryKey implements Protocol: memcached has no content negotiation.
func (Memcached) SecondaryKey(dst []byte, _ value.Value, _ string) []byte { return dst }

// MakeHit implements Protocol. When the requester's opaque matches the
// stored image's, the view replays the image verbatim (zero-copy,
// zero-alloc: a pooled record pointing into the image). Otherwise the
// image is copied into a fresh pooled region with the opaque patched —
// still heap-allocation-free once pools are warm.
func (Memcached) MakeHit(h Hit) value.Value {
	if h.HasTag && len(h.Raw) >= 24 &&
		binary.BigEndian.Uint32(h.Raw[memcachedOpaqueOff:]) != uint32(h.Tag) {
		ref := buffer.Global.GetRef(len(h.Raw))
		b := ref.Bytes()[:len(h.Raw)]
		copy(b, h.Raw)
		binary.BigEndian.PutUint32(b[memcachedOpaqueOff:], uint32(h.Tag))
		rec := memcache.Desc.NewOwned(ref)
		rec.L[memcache.SlotRaw] = value.Bytes(b)
		return rec
	}
	rec := memcache.Desc.NewOwned(nil)
	rec.L[memcache.SlotRaw] = value.Bytes(h.Raw)
	return rec
}

// MakeReval implements Protocol: memcached entries carry no validators and
// never revalidate — they expire and refill.
func (Memcached) MakeReval([]byte) value.Value { return value.Null }
