package cache

import (
	"time"

	"flick/internal/value"
)

// Class is a protocol adapter's verdict on a decoded client request.
type Class uint8

const (
	// ClassPass forwards the request untouched: not cacheable, not a
	// write (health probes, quiet reads, credentialed requests).
	ClassPass Class = iota
	// ClassLookup consults the cache and coalesces misses.
	ClassLookup
	// ClassCond is a conditional read (HTTP If-None-Match /
	// If-Modified-Since): a resident entry answers it — with a
	// synthesized 304 on a validator match, the full entry otherwise —
	// but a miss forwards upstream untracked (the origin evaluates the
	// condition; its 200 or 304 passes through unadmitted).
	ClassCond
	// ClassInvalidate is a write through the proxy: drop the key's
	// entries, kill its flights, then forward.
	ClassInvalidate
	// ClassInvalidateAll clears the whole cache, then forwards
	// (memcached flush_all).
	ClassInvalidateAll
)

// ReqInfo classifies one decoded client request. Key, Scope and the
// validator fields alias the request's pooled bytes and are valid only
// until the request releases — the cache copies what it keeps.
type ReqInfo struct {
	Class Class
	// Key is the cache key (memcached key, HTTP URI).
	Key []byte
	// Scope namespaces Key (HTTP Host: two origins sharing a URI path
	// must not share entries). Empty for single-namespace protocols
	// (memcached). Like Key, it aliases the request's pooled bytes.
	Scope []byte
	// Variant distinguishes response shapes sharing a key (memcached GET
	// vs GETK); entries only serve and coalesce within their variant.
	Variant byte
	// Tag/HasTag is the request's correlation tag (memcached opaque): the
	// served view must carry it back.
	Tag    uint64
	HasTag bool
	// Msg is the decoded request message itself. Adapters whose
	// SecondaryKey or Store needs request material (HTTP: Vary header
	// folding, revalidation-request rendering) must set it on ClassLookup
	// and ClassCond; the cache retains it only for the lifetime of a led
	// flight.
	Msg value.Value
	// IfNoneMatch / IfModifiedSince carry the validators of a ClassCond
	// request, matched against the entry's stored validators to choose
	// between a synthesized 304 and the full entry.
	IfNoneMatch     []byte
	IfModifiedSince []byte
}

// RespInfo classifies one decoded upstream response. Byte fields alias the
// response's pooled bytes and are valid only for the duration of the
// classifying call chain.
type RespInfo struct {
	// Match marks a response that answers a ClassLookup request (and so
	// resolves a flight or FIFO slot). Writes' acks and probe replies
	// don't match.
	Match bool
	// Admit allows the response image into the cache (hit status, no
	// forbidding cache directives). A matching non-admissible response
	// still resolves its flight — the waiters re-dispatch.
	Admit bool
	// Informational marks a non-final response (HTTP 1xx): forwarded
	// downstream without consuming the pending request.
	Informational bool
	// NotModified marks an upstream 304: a revalidation flight turns it
	// into a freshness extension of the retained entry instead of a
	// refetch. Never admitted as a body of its own.
	NotModified bool
	// Negative marks a response that authoritatively reports key absence
	// (memcached KeyNotFound): admitted under Config.NegativeTTL so a
	// miss storm doesn't hammer the backend.
	Negative bool
	// Key/HasKey is the key echoed by the response (memcached GETK), used
	// to correlate fills on non-FIFO paths.
	Key    []byte
	HasKey bool
	// Variant mirrors ReqInfo.Variant.
	Variant byte
	// Tag/HasTag is the response's correlation tag (memcached opaque).
	Tag    uint64
	HasTag bool
	// TTL, when positive, caps the entry's lifetime below the cache
	// default (HTTP Cache-Control: max-age). On a NotModified response it
	// caps the extension instead.
	TTL time.Duration
	// Vary is the response's Vary field list (HTTP): the entry is keyed
	// on the named request headers' values in addition to Key. Adapters
	// must refuse admission (Admit=false) for Vary: * themselves.
	Vary []byte
	// ETag / LastModified are the response's validators, stored with the
	// entry to answer conditional requests and to revalidate upstream.
	ETag         []byte
	LastModified []byte
}

// StoreInfo locates the serving-time structures inside the image a
// Protocol.Store call rendered. All offsets index the returned buffer; a
// length of 0 (or an offset of -1) means absent.
type StoreInfo struct {
	// ImageLen bounds the served response image: buf[:ImageLen].
	ImageLen int
	// AgeOff is the offset of the fixed-width Age digit zone inside the
	// image (-1: none): MakeHit patches it with the entry's residency.
	AgeOff int
	// NotMod locates the pre-rendered validator-hit response (HTTP 304).
	NotModOff, NotModLen int
	// Reval locates the pre-rendered upstream refresh request; entries
	// without one are removed at expiry instead of serving stale.
	RevalOff, RevalLen int
	// ETag / LastMod locate the entry's validators.
	ETagOff, ETagLen       int
	LastModOff, LastModLen int
}

// Hit describes one cache hit for Protocol.MakeHit: the stored image, the
// requester's correlation tag, and the residency patch zone.
type Hit struct {
	// Raw is the image to replay (the entry's response image, or its
	// pre-rendered 304 on a validator hit). It lives in memory the
	// collector owns and never changes, so a view may point into it.
	Raw []byte
	// Tag/HasTag is the requester's correlation tag (memcached opaque).
	Tag    uint64
	HasTag bool
	// AgeOff/AgeSecs is the Age patch zone inside Raw (-1: replay
	// verbatim) and the entry's residency in whole seconds.
	AgeOff  int
	AgeSecs int64
}

// Protocol adapts the cache to one wire protocol: classification of
// requests and responses, rendering of stored images, and construction of
// served hit views.
type Protocol interface {
	// Name identifies the adapter ("memcached", "http-get").
	Name() string
	// Fifo reports the response-correlation discipline: true means
	// responses answer requests strictly in order per upstream connection
	// (HTTP/1.1); false means responses carry their own correlation
	// (memcached opaque/key echo) and may be matched out of order.
	Fifo() bool
	// Variants enumerates the Variant bytes the adapter emits, so
	// invalidation can sweep every response shape of a key.
	Variants() []byte
	// Request classifies a decoded client request.
	Request(req value.Value) ReqInfo
	// Response classifies a decoded upstream response.
	Response(resp value.Value) RespInfo
	// Store renders the image the cache retains for an admitted response:
	// protocols may inject serving-time patch zones (HTTP Age), a
	// pre-rendered validator-hit response, and an upstream refresh
	// request (built from req, the leading request; may be Null). The
	// returned buffer need only stay valid until the cache copies it.
	// raw-passthrough adapters return (raw, zero-ish).
	Store(raw []byte, ri RespInfo, req value.Value) ([]byte, StoreInfo)
	// SecondaryKey appends the request's values of the vary rule's named
	// fields to dst (HTTP: the Vary header fold); protocols without
	// variant keys return dst unchanged. Must not allocate — it runs on
	// the hit path.
	SecondaryKey(dst []byte, req value.Value, rule string) []byte
	// MakeHit builds a self-contained served view over a cached image.
	// The returned view carries one reference owned by the caller.
	MakeHit(h Hit) value.Value
	// MakeReval builds the fabricated upstream refresh request record
	// over a stored revalidation image (raw: immutable, collector-owned,
	// so the record may point into it). Null when the protocol doesn't
	// revalidate.
	MakeReval(raw []byte) value.Value
}
