package cache

import (
	"bytes"
	"strconv"
	"time"

	"flick/internal/buffer"
	phttp "flick/internal/proto/http"
	"flick/internal/value"
)

// HTTPGet adapts the cache to HTTP/1.1 load balancing: plain GET
// responses are cached per Host + URI; non-GET methods with side effects
// write through as invalidations. HTTP/1.1 responses answer requests
// strictly in order per connection, so the adapter is FIFO — the core
// correlates through per-port slot queues instead of tags.
//
// The adapter speaks the RFC 9111 freshness model:
//
//   - Conditional requests (If-None-Match / If-Modified-Since) classify as
//     ClassCond: a resident entry answers them — the pre-rendered 304 on a
//     validator match, the full body otherwise — and a miss passes through
//     for the origin to evaluate.
//   - Responses carrying Vary are admitted under a learned per-key rule:
//     the named request headers' values fold into a secondary key segment
//     (SecondaryKey), so each negotiated variant gets its own entry.
//     Vary: * stays uncacheable.
//   - Stored entries keep their validators plus two pre-rendered images: a
//     304 for conditional hits and a conditional GET for upstream
//     revalidation, so the background-refresh path never renders on
//     demand.
//   - Served hits carry an Age header patched into a fixed-width digit
//     zone Store injected after the status line — a pooled copy-and-patch,
//     exactly the memcached opaque technique, keeping hits allocation-free.
//
// Conservatism over coverage. The cache is shared across every client of
// the service, so anything that could make a response per-user bypasses
// it entirely: credentialed requests (Authorization, Cookie), Range
// requests and Cache-Control: no-cache/no-store pass through; responses
// with Set-Cookie, no-store/no-cache/private, or Content-Encoding without
// a Vary rule covering Accept-Encoding are never admitted. Requests
// without a Host header pass too — there is no namespace to key them
// under.
type HTTPGet struct{}

// Forbidding/parsed tokens, package-level so the hot classification path
// never allocates.
var (
	ccNoCache    = []byte("no-cache")
	ccNoStore    = []byte("no-store")
	ccPrivate    = []byte("private")
	ccMaxAge     = []byte("max-age=")
	tokAcceptEnc = []byte("accept-encoding")
)

// The Age patch zone Store injects directly after the status line:
// "Age: " + ageZoneLen digit cells + CRLF. Hits patch the cells with the
// entry's residency in seconds, left-aligned, space-padded (trailing
// whitespace in a field value is trimmed by any compliant parser).
const (
	ageZoneLen = 8
	agePrefix  = "Age: "
	ageLine    = agePrefix + "0       \r\n"
)

// Name implements Protocol.
func (HTTPGet) Name() string { return "http-get" }

// Fifo implements Protocol: HTTP/1.1 responses arrive in request order.
func (HTTPGet) Fifo() bool { return true }

// Variants implements Protocol: one response shape per URI.
func (HTTPGet) Variants() []byte { return []byte{0} }

// Request implements Protocol.
func (HTTPGet) Request(req value.Value) ReqInfo {
	method := req.BytesAt(phttp.SlotMethod)
	uri := req.BytesAt(phttp.SlotURI)
	host, hasHost := phttp.HeaderBytes(req, "Host")
	if !bytesEqualStr(method, "GET") {
		switch {
		case bytesEqualStr(method, "HEAD"), bytesEqualStr(method, "OPTIONS"),
			bytesEqualStr(method, "TRACE"):
			// Safe methods, but their responses differ from GET's: pass.
			return ReqInfo{Class: ClassPass}
		case len(uri) > 0:
			// POST/PUT/DELETE/PATCH/...: write through the URI's entry.
			return ReqInfo{Class: ClassInvalidate, Key: uri, Scope: host}
		default:
			return ReqInfo{Class: ClassPass}
		}
	}
	if len(uri) == 0 || !hasHost || len(host) == 0 || req.IntAt(phttp.SlotKeepAlive) != 1 {
		// A closing client gets a closing response — never cacheable —
		// and a request without a Host has no cache namespace.
		return ReqInfo{Class: ClassPass}
	}
	if hdrPresent(req, "Authorization") || hdrPresent(req, "Cookie") ||
		hdrPresent(req, "Range") {
		return ReqInfo{Class: ClassPass}
	}
	if cc, ok := phttp.HeaderBytes(req, "Cache-Control"); ok {
		if bytes.Contains(cc, ccNoCache) || bytes.Contains(cc, ccNoStore) {
			return ReqInfo{Class: ClassPass}
		}
	}
	info := ReqInfo{Key: uri, Scope: host, Msg: req}
	inm, hasINM := phttp.HeaderBytes(req, "If-None-Match")
	ims, hasIMS := phttp.HeaderBytes(req, "If-Modified-Since")
	if hasINM || hasIMS {
		info.Class = ClassCond
		info.IfNoneMatch = inm
		info.IfModifiedSince = ims
		return info
	}
	info.Class = ClassLookup
	return info
}

// Response implements Protocol.
func (HTTPGet) Response(resp value.Value) RespInfo {
	status := resp.IntAt(phttp.SlotStatus)
	if status < 200 {
		// 1xx: forwarded without consuming the pending request slot.
		return RespInfo{Informational: true}
	}
	ri := RespInfo{Match: true}
	if status == 304 {
		// An upstream 304 answers a revalidation (or a passed-through
		// conditional): never a body of its own, but its max-age caps the
		// freshness extension it grants.
		ri.NotModified = true
		ri.TTL, _ = parseMaxAge(resp)
		return ri
	}
	if status != 200 {
		return ri
	}
	if resp.IntAt(phttp.SlotKeepAlive) != 1 {
		// Connection-delimited body: replaying it verbatim on a kept-alive
		// client connection would leave the client unable to frame it.
		return ri
	}
	if hdrPresent(resp, "Set-Cookie") {
		// Per-client session material: never shareable.
		return ri
	}
	vary, hasVary := phttp.HeaderBytes(resp, "Vary")
	if hasVary && bytes.IndexByte(vary, '*') >= 0 {
		// Vary: * — negotiated on axes no key can capture.
		return ri
	}
	if hdrPresent(resp, "Content-Encoding") &&
		!(hasVary && containsTokenFold(vary, tokAcceptEnc)) {
		// A negotiated body a different client may not be able to decode —
		// cacheable only when Vary: Accept-Encoding keys each encoding to
		// the clients that asked for it.
		return ri
	}
	ttl, ok := parseMaxAge(resp)
	if !ok {
		return ri
	}
	ri.TTL = ttl
	ri.Vary = vary
	ri.ETag, _ = phttp.HeaderBytes(resp, "ETag")
	ri.LastModified, _ = phttp.HeaderBytes(resp, "Last-Modified")
	ri.Admit = true
	return ri
}

// parseMaxAge extracts Cache-Control's freshness verdict: TTL>0 when
// max-age caps the lifetime, 0 when Cache-Control imposes none, ok=false
// when a directive forbids storing (no-store/no-cache/private, or an
// already-stale max-age).
func parseMaxAge(resp value.Value) (time.Duration, bool) {
	cc, ok := phttp.HeaderBytes(resp, "Cache-Control")
	if !ok {
		return 0, true
	}
	if bytes.Contains(cc, ccNoStore) || bytes.Contains(cc, ccNoCache) ||
		bytes.Contains(cc, ccPrivate) {
		return 0, false
	}
	if i := bytes.Index(cc, ccMaxAge); i >= 0 {
		v := cc[i+len(ccMaxAge):]
		if j := bytes.IndexAny(v, ", "); j >= 0 {
			v = v[:j]
		}
		secs, err := strconv.Atoi(string(v))
		if err != nil || secs <= 0 {
			// max-age=0 (or unparsable): already stale, don't store.
			return 0, false
		}
		return time.Duration(secs) * time.Second, true
	}
	return 0, true
}

// Store implements Protocol: it renders the retained image for an admitted
// 200 — the served body with an Age digit zone injected after the status
// line (any origin Age is dropped; residency restarts at admission), then
// the pre-rendered 304 for conditional hits, then the upstream
// revalidation request. Validator offsets index the header copy inside the
// served image.
func (HTTPGet) Store(raw []byte, ri RespInfo, req value.Value) ([]byte, StoreInfo) {
	si := StoreInfo{AgeOff: -1}
	eol := bytes.Index(raw, crlf)
	hdrEnd := bytes.Index(raw, crlf2)
	if eol < 0 || hdrEnd < 0 {
		return nil, si
	}
	out := make([]byte, 0, len(raw)+512)
	out = append(out, raw[:eol+2]...)
	si.AgeOff = len(out) + len(agePrefix)
	out = append(out, ageLine...)
	// Copy the header block line by line, dropping any origin Age and
	// recording where the validators land in the copy.
	block := raw[eol+2 : hdrEnd+2]
	for len(block) > 0 {
		nl := bytes.Index(block, crlf)
		if nl < 0 {
			break
		}
		line := block[:nl+2]
		block = block[nl+2:]
		name, val := splitHdr(line[:nl])
		if foldEqual(name, "age") {
			continue
		}
		lineOff := len(out)
		out = append(out, line...)
		if len(val) == 0 {
			continue
		}
		valOff := lineOff + (nl - len(val))
		if foldEqual(name, "etag") {
			si.ETagOff, si.ETagLen = valOff, len(val)
		} else if foldEqual(name, "last-modified") {
			si.LastModOff, si.LastModLen = valOff, len(val)
		}
	}
	out = append(out, crlf...)
	out = append(out, raw[hdrEnd+4:]...)
	si.ImageLen = len(out)

	etag := sliceAt(out, si.ETagOff, si.ETagLen)
	lastMod := sliceAt(out, si.LastModOff, si.LastModLen)
	if len(etag) > 0 || len(lastMod) > 0 {
		si.NotModOff = len(out)
		out = phttp.BuildNotModified(out, etag, lastMod)
		si.NotModLen = len(out) - si.NotModOff
	}
	if !req.IsNull() {
		uri := req.BytesAt(phttp.SlotURI)
		host, _ := phttp.HeaderBytes(req, "Host")
		if len(uri) > 0 && len(host) > 0 {
			si.RevalOff = len(out)
			out = phttp.BuildConditionalGet(out, uri, host, etag, lastMod)
			si.RevalLen = len(out) - si.RevalOff
		}
	}
	return out, si
}

// SecondaryKey implements Protocol: for each header named in the learned
// vary rule (lowercase, comma-separated) the request's trimmed value is
// appended behind a 0x01 cell separator — a byte no header value may
// contain — so absent, empty and differently-valued headers key apart.
// Allocation-free: runs inside the hit path's shard lock.
func (HTTPGet) SecondaryKey(dst []byte, req value.Value, rule string) []byte {
	for len(rule) > 0 {
		name := rule
		if i := strIndexByte(rule, ','); i >= 0 {
			name, rule = rule[:i], rule[i+1:]
		} else {
			rule = ""
		}
		if name == "" {
			continue
		}
		dst = append(dst, 0x01)
		if v, ok := phttp.HeaderBytes(req, name); ok {
			dst = append(dst, v...)
		}
	}
	return dst
}

// MakeHit implements Protocol: an image with an Age zone is copied into a
// fresh pooled region and the zone patched with the entry's residency —
// the memcached opaque-patch technique, zero heap allocations — while a
// zoneless image (the synthesized 304) replays verbatim.
func (HTTPGet) MakeHit(h Hit) value.Value {
	if h.AgeOff >= 0 {
		ref := buffer.Global.GetRef(len(h.Raw))
		b := ref.Bytes()[:len(h.Raw)]
		copy(b, h.Raw)
		patchAge(b[h.AgeOff:h.AgeOff+ageZoneLen], h.AgeSecs)
		rec := phttp.ResponseDesc.NewOwned(ref)
		rec.L[phttp.SlotRaw] = value.Bytes(b)
		return rec
	}
	rec := phttp.ResponseDesc.NewOwned(nil)
	rec.L[phttp.SlotRaw] = value.Bytes(h.Raw)
	return rec
}

// MakeReval implements Protocol: a request record over the entry's
// pre-rendered conditional GET (the shape Store composed:
// "GET <uri> HTTP/1.1\r\n<headers>\r\n\r\n", bodiless); Null on a
// malformed image.
func (HTTPGet) MakeReval(raw []byte) value.Value {
	eol := bytes.Index(raw, crlf)
	hdrEnd := bytes.Index(raw, crlf2)
	if eol < 0 || hdrEnd < 0 {
		return value.Null
	}
	line := raw[:eol]
	sp1 := bytes.IndexByte(line, ' ')
	sp2 := -1
	if sp1 >= 0 {
		if j := bytes.IndexByte(line[sp1+1:], ' '); j >= 0 {
			sp2 = sp1 + 1 + j
		}
	}
	if sp2 < 0 {
		return value.Null
	}
	rec := phttp.RequestDesc.NewOwned(nil)
	rec.L[0] = value.Bytes(line[:sp1])        // method
	rec.L[1] = value.Bytes(line[sp1+1 : sp2]) // uri
	rec.L[2] = value.Bytes(line[sp2+1:])      // version
	rec.L[3] = value.Bytes(raw[eol+2 : hdrEnd+2])
	rec.L[4] = value.Bytes(nil)
	rec.L[5] = value.Int(0)
	rec.L[6] = value.Int(1)
	rec.L[7] = value.Bytes(raw)
	return rec
}

// patchAge renders secs into the fixed-width Age digit zone: left-aligned
// decimal digits, space padding, saturating at the zone's capacity.
func patchAge(zone []byte, secs int64) {
	if secs < 0 {
		secs = 0
	}
	if secs > 99999999 {
		secs = 99999999
	}
	var tmp [ageZoneLen]byte
	i := len(tmp)
	for {
		i--
		tmp[i] = '0' + byte(secs%10)
		secs /= 10
		if secs == 0 {
			break
		}
	}
	n := copy(zone, tmp[i:])
	for ; n < len(zone); n++ {
		zone[n] = ' '
	}
}

// --- small byte helpers ---

var (
	crlf  = []byte("\r\n")
	crlf2 = []byte("\r\n\r\n")
)

// splitHdr splits one header line (no CRLF) into its name and trimmed
// value.
func splitHdr(line []byte) (name, val []byte) {
	i := bytes.IndexByte(line, ':')
	if i < 0 {
		return line, nil
	}
	return line[:i], bytes.TrimSpace(line[i+1:])
}

// foldEqual reports name == s ASCII case-insensitively, s lowercase.
func foldEqual(name []byte, s string) bool {
	if len(name) != len(s) {
		return false
	}
	for i := 0; i < len(name); i++ {
		c := name[i]
		if 'A' <= c && c <= 'Z' {
			c += 'a' - 'A'
		}
		if c != s[i] {
			return false
		}
	}
	return true
}

// containsTokenFold reports whether the comma/space-separated list hay
// contains needle as a whole token, ASCII case-insensitively (needle
// lowercase).
func containsTokenFold(hay, needle []byte) bool {
	for i := 0; i < len(hay); {
		for i < len(hay) && (hay[i] == ',' || hay[i] == ' ' || hay[i] == '\t') {
			i++
		}
		start := i
		for i < len(hay) && hay[i] != ',' && hay[i] != ' ' && hay[i] != '\t' {
			i++
		}
		tok := hay[start:i]
		if len(tok) != len(needle) {
			continue
		}
		match := true
		for j := range tok {
			c := tok[j]
			if 'A' <= c && c <= 'Z' {
				c += 'a' - 'A'
			}
			if c != needle[j] {
				match = false
				break
			}
		}
		if match {
			return true
		}
	}
	return false
}

// sliceAt returns b[off:off+n] when n > 0, nil otherwise.
func sliceAt(b []byte, off, n int) []byte {
	if n <= 0 {
		return nil
	}
	return b[off : off+n]
}

// strIndexByte is strings.IndexByte without the import.
func strIndexByte(s string, c byte) int {
	for i := 0; i < len(s); i++ {
		if s[i] == c {
			return i
		}
	}
	return -1
}

// hdrPresent reports whether the named header exists on the message.
func hdrPresent(msg value.Value, name string) bool {
	_, ok := phttp.HeaderBytes(msg, name)
	return ok
}

// bytesEqualStr reports b == s without allocating.
func bytesEqualStr(b []byte, s string) bool {
	if len(b) != len(s) {
		return false
	}
	for i := 0; i < len(b); i++ {
		if b[i] != s[i] {
			return false
		}
	}
	return true
}
