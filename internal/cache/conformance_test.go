package cache

import (
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"flick/internal/value"
)

// RFC 9111 conformance table. Each case scripts the cache as the core
// drives it — classify a decoded client request, serve hits, lead and
// resolve flights, dispatch claimed revalidations — against a fake clock,
// and asserts byte-exact wire output for everything served from the cache
// (including the patched Age zone and the synthesized 304).
//
// Step verdicts:
//
//	pass  — forwarded untouched (ClassPass, or a conditional miss)
//	miss  — led a flight (the next resp step resolves it)
//	hit   — served from the cache (serve pins the exact bytes)
//	inval — write-through invalidation
type confStep struct {
	tick time.Duration // advance the clock before acting

	req       string // classify + act on one client request
	resp      string // resolve the open flight with this upstream response
	revalResp string // resolve the claimed revalidation with this response
	revalDie  bool   // upstream died mid-revalidation: abort the claim

	want      string // verdict for req steps
	serve     string // exact served bytes for hit steps ("": unchecked)
	wantReval bool   // req hit must have claimed a background revalidation
}

type confCase struct {
	name     string
	ttl      time.Duration // cache default TTL (0: 10s)
	staleTTL time.Duration // SWR window (0: 30s; <0: disabled)
	steps    []confStep
}

// ageZone renders the patched Age digit zone: left-aligned, space-padded.
func ageZone(secs int) string {
	s := ""
	if secs == 0 {
		s = "0"
	}
	for n := secs; n > 0; n /= 10 {
		s = string(rune('0'+n%10)) + s
	}
	return s + strings.Repeat(" ", ageZoneLen-len(s))
}

// served composes the wire image a full cache hit must produce: the origin
// status line, the injected Age header, the surviving origin headers, then
// the body.
func served(age int, hdrs, body string) string {
	return "HTTP/1.1 200 OK\r\nAge: " + ageZone(age) + "\r\n" + hdrs + "\r\n" + body
}

const (
	reqA     = "GET /a HTTP/1.1\r\nHost: h\r\n\r\n"
	condV1   = "GET /a HTTP/1.1\r\nHost: h\r\nIf-None-Match: \"v1\"\r\n\r\n"
	resp200  = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nhi"
	hdrCL    = "Content-Length: 2\r\n"
	respETag = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nETag: \"v1\"\r\n\r\nhi"
	hdrETag  = "Content-Length: 2\r\nETag: \"v1\"\r\n"
	notMod1  = "HTTP/1.1 304 Not Modified\r\nETag: \"v1\"\r\n\r\n"
	lmDate   = "Sat, 01 Jan 2022 00:00:00 GMT"
	respLM   = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nLast-Modified: " + lmDate + "\r\n\r\nhi"
	hdrLM    = "Content-Length: 2\r\nLast-Modified: " + lmDate + "\r\n"
	notModLM = "HTTP/1.1 304 Not Modified\r\nLast-Modified: " + lmDate + "\r\n\r\n"

	// A short-lived admitted entry with validators: the SWR scenarios' seed.
	respSWR = "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nETag: \"v1\"\r\nCache-Control: max-age=1\r\n\r\nhi"
	hdrSWR  = "Content-Length: 2\r\nETag: \"v1\"\r\nCache-Control: max-age=1\r\n"
)

func conformanceCases() []confCase {
	return []confCase{
		// --- serving and Age (RFC 9111 §4.2.3, §5.1) ---
		{name: "miss-then-hit-age-zero", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: resp200},
			{req: reqA, want: "hit", serve: served(0, hdrCL, "hi")},
		}},
		{name: "hit-age-advances", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: resp200},
			{tick: 3 * time.Second, req: reqA, want: "hit", serve: served(3, hdrCL, "hi")},
		}},
		{name: "age-zone-saturates", ttl: 200000000 * time.Second, steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: resp200},
			{tick: 150000000 * time.Second, req: reqA, want: "hit",
				serve: served(99999999, hdrCL, "hi")},
		}},
		{name: "origin-age-dropped", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nAge: 999\r\nContent-Length: 2\r\n\r\nhi"},
			{req: reqA, want: "hit", serve: served(0, hdrCL, "hi")},
		}},

		// --- request-side bypasses (RFC 9111 §3, §5.2.1) ---
		{name: "no-host-passes", steps: []confStep{
			{req: "GET /a HTTP/1.1\r\n\r\n", want: "pass"},
		}},
		{name: "cookie-passes", steps: []confStep{
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nCookie: sid=1\r\n\r\n", want: "pass"},
		}},
		{name: "authorization-passes", steps: []confStep{
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nAuthorization: Bearer x\r\n\r\n", want: "pass"},
		}},
		{name: "range-passes", steps: []confStep{
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nRange: bytes=0-1\r\n\r\n", want: "pass"},
		}},
		{name: "request-no-store-passes", steps: []confStep{
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nCache-Control: no-store\r\n\r\n", want: "pass"},
		}},
		{name: "request-no-cache-passes", steps: []confStep{
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nCache-Control: no-cache\r\n\r\n", want: "pass"},
		}},
		{name: "head-passes", steps: []confStep{
			{req: "HEAD /a HTTP/1.1\r\nHost: h\r\n\r\n", want: "pass"},
		}},
		{name: "options-passes", steps: []confStep{
			{req: "OPTIONS * HTTP/1.1\r\nHost: h\r\n\r\n", want: "pass"},
		}},
		{name: "closing-request-passes", steps: []confStep{
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nConnection: close\r\n\r\n", want: "pass"},
		}},

		// --- write-through invalidation (RFC 9111 §4.4) ---
		{name: "post-invalidates", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: resp200},
			{req: "POST /a HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n", want: "inval"},
			{req: reqA, want: "miss"},
		}},
		{name: "delete-invalidates", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: resp200},
			{req: "DELETE /a HTTP/1.1\r\nHost: h\r\n\r\n", want: "inval"},
			{req: reqA, want: "miss"},
		}},
		{name: "put-invalidates", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: resp200},
			{req: "PUT /a HTTP/1.1\r\nHost: h\r\nContent-Length: 0\r\n\r\n", want: "inval"},
			{req: reqA, want: "miss"},
		}},

		// --- response-side admission (RFC 9111 §3, §3.5) ---
		{name: "set-cookie-not-admitted", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nSet-Cookie: sid=1\r\n\r\nhi"},
			{req: reqA, want: "miss"},
		}},
		{name: "response-no-store-not-admitted", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nCache-Control: no-store\r\n\r\nhi"},
			{req: reqA, want: "miss"},
		}},
		{name: "response-private-not-admitted", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nCache-Control: private\r\n\r\nhi"},
			{req: reqA, want: "miss"},
		}},
		{name: "response-no-cache-not-admitted", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nCache-Control: no-cache\r\n\r\nhi"},
			{req: reqA, want: "miss"},
		}},
		{name: "max-age-zero-not-admitted", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nCache-Control: max-age=0\r\n\r\nhi"},
			{req: reqA, want: "miss"},
		}},
		{name: "non-200-not-admitted", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: "HTTP/1.1 404 Not Found\r\nContent-Length: 2\r\n\r\nno"},
			{req: reqA, want: "miss"},
		}},
		{name: "closing-response-not-admitted", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nConnection: close\r\nContent-Length: 2\r\n\r\nhi"},
			{req: reqA, want: "miss"},
		}},
		{name: "max-age-caps-freshness", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nCache-Control: max-age=2\r\n\r\nhi"},
			{tick: time.Second, req: reqA, want: "hit",
				serve: served(1, "Content-Length: 2\r\nCache-Control: max-age=2\r\n", "hi")},
			// Past max-age the entry is stale (a validatorless entry still
			// revalidates with a plain refresh GET); past the hard deadline
			// (max-age + StaleTTL) it dies structurally.
			{tick: 2 * time.Second, req: reqA, want: "hit", wantReval: true,
				serve: served(3, "Content-Length: 2\r\nCache-Control: max-age=2\r\n", "hi")},
			{revalDie: true},
			{tick: 31 * time.Second, req: reqA, want: "miss"},
		}},

		// --- content negotiation (RFC 9111 §4.1) ---
		{name: "vary-star-not-admitted", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nVary: *\r\n\r\nhi"},
			{req: reqA, want: "miss"},
		}},
		{name: "content-encoding-unkeyed-not-admitted", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Encoding: gzip\r\n\r\nhi"},
			{req: reqA, want: "miss"},
		}},
		{name: "content-encoding-keyed-by-vary-admitted", steps: []confStep{
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nAccept-Encoding: gzip\r\n\r\n", want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nContent-Encoding: gzip\r\nVary: Accept-Encoding\r\n\r\nhi"},
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nAccept-Encoding: gzip\r\n\r\n", want: "hit",
				serve: served(0, "Content-Length: 2\r\nContent-Encoding: gzip\r\nVary: Accept-Encoding\r\n", "hi")},
			// A client that never asked for gzip must not receive it.
			{req: reqA, want: "miss"},
		}},
		{name: "vary-variants-key-separately", steps: []confStep{
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nAccept-Encoding: gzip\r\n\r\n", want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nVary: Accept-Encoding\r\n\r\nAA"},
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nAccept-Encoding: br\r\n\r\n", want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nVary: Accept-Encoding\r\n\r\nBB"},
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nAccept-Encoding: gzip\r\n\r\n", want: "hit",
				serve: served(0, "Content-Length: 2\r\nVary: Accept-Encoding\r\n", "AA")},
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nAccept-Encoding: br\r\n\r\n", want: "hit",
				serve: served(0, "Content-Length: 2\r\nVary: Accept-Encoding\r\n", "BB")},
		}},
		{name: "vary-absent-header-keys-separately", steps: []confStep{
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nAccept-Encoding: gzip\r\n\r\n", want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nVary: Accept-Encoding\r\n\r\nhi"},
			{req: reqA, want: "miss"},
		}},
		{name: "vary-rule-change-purges-base", steps: []confStep{
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nX-A: 1\r\n\r\n", want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nVary: X-A\r\n\r\nAA"},
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nX-A: 1\r\n\r\n", want: "hit",
				serve: served(0, "Content-Length: 2\r\nVary: X-A\r\n", "AA")},
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nX-A: 2\r\nX-B: 9\r\n\r\n", want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nVary: X-B\r\n\r\nBB"},
			// The old-rule entry was purged when the rule changed; the first
			// client's request folds differently under the new rule (no X-B).
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nX-A: 1\r\n\r\n", want: "miss"},
		}},

		// --- conditional clients (RFC 9110 §13.1.1-13.1.3, RFC 9111 §4.3) ---
		{name: "inm-match-serves-304", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respETag},
			{req: condV1, want: "hit", serve: notMod1},
		}},
		{name: "inm-mismatch-serves-full", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respETag},
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nIf-None-Match: \"other\"\r\n\r\n",
				want: "hit", serve: served(0, hdrETag, "hi")},
		}},
		{name: "inm-weak-compare-matches", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nETag: W/\"v1\"\r\n\r\nhi"},
			{req: condV1, want: "hit",
				serve: "HTTP/1.1 304 Not Modified\r\nETag: W/\"v1\"\r\n\r\n"},
		}},
		{name: "inm-star-matches", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respETag},
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nIf-None-Match: *\r\n\r\n",
				want: "hit", serve: notMod1},
		}},
		{name: "inm-list-matches", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respETag},
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nIf-None-Match: \"a\", \"v1\"\r\n\r\n",
				want: "hit", serve: notMod1},
		}},
		{name: "ims-match-serves-304", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respLM},
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nIf-Modified-Since: " + lmDate + "\r\n\r\n",
				want: "hit", serve: notModLM},
		}},
		{name: "ims-mismatch-serves-full", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respLM},
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nIf-Modified-Since: Sun, 02 Jan 2022 00:00:00 GMT\r\n\r\n",
				want: "hit", serve: served(0, hdrLM, "hi")},
		}},
		{name: "inm-wins-over-ims", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nETag: \"v1\"\r\nLast-Modified: " + lmDate + "\r\n\r\nhi"},
			// If-None-Match mismatches; the matching If-Modified-Since must
			// be ignored when If-None-Match is present (RFC 9110 §13.1.3).
			{req: "GET /a HTTP/1.1\r\nHost: h\r\nIf-None-Match: \"other\"\r\nIf-Modified-Since: " + lmDate + "\r\n\r\n",
				want:  "hit",
				serve: served(0, "Content-Length: 2\r\nETag: \"v1\"\r\nLast-Modified: "+lmDate+"\r\n", "hi")},
		}},
		{name: "cond-miss-passes-through", steps: []confStep{
			{req: condV1, want: "pass"},
		}},
		{name: "cond-validatorless-entry-serves-full", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: resp200},
			{req: condV1, want: "hit", serve: served(0, hdrCL, "hi")},
		}},

		// --- stale-while-revalidate and revalidation (RFC 9111 §4.2.4, §4.3.4) ---
		{name: "stale-served-claims-revalidation", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respSWR},
			{tick: 2 * time.Second, req: reqA, want: "hit", wantReval: true,
				serve: served(2, hdrSWR, "hi")},
		}},
		{name: "reval-304-extends-and-restarts-age", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respSWR},
			{tick: 2 * time.Second, req: reqA, want: "hit", wantReval: true},
			{revalResp: "HTTP/1.1 304 Not Modified\r\n\r\n"},
			// Freshness and Age restart from the validation instant.
			{tick: 500 * time.Millisecond, req: reqA, want: "hit",
				serve: served(0, hdrSWR, "hi")},
		}},
		{name: "reval-200-replaces-entry", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respSWR},
			{tick: 2 * time.Second, req: reqA, want: "hit", wantReval: true},
			{revalResp: "HTTP/1.1 200 OK\r\nContent-Length: 2\r\nETag: \"v2\"\r\n\r\nv2"},
			{req: reqA, want: "hit",
				serve: served(0, "Content-Length: 2\r\nETag: \"v2\"\r\n", "v2")},
		}},
		{name: "reval-failure-serves-stale-and-reclaims", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respSWR},
			{tick: 2 * time.Second, req: reqA, want: "hit", wantReval: true},
			{revalDie: true},
			// Still inside the SWR window: stale keeps serving and the next
			// lookup re-claims the revalidation.
			{tick: time.Second, req: reqA, want: "hit", wantReval: true,
				serve: served(3, hdrSWR, "hi")},
		}},
		{name: "hard-deadline-structural-miss", staleTTL: 5 * time.Second, steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respSWR},
			// max-age=1 + StaleTTL 5s: at 7s the hard deadline has passed.
			{tick: 7 * time.Second, req: reqA, want: "miss"},
		}},
		{name: "swr-disabled-expires-at-max-age", staleTTL: -1, steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respSWR},
			{tick: 2 * time.Second, req: reqA, want: "miss"},
		}},
		{name: "single-flight-revalidation", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respSWR},
			{tick: 2 * time.Second, req: reqA, want: "hit", wantReval: true},
			// The claim is outstanding: a second stale hit serves without
			// claiming another refresh.
			{req: reqA, want: "hit", wantReval: false},
		}},
		{name: "reval-304-max-age-caps-extension", steps: []confStep{
			{req: reqA, want: "miss"},
			{resp: respSWR},
			{tick: 2 * time.Second, req: reqA, want: "hit", wantReval: true},
			{revalResp: "HTTP/1.1 304 Not Modified\r\nCache-Control: max-age=1\r\n\r\n"},
			// The 304's own max-age bounds the extension: stale again at 2s.
			{tick: 2 * time.Second, req: reqA, want: "hit", wantReval: true,
				serve: served(2, hdrSWR, "hi")},
		}},
	}
}

// confHarness drives one conformance case against a fresh cache.
type confHarness struct {
	t     *testing.T
	c     *Cache
	clock *atomic.Int64
	f     *Flight // open flight led by the last miss
	rv    *Reval  // claimed revalidation of the last stale hit
	reqs  []value.Value
}

func newConfHarness(t *testing.T, tc confCase) *confHarness {
	ttl := tc.ttl
	if ttl == 0 {
		ttl = 10 * time.Second
	}
	staleTTL := tc.staleTTL
	if staleTTL == 0 {
		staleTTL = 30 * time.Second
	}
	c := newTestCache(t, Config{Proto: HTTPGet{}, Workers: 1, TTL: ttl, StaleTTL: staleTTL})
	h := &confHarness{t: t, c: c, clock: new(atomic.Int64)}
	h.c.now = h.clock.Load
	return h
}

func (h *confHarness) run(steps []confStep) {
	t := h.t
	for i, s := range steps {
		h.clock.Add(int64(s.tick))
		switch {
		case s.req != "":
			req := decodeHTTP(t, true, s.req)
			h.reqs = append(h.reqs, req) // ReqInfo aliases req's bytes
			info := HTTPGet{}.Request(req)
			got, servedRaw, claimed := h.act(info)
			if got != s.want {
				t.Fatalf("step %d (%q): verdict %q, want %q", i, s.req, got, s.want)
			}
			if s.serve != "" && servedRaw != s.serve {
				t.Fatalf("step %d: served\n%q\nwant\n%q", i, servedRaw, s.serve)
			}
			if got == "hit" && claimed != s.wantReval {
				t.Fatalf("step %d: revalidation claimed = %v, want %v", i, claimed, s.wantReval)
			}
		case s.resp != "":
			if h.f == nil {
				t.Fatalf("step %d: resp step without an open flight", i)
			}
			resp := decodeHTTP(t, false, s.resp)
			ri := HTTPGet{}.Response(resp)
			h.f.Fill([]byte(s.resp), ri)
			resp.Release()
			h.f = nil
		case s.revalResp != "":
			if h.rv == nil {
				t.Fatalf("step %d: revalResp step without a claimed revalidation", i)
			}
			// Dispatch exactly as the core does: the refresh request goes
			// upstream (here: nowhere) and the caller's reference drops; the
			// flight keeps its own so a replacing 200 can render the next
			// generation's refresh image.
			h.rv.Req.Release()
			resp := decodeHTTP(t, false, s.revalResp)
			ri := HTTPGet{}.Response(resp)
			h.rv.F.Fill([]byte(s.revalResp), ri)
			resp.Release()
			h.rv = nil
		case s.revalDie:
			if h.rv == nil {
				t.Fatalf("step %d: revalDie step without a claimed revalidation", i)
			}
			h.rv.Req.Release()
			h.rv.F.Abort()
			h.rv = nil
		default:
			t.Fatalf("step %d: empty step", i)
		}
	}
	if h.rv != nil {
		h.rv.Req.Release()
		h.rv.F.Abort()
		h.rv = nil
	}
	for _, r := range h.reqs {
		r.Release()
	}
	h.reqs = nil
}

// act performs one classified request against the cache the way the core
// runtime does and reports the verdict, the served bytes on a hit, and
// whether this lookup claimed a background revalidation.
func (h *confHarness) act(info ReqInfo) (string, string, bool) {
	switch info.Class {
	case ClassPass:
		return "pass", "", false
	case ClassInvalidate:
		h.c.Invalidate(info.Scope, info.Key)
		return "inval", "", false
	case ClassInvalidateAll:
		h.c.Clear()
		return "inval", "", false
	}
	v, ok, rv := h.c.Get(0, info)
	if ok {
		raw := string(v.Field("_raw").AsBytes())
		v.Release()
		if rv != nil {
			if h.rv != nil {
				h.t.Fatal("unresolved revalidation claim overwritten")
			}
			h.rv = rv
		}
		return "hit", raw, rv != nil
	}
	if info.Class == ClassCond {
		return "pass", "", false // forwarded untracked; origin evaluates
	}
	f, leader := h.c.Begin(info, Waiter{})
	if !leader {
		return "coalesce", "", false
	}
	h.f = f
	return "miss", "", false
}

// TestRFC9111Conformance runs the conformance table.
func TestRFC9111Conformance(t *testing.T) {
	cases := conformanceCases()
	if len(cases) < 40 {
		t.Fatalf("conformance table holds %d cases, want >= 40", len(cases))
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			newConfHarness(t, tc).run(tc.steps)
		})
	}
}
