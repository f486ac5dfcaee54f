// Package admin is the platform's control-plane HTTP listener: a small
// HTTP/1.1 server, built on the platform's own HTTP codec
// (internal/proto/http), exposing a running service's live state — the
// backend topology with weights, health verdicts and ring shares, and
// every registered counter set — and accepting topology updates over the
// same drain-correct path a SIGHUP re-read uses.
//
// Endpoints:
//
//	GET /healthz   liveness ("ok")
//	GET /topology  current topology as JSON (TopologyView)
//	PUT /topology  install a new topology (topology.DecodeJSON wire form)
//	GET /counters  every registered metrics.CounterSet as ordered JSON
//	GET /latency   every registered latency dimension as ordered JSON
//
// GET /topology's "backends" field is valid PUT /topology input, so one
// instance's control plane can feed another's (topology.Poll does exactly
// this). The package knows nothing about the platform beyond the
// Controller interface; internal/apps implements it.
//
// The server does not link net/http: each connection is one goroutine
// decoding requests with http.RequestFormat from a queue on the server's
// own buffer pool, never buffer.Global, so admin scrapes leave the data
// plane's pool counters untouched. Responses carry Content-Length;
// keep-alive, pipelining, "Connection: close", HTTP/1.0 and
// "Expect: 100-continue" behave as in net/http. A request's header block
// must arrive within 5 s and fit the codec's MaxHeaderBytes (431
// otherwise); a PUT body is capped at 1 MiB (413).
package admin

import (
	"encoding/json"
	"errors"

	"flick/internal/core"
	"flick/internal/metrics"
	"flick/internal/topology"
)

// BackendView is one backend row of GET /topology: the configured address
// and weight plus the control plane's live observations — the upstream
// layer's health verdict, the fraction of the key space the ring assigns
// to the backend, and the requests currently in flight to it.
type BackendView struct {
	Addr     string  `json:"addr"`
	Weight   int     `json:"weight"`
	Health   string  `json:"health"`
	Share    float64 `json:"share"`
	Inflight int64   `json:"inflight"`
}

// CacheView is GET /topology's "cache" object: the response cache's live
// effectiveness figures (present only on services deployed with the cache
// enabled). HitRatio is hits/(hits+misses) over the service's lifetime;
// BytesResident is the bytes currently held by cached entries.
type CacheView struct {
	HitRatio      float64 `json:"hit_ratio"`
	BytesResident int64   `json:"bytes_resident"`
	Hits          uint64  `json:"hits"`
	Misses        uint64  `json:"misses"`
	Coalesced     uint64  `json:"coalesced"`
	// Revalidated counts upstream 304s that extended an entry's
	// freshness in place; StaleServed counts hits answered from an
	// expired entry while its background revalidation ran.
	Revalidated uint64 `json:"revalidated"`
	StaleServed uint64 `json:"stale_served"`
}

// TopologyView is the GET /topology response body.
type TopologyView struct {
	// Backends holds one row per live backend.
	Backends []BackendView `json:"backends"`
	// Capacity is the compiled backend capacity (-max-backends); PUTs
	// holding more backends are refused with 409.
	Capacity int `json:"capacity"`
	// Router names the installed routing topology ("ring",
	// "bounded-ring", "static").
	Router string `json:"router"`
	// BoundedLoadC is the bounded-load factor c when Router is
	// "bounded-ring" (0 otherwise).
	BoundedLoadC float64 `json:"bounded_load_c,omitempty"`
	// Cache is the response cache's live state (nil when uncached).
	Cache *CacheView `json:"cache,omitempty"`
	// Latency is the service's end-to-end (decode→flush) latency summary
	// (nil when the service records none). Per-dimension histograms —
	// upstream round trip, cache hit/miss/coalesced — live on GET /latency.
	Latency *metrics.Snapshot `json:"latency,omitempty"`
}

// Controller is the running service the admin server fronts;
// apps.Control is the production implementation.
type Controller interface {
	// View snapshots the live topology.
	View() TopologyView
	// Apply installs a new topology through the drain-correct update
	// path. An error wrapping core.ErrCapacity maps to HTTP 409, any
	// other error to 400.
	Apply([]topology.Backend) error
	// Counters snapshots every registered counter set in registration
	// order.
	Counters() []metrics.Named
	// Latency snapshots every registered latency dimension in
	// registration order.
	Latency() []metrics.NamedHist
}

// maxBody bounds a PUT /topology request body.
const maxBody = 1 << 20

// Content types of the admin API's replies.
const (
	textPlain = "text/plain; charset=utf-8"
	appJSON   = "application/json"
)

// request is what a route sees of an admin request.
type request struct {
	// query is the raw query string after '?' ("" when absent).
	query string
	// body is the request body, valid only during the call.
	body []byte
}

// reply is a route's answer; the server frames it with Content-Length.
type reply struct {
	status int
	ctype  string
	allow  string // Allow header, set on 405 only
	body   []byte
}

// route answers one method on one path.
type route struct {
	method, path string
	serve        func(request) reply
}

// routes is the admin API around a controller. An endpoint is one line
// here; a path's methods are listed in the order its 405 Allow header
// names them.
func routes(ctl Controller) []route {
	return []route{
		{"GET", "/healthz", func(request) reply { return reply{status: 200, ctype: textPlain, body: []byte("ok\n")} }},
		{"GET", "/topology", func(request) reply { return jsonReply(200, viewJSON(ctl.View())) }},
		{"PUT", "/topology", func(r request) reply { return putTopology(ctl, r.body) }},
		{"GET", "/counters", func(request) reply { return marshaled(metrics.MarshalNamed(ctl.Counters())) }},
		{"GET", "/latency", func(request) reply { return marshaled(metrics.MarshalNamedHists(ctl.Latency())) }},
	}
}

// dispatch routes one request: the route for its method and path, else
// 405 naming the path's methods, else 404.
func dispatch(routes []route, method, path string, req request) reply {
	allow := ""
	for _, rt := range routes {
		if rt.path != path {
			continue
		}
		if rt.method == method {
			return rt.serve(req)
		}
		if allow != "" {
			allow += ", "
		}
		allow += rt.method
	}
	if allow == "" {
		return errorReply(404, "not found")
	}
	r := errorReply(405, "method not allowed")
	r.allow = allow
	return r
}

// putTopology applies a PUT /topology body and answers with the resulting
// view, so a successful PUT's response is the post-change GET.
func putTopology(ctl Controller, body []byte) reply {
	if len(body) > maxBody {
		return errorReply(413, "topology body exceeds 1MiB")
	}
	list, err := topology.DecodeJSON(body)
	if err != nil {
		return errorReply(400, err.Error())
	}
	if err := ctl.Apply(list); err != nil {
		status := 400
		if errors.Is(err, core.ErrCapacity) {
			status = 409
		}
		return errorReply(status, err.Error())
	}
	return jsonReply(200, viewJSON(ctl.View()))
}

// viewJSON marshals a TopologyView (never fails: the view is plain data).
func viewJSON(v TopologyView) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"error":"view marshal failed"}`)
	}
	return raw
}

// marshaled answers with an already-marshaled JSON document, or 500.
func marshaled(raw []byte, err error) reply {
	if err != nil {
		return errorReply(500, err.Error())
	}
	return jsonReply(200, raw)
}

// jsonReply answers with a JSON body, newline-terminated.
func jsonReply(status int, body []byte) reply {
	if len(body) == 0 || body[len(body)-1] != '\n' {
		body = append(body, '\n')
	}
	return reply{status: status, ctype: appJSON, body: body}
}

// errorReply answers with {"error": msg}.
func errorReply(status int, msg string) reply {
	raw, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	return jsonReply(status, raw)
}
