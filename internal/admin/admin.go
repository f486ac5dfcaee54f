// Package admin is the platform's control-plane HTTP listener: a small
// stdlib net/http server exposing a running service's live state — the
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
package admin

import (
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

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

// Handler builds the admin API's http.Handler around a controller.
func Handler(ctl Controller) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			methodNotAllowed(w, http.MethodGet)
			return
		}
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/topology", func(w http.ResponseWriter, r *http.Request) {
		switch r.Method {
		case http.MethodGet:
			writeJSON(w, http.StatusOK, viewJSON(ctl.View()))
		case http.MethodPut:
			handlePut(w, r, ctl)
		default:
			methodNotAllowed(w, "GET, PUT")
		}
	})
	mux.HandleFunc("/counters", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			methodNotAllowed(w, http.MethodGet)
			return
		}
		raw, err := metrics.MarshalNamed(ctl.Counters())
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, raw)
	})
	mux.HandleFunc("/latency", func(w http.ResponseWriter, r *http.Request) {
		if r.Method != http.MethodGet {
			methodNotAllowed(w, http.MethodGet)
			return
		}
		raw, err := metrics.MarshalNamedHists(ctl.Latency())
		if err != nil {
			httpError(w, http.StatusInternalServerError, err.Error())
			return
		}
		writeJSON(w, http.StatusOK, raw)
	})
	return mux
}

// handlePut applies a PUT /topology body and answers with the resulting
// view, so a successful PUT's response is the post-change GET.
func handlePut(w http.ResponseWriter, r *http.Request, ctl Controller) {
	body, err := io.ReadAll(io.LimitReader(r.Body, maxBody+1))
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if len(body) > maxBody {
		httpError(w, http.StatusRequestEntityTooLarge, "topology body exceeds 1MiB")
		return
	}
	list, err := topology.DecodeJSON(body)
	if err != nil {
		httpError(w, http.StatusBadRequest, err.Error())
		return
	}
	if err := ctl.Apply(list); err != nil {
		status := http.StatusBadRequest
		if errors.Is(err, core.ErrCapacity) {
			status = http.StatusConflict
		}
		httpError(w, status, err.Error())
		return
	}
	writeJSON(w, http.StatusOK, viewJSON(ctl.View()))
}

// viewJSON marshals a TopologyView (never fails: the view is plain data).
func viewJSON(v TopologyView) []byte {
	raw, err := json.Marshal(v)
	if err != nil {
		return []byte(`{"error":"view marshal failed"}`)
	}
	return raw
}

func writeJSON(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
	if len(body) == 0 || body[len(body)-1] != '\n' {
		io.WriteString(w, "\n")
	}
}

func httpError(w http.ResponseWriter, status int, msg string) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	raw, _ := json.Marshal(struct {
		Error string `json:"error"`
	}{msg})
	w.Write(raw)
	io.WriteString(w, "\n")
}

func methodNotAllowed(w http.ResponseWriter, allow string) {
	w.Header().Set("Allow", allow)
	httpError(w, http.StatusMethodNotAllowed, "method not allowed")
}

// Server is a running admin listener.
type Server struct {
	l   net.Listener
	srv *http.Server
}

// Start listens on addr and serves the admin API in the background. The
// returned server reports its bound address (Addr) and shuts down with
// Close.
func Start(addr string, ctl Controller) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	srv := &http.Server{
		Handler:           Handler(ctl),
		ReadHeaderTimeout: 5 * time.Second,
	}
	go srv.Serve(l)
	return &Server{l: l, srv: srv}, nil
}

// Addr returns the listener's bound address (useful with ":0").
func (s *Server) Addr() string { return s.l.Addr().String() }

// Close stops the listener and closes open admin connections.
func (s *Server) Close() error { return s.srv.Close() }
