package bench

import (
	"fmt"
	"time"

	"flick/internal/apps"
	"flick/internal/backend"
	"flick/internal/baseline"
	"flick/internal/buffer"
	"flick/internal/core"
	"flick/internal/loadgen"
	"flick/internal/metrics"
	"flick/internal/netstack"
)

// Fig4Config parameterises the Figure 4 HTTP load-balancer experiment.
type Fig4Config struct {
	Systems    []System
	Clients    []int // concurrent connections (paper: 100..1600)
	Backends   int   // paper: 10
	Persistent bool  // 4a/4b vs 4c/4d
	Duration   time.Duration
	Workers    int // FLICK worker threads / Nginx workers
	Payload    int // response body bytes (paper: 137)
	// RealOrigin swaps the synthetic backends for stock net/http origins
	// serving chunked transfer-encoding, and drives the load at the
	// chunked route. Before measuring, every cell diffs a through-proxy
	// fetch of each origin route (chunked, Content-Length, 304) against a
	// direct per-client dial and fails unless they are byte-identical.
	RealOrigin bool
}

// Fig4Point is one measured cell.
type Fig4Point struct {
	System      System
	Clients     int
	Throughput  float64
	MeanLatency time.Duration
	P99Latency  time.Duration
	Errors      uint64
	// AllocsPerOp is heap allocations per completed request across the
	// whole in-process testbed (middlebox + backends + clients): the
	// zero-copy data path shows up as this number collapsing.
	AllocsPerOp float64
	// Pool is the buffer-pool counter delta over the measurement window.
	Pool metrics.CounterSet
	// Upstream is the shared-upstream-layer counter delta (empty for
	// baselines).
	Upstream metrics.CounterSet
	// Live is the middlebox's own decode→flush latency histogram over the
	// window — the live pipeline the admin /latency endpoint serves
	// (zero-valued for baselines, which have no such pipeline).
	Live metrics.Snapshot
}

// RunFig4 measures the HTTP load balancer for every system×concurrency.
func RunFig4(cfg Fig4Config) ([]Fig4Point, error) {
	if len(cfg.Systems) == 0 {
		cfg.Systems = []System{SysFlick, SysFlickMTCP, SysApache, SysNginx}
	}
	if len(cfg.Clients) == 0 {
		cfg.Clients = []int{100, 200, 400, 800, 1600}
	}
	if cfg.Backends <= 0 {
		cfg.Backends = 10
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Payload <= 0 {
		cfg.Payload = 137
	}
	var out []Fig4Point
	for _, sys := range cfg.Systems {
		for _, clients := range cfg.Clients {
			pt, err := runFig4Cell(cfg, sys, clients)
			if err != nil {
				return out, fmt.Errorf("bench: fig4 %s/%d: %w", sys, clients, err)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

// lbTestbed is a constructed load-balancer deployment.
type lbTestbed struct {
	addr       string
	originAddr string        // one backend's own address (passthrough diff)
	svc        *core.Service // nil for baselines
	cleanup    []func()
}

func (tb *lbTestbed) close() {
	for i := len(tb.cleanup) - 1; i >= 0; i-- {
		tb.cleanup[i]()
	}
}

// buildLBTestbed starts the backends and the middlebox under test.
func buildLBTestbed(cfg Fig4Config, sys System, tr netstack.Transport) (*lbTestbed, error) {
	tb := &lbTestbed{}
	addrs := make([]string, cfg.Backends)
	for i := range addrs {
		if cfg.RealOrigin {
			s, err := NewRealOrigin(tr, listenAddr(tr, fmt.Sprintf("origin:%d", i)), cfg.Payload)
			if err != nil {
				tb.close()
				return nil, err
			}
			addrs[i] = s.Addr()
			tb.cleanup = append(tb.cleanup, s.Close)
		} else {
			s, err := backend.NewHTTPServer(tr, listenAddr(tr, fmt.Sprintf("origin:%d", i)), cfg.Payload)
			if err != nil {
				tb.close()
				return nil, err
			}
			addrs[i] = s.Addr()
			tb.cleanup = append(tb.cleanup, s.Close)
		}
	}
	tb.originAddr = addrs[0]
	switch sys {
	case SysFlick, SysFlickMTCP:
		p := core.NewPlatform(core.Config{Workers: cfg.Workers, Transport: tr})
		lb, err := apps.HTTPLoadBalancer(cfg.Backends)
		if err != nil {
			p.Close()
			tb.close()
			return nil, err
		}
		svc, err := lb.Deploy(p, listenAddr(tr, "lb:80"), addrs)
		if err != nil {
			p.Close()
			tb.close()
			return nil, err
		}
		svc.Pool().Prime(64)
		tb.addr = svc.Addr()
		tb.svc = svc
		tb.cleanup = append(tb.cleanup, func() { svc.Close(); p.Close() })
	case SysApache:
		px, err := baseline.NewApacheLike(tr, listenAddr(tr, "lb:80"), addrs)
		if err != nil {
			tb.close()
			return nil, err
		}
		tb.addr = px.Addr()
		tb.cleanup = append(tb.cleanup, px.Close)
	case SysNginx:
		px, err := baseline.NewNginxLike(tr, listenAddr(tr, "lb:80"), addrs, cfg.Workers)
		if err != nil {
			tb.close()
			return nil, err
		}
		tb.addr = px.Addr()
		tb.cleanup = append(tb.cleanup, px.Close)
	default:
		tb.close()
		return nil, fmt.Errorf("system %q not applicable to fig4", sys)
	}
	return tb, nil
}

func runFig4Cell(cfg Fig4Config, sys System, clients int) (Fig4Point, error) {
	tr := transportFor(sys)
	tb, err := buildLBTestbed(cfg, sys, tr)
	if err != nil {
		return Fig4Point{}, err
	}
	defer tb.close()

	uri := ""
	if cfg.RealOrigin {
		// Chunked responses exercise the request-aware framing end to
		// end; first prove the proxy is invisible on the wire.
		uri = OriginChunkedURI
		if err := VerifyPassthrough(tr, tb.addr, tb.originAddr); err != nil {
			return Fig4Point{}, err
		}
	}
	pool0 := buffer.Global.Counters()
	up0 := upstreamCounters(tb.svc)
	allocs0 := heapAllocs()
	res := loadgen.RunHTTP(loadgen.HTTPConfig{
		Transport:  tr,
		Addr:       tb.addr,
		URI:        uri,
		Clients:    clients,
		Persistent: cfg.Persistent,
		Duration:   cfg.Duration,
	})
	allocs1 := heapAllocs()
	pt := Fig4Point{
		System:      sys,
		Clients:     clients,
		Throughput:  res.Throughput(),
		MeanLatency: res.Latency.Mean,
		P99Latency:  res.Latency.P99,
		Errors:      res.Errors,
		AllocsPerOp: allocsPerOp(allocs1-allocs0, res.Requests),
		Pool:        buffer.Global.Counters().Sub(pool0),
		Upstream:    upstreamCounters(tb.svc).Sub(up0),
	}
	if tb.svc != nil {
		pt.Live = tb.svc.Latency().Total().Snapshot()
	}
	return pt, nil
}

// Fig4Table renders the figure's two panels (throughput and latency).
func Fig4Table(points []Fig4Point, persistent bool) *Table {
	panel := "4a/4b (persistent)"
	notes := []string{
		"paper shape: FLICK ≈1.4× Nginx and ≈2.2× Apache; FLICK mTCP up to 2.7×/4.2×; FLICK lowest latency",
	}
	if !persistent {
		panel = "4c/4d (non-persistent)"
		notes = []string{
			"paper shape: FLICK-kernel BELOW Apache/Nginx (no backend connection reuse);",
			"FLICK mTCP ≈2.5× Nginx and ≈2.1× Apache; FLICK variants keep the lowest latency",
			"the shared upstream pool adds the reuse the paper's FLICK lacked",
		}
	}
	t := &Table{
		Title:   "HTTP load balancer — Figure " + panel,
		Columns: []string{"system", "clients", "req/s", "mean-lat", "p99-lat", "live-p99", "errors", "allocs/req", "pool", "upstream"},
		Notes:   append(notes, "live-p99 = the middlebox's own decode→flush histogram (admin /latency); '-' for baselines"),
	}
	for _, p := range points {
		liveCol := "-"
		if p.Live.Count > 0 {
			liveCol = fmtDur(p.Live.P99)
		}
		t.Add(string(p.System), fmt.Sprint(p.Clients), fmtReqs(p.Throughput),
			fmtDur(p.MeanLatency), fmtDur(p.P99Latency), liveCol, fmt.Sprint(p.Errors),
			fmtAllocs(p.AllocsPerOp), fmtPool(p.Pool), fmtUpstream(p.Upstream))
	}
	return t
}
