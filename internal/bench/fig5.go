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
)

// Fig5Config parameterises the Figure 5 Memcached proxy experiment.
type Fig5Config struct {
	Systems  []System
	Cores    []int // CPU cores for the proxy (paper: 1,2,4,8,16)
	Clients  int   // concurrent clients (paper: 128)
	Backends int   // memcached shards (paper: 10)
	Keys     int   // key-space size
	Duration time.Duration
}

// Fig5Point is one measured cell.
type Fig5Point struct {
	System      System
	Cores       int
	Throughput  float64
	MeanLatency time.Duration
	P99Latency  time.Duration
	Errors      uint64
	// AllocsPerOp is heap allocations per completed request across the
	// whole in-process testbed.
	AllocsPerOp float64
	// Pool is the buffer-pool counter delta over the measurement window.
	Pool metrics.CounterSet
	// Upstream is the shared-upstream-layer counter delta (empty for
	// Moxi).
	Upstream metrics.CounterSet
}

// RunFig5 measures the Memcached proxy across core counts.
func RunFig5(cfg Fig5Config) ([]Fig5Point, error) {
	if len(cfg.Systems) == 0 {
		cfg.Systems = []System{SysFlick, SysFlickMTCP, SysMoxi}
	}
	if len(cfg.Cores) == 0 {
		cfg.Cores = []int{1, 2, 4, 8, 16}
	}
	if cfg.Clients <= 0 {
		cfg.Clients = 128
	}
	if cfg.Backends <= 0 {
		cfg.Backends = 10
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 10000
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	var out []Fig5Point
	for _, sys := range cfg.Systems {
		for _, cores := range cfg.Cores {
			pt, err := runFig5Cell(cfg, sys, cores)
			if err != nil {
				return out, fmt.Errorf("bench: fig5 %s/%d cores: %w", sys, cores, err)
			}
			out = append(out, pt)
		}
	}
	return out, nil
}

func runFig5Cell(cfg Fig5Config, sys System, cores int) (Fig5Point, error) {
	tr := transportFor(sys)

	// Backends, preloaded so GETs hit.
	addrs := make([]string, cfg.Backends)
	var cleanup []func()
	closeAll := func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}
	kv := loadgen.PreloadKeys(cfg.Keys, 32)
	for i := range addrs {
		s, err := backend.NewMemcachedServer(tr, listenAddr(tr, fmt.Sprintf("shard:%d", i)))
		if err != nil {
			closeAll()
			return Fig5Point{}, err
		}
		s.Preload(kv)
		addrs[i] = s.Addr()
		cleanup = append(cleanup, s.Close)
	}

	var addr string
	var svcUnderTest *core.Service
	switch sys {
	case SysFlick, SysFlickMTCP:
		p := core.NewPlatform(core.Config{Workers: cores, Transport: tr})
		mp, err := apps.MemcachedProxy(cfg.Backends)
		if err != nil {
			p.Close()
			closeAll()
			return Fig5Point{}, err
		}
		svc, err := mp.Deploy(p, listenAddr(tr, "proxy:11211"), addrs)
		if err != nil {
			p.Close()
			closeAll()
			return Fig5Point{}, err
		}
		svc.Pool().Prime(cfg.Clients)
		addr = svc.Addr()
		svcUnderTest = svc
		cleanup = append(cleanup, func() { svc.Close(); p.Close() })
	case SysMoxi:
		m, err := baseline.NewMoxiLike(tr, listenAddr(tr, "proxy:11211"), addrs, cores)
		if err != nil {
			closeAll()
			return Fig5Point{}, err
		}
		addr = m.Addr()
		cleanup = append(cleanup, m.Close)
	default:
		closeAll()
		return Fig5Point{}, fmt.Errorf("system %q not applicable to fig5", sys)
	}
	defer closeAll()

	pool0 := buffer.Global.Counters()
	up0 := upstreamCounters(svcUnderTest)
	allocs0 := heapAllocs()
	res := loadgen.RunMemcache(loadgen.MemcacheConfig{
		Transport: tr,
		Addr:      addr,
		Clients:   cfg.Clients,
		Keys:      cfg.Keys,
		Duration:  cfg.Duration,
	})
	allocs1 := heapAllocs()
	return Fig5Point{
		System:      sys,
		Cores:       cores,
		Throughput:  res.Throughput(),
		MeanLatency: res.Latency.Mean,
		P99Latency:  res.Latency.P99,
		Errors:      res.Errors,
		AllocsPerOp: allocsPerOp(allocs1-allocs0, res.Requests),
		Pool:        buffer.Global.Counters().Sub(pool0),
		Upstream:    upstreamCounters(svcUnderTest).Sub(up0),
	}, nil
}

// Fig5Table renders the figure.
func Fig5Table(points []Fig5Point) *Table {
	t := &Table{
		Title:   "Memcached proxy vs CPU cores — Figure 5",
		Columns: []string{"system", "cores", "req/s", "mean-lat", "p99-lat", "errors", "allocs/req", "pool", "upstream"},
		Notes: []string{
			"paper shape: FLICK-kernel peaks 126k req/s @8 cores; FLICK mTCP 198k @16;",
			"Moxi peaks 82k @4 cores then degrades (threads contend on shared structures)",
		},
	}
	for _, p := range points {
		t.Add(string(p.System), fmt.Sprint(p.Cores), fmtReqs(p.Throughput),
			fmtDur(p.MeanLatency), fmtDur(p.P99Latency), fmt.Sprint(p.Errors),
			fmtAllocs(p.AllocsPerOp), fmtPool(p.Pool), fmtUpstream(p.Upstream))
	}
	return t
}
