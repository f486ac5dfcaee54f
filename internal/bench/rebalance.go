package bench

import (
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flick/internal/apps"
	"flick/internal/backend"
	"flick/internal/core"
	"flick/internal/loadgen"
	"flick/internal/metrics"
	"flick/internal/proto/memcache"
)

// RebalanceConfig parameterises the live scale-out experiment: C
// reconnecting clients GET uniformly over the key space against the
// Memcached proxy while the backend set grows B→B+1 mid-run through
// Service.UpdateBackends. Measured: the fraction of the key space the
// consistent-hash ring remaps, request errors across the update (the
// headline: zero), and how quickly the new backend picks up traffic.
type RebalanceConfig struct {
	System        System
	Clients       int           // concurrent reconnecting clients (C)
	Backends      int           // initial backend count (B); scales to B+1
	Keys          int           // key-space size
	ReqsPerConn   int           // GETs per client connection (reconnect after)
	Duration      time.Duration // total load window; the update fires at the midpoint
	Workers       int
	ProbeInterval time.Duration // upstream health probes (0: off)
	// HotKeyFrac skews the workload: roughly this fraction of GETs hit one
	// hot key (0: uniform). Skew is what separates the bounded-load ring
	// from the plain ring — a plain ring concentrates the hot key's whole
	// stream on its hash owner.
	HotKeyFrac float64
	// BoundedLoadC, when > 0, routes through the bounded-load ring with
	// load factor c instead of the plain ring (see
	// apps.TopologyOptions.BoundedLoadC).
	BoundedLoadC float64
}

// RebalancePoint is one measured topology.
type RebalancePoint struct {
	System   System
	Backends int // initial B (scaled out to B+1)
	// MovedFrac is the fraction of the key space the B→B+1 update remaps
	// (computed over the benchmark's exact key set with the service's own
	// ring — backend.KeyHash matches the language's hash builtin).
	MovedFrac float64
	// Requests/Errors count completed GETs and failures across the whole
	// window, including the live update.
	Requests uint64
	Errors   uint64
	// NewBackendReqs is the request count the added backend served after
	// the update — nonzero means traffic really moved.
	NewBackendReqs uint64
	Throughput     float64
	// Bounded records whether the bounded-load ring routed this run.
	Bounded bool
	// MaxLoad is the hottest initial backend's served-request count as a
	// multiple of the initial backends' mean — the skew the bounded-load
	// ring exists to cap (≈1 is perfectly balanced; a hot-key workload
	// drives a plain ring's value toward B·hotfrac).
	MaxLoad float64
	// Upstream is the shared layer's counter snapshot (probes, drained,
	// redials...).
	Upstream metrics.CounterSet
}

// RunRebalance measures one live B→B+1 scale-out.
func RunRebalance(cfg RebalanceConfig) (RebalancePoint, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 16
	}
	if cfg.Backends <= 0 {
		cfg.Backends = 4
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 2000
	}
	if cfg.ReqsPerConn <= 0 {
		cfg.ReqsPerConn = 8
	}
	if cfg.Duration <= 0 {
		cfg.Duration = 2 * time.Second
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.System == "" {
		cfg.System = SysFlick
	}
	tr := transportFor(cfg.System)
	total := cfg.Backends + 1

	var cleanup []func()
	closeAll := func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}
	kv := loadgen.PreloadKeys(cfg.Keys, 32)
	keys := make([][]byte, cfg.Keys)
	for i := range keys {
		keys[i] = []byte(loadgen.Key(i))
	}
	srvs := make([]*backend.MemcachedServer, total)
	addrs := make([]string, total)
	for i := range addrs {
		s, err := backend.NewMemcachedServer(tr, listenAddr(tr, fmt.Sprintf("rebal-shard:%d", i)))
		if err != nil {
			closeAll()
			return RebalancePoint{}, err
		}
		s.Preload(kv)
		srvs[i] = s
		addrs[i] = s.Addr()
		cleanup = append(cleanup, s.Close)
	}

	p := core.NewPlatform(core.Config{Workers: cfg.Workers, Transport: tr})
	mp, err := apps.MemcachedProxy(total) // capacity B+1, deployed with B
	if err != nil {
		p.Close()
		closeAll()
		return RebalancePoint{}, err
	}
	mp.Topology.Live = true
	mp.Topology.BoundedLoadC = cfg.BoundedLoadC
	mp.Upstream.ProbeInterval = cfg.ProbeInterval
	svc, err := mp.Deploy(p, listenAddr(tr, "rebal-proxy:11211"), addrs[:cfg.Backends])
	if err != nil {
		p.Close()
		closeAll()
		return RebalancePoint{}, err
	}
	svc.Pool().Prime(cfg.Clients)
	cleanup = append(cleanup, func() { svc.Close(); p.Close() })
	proxyAddr := svc.Addr()

	// hotEvery turns the skew fraction into a deterministic cadence: every
	// hotEvery-th GET hits keys[0].
	hotEvery := 0
	if cfg.HotKeyFrac > 0 {
		hotEvery = int(1 / cfg.HotKeyFrac)
		if hotEvery < 1 {
			hotEvery = 1
		}
	}
	// Per-backend served-request baselines for the max-load column.
	base := make([]uint64, total)
	for i, s := range srvs {
		base[i] = s.Requests()
	}

	var (
		reqs metrics.Counter
		errs metrics.Counter
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			i := c * 911 // stagger key cursors across clients
			for !stop.Load() {
				done, err := rebalanceConn(tr.Dial, proxyAddr, keys, &i, cfg.ReqsPerConn, hotEvery, &stop)
				reqs.Add(uint64(done)) // count completed GETs, not batches
				if err != nil {
					errs.Inc()
				}
			}
		}(c)
	}

	// Load runs against B; at the midpoint the topology grows to B+1 live.
	time.Sleep(cfg.Duration / 2)
	newBase := srvs[total-1].Requests()
	if err := mp.UpdateBackends(svc, addrs); err != nil {
		stop.Store(true)
		wg.Wait()
		closeAll()
		return RebalancePoint{}, err
	}
	time.Sleep(cfg.Duration / 2)
	stop.Store(true)
	wg.Wait()

	pt := RebalancePoint{
		System:         cfg.System,
		Backends:       cfg.Backends,
		Requests:       reqs.Value(),
		Errors:         errs.Value(),
		NewBackendReqs: srvs[total-1].Requests() - newBase,
		Throughput:     float64(reqs.Value()) / cfg.Duration.Seconds(),
		Bounded:        cfg.BoundedLoadC > 0,
		Upstream:       upstreamCounters(svc),
	}
	// Max-load over the initial backends (the added backend only serves
	// half the window; excluding it keeps plain and bounded runs
	// comparable).
	var maxServed, sumServed uint64
	for i := 0; i < cfg.Backends; i++ {
		served := srvs[i].Requests() - base[i]
		sumServed += served
		if served > maxServed {
			maxServed = served
		}
	}
	if sumServed > 0 {
		pt.MaxLoad = float64(maxServed) * float64(cfg.Backends) / float64(sumServed)
	}
	// The analytic remap cost over the exact key set, using the same
	// ring construction the service itself deploys.
	pt.MovedFrac = backend.MovedFraction(
		backend.NewRing(addrs[:cfg.Backends], 0), backend.NewRing(addrs, 0), keys)
	closeAll()
	return pt, nil
}

// rebalanceConn is one client connection's life: dial, up to n GETs over
// the shared key space, disconnect (so later connections route through
// whatever topology is current). It returns how many GETs completed —
// the caller counts those, so a connection stopped mid-batch or failed
// after a partial batch is accounted exactly.
func rebalanceConn(dial func(string) (net.Conn, error), addr string,
	keys [][]byte, cursor *int, n, hotEvery int, stop *atomic.Bool) (int, error) {
	raw, err := dial(addr)
	if err != nil {
		return 0, err
	}
	defer raw.Close()
	c := memcache.NewConn(raw)
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	for i := 0; i < n; i++ {
		key := keys[*cursor%len(keys)]
		if hotEvery > 0 && *cursor%hotEvery == 0 {
			key = keys[0] // the hot key
		}
		*cursor++
		resp, err := c.RoundTrip(memcache.Request(memcache.OpGet, key, nil))
		if err != nil {
			return i, err
		}
		ok := memcache.Status(resp) == memcache.StatusOK
		resp.Release() // responses retain pooled wire bytes
		if !ok {
			return i, fmt.Errorf("bench: GET %s: miss", key)
		}
		if stop.Load() {
			return i + 1, nil
		}
	}
	return n, nil
}

// RunRebalanceSkewPair measures the plain ring against the bounded-load
// ring under a hot-key workload: same scale-out, same skew, the only
// difference being whether the hash owner's in-flight excess spills to
// ring successors. The acceptance gate is that the bounded run's max-load
// lands strictly below the plain run's.
func RunRebalanceSkewPair(cfg RebalanceConfig) ([]RebalancePoint, error) {
	if cfg.HotKeyFrac <= 0 {
		cfg.HotKeyFrac = 0.5
	}
	var out []RebalancePoint
	for _, c := range []float64{0, backend.DefaultBoundedLoadC} {
		run := cfg
		run.BoundedLoadC = c
		pt, err := RunRebalance(run)
		if err != nil {
			return out, fmt.Errorf("bench: rebalance skew (c=%v): %w", c, err)
		}
		out = append(out, pt)
	}
	return out, nil
}

// RebalanceTable renders the experiment.
func RebalanceTable(points []RebalancePoint) *Table {
	t := &Table{
		Title: "Live rebalance — consistent-hash ring on a B→B+1 scale-out",
		Columns: []string{"system", "topology", "backends", "keys-moved", "max-load", "req/s",
			"requests", "errors", "new-be-reqs", "upstream"},
		Notes: []string{
			"keys-moved: fraction of the key space the topology update remaps (analytic, exact key set)",
			"max-load: hottest initial backend's served requests over the initial backends' mean (1.00 = balanced)",
			"errors must be 0: running graphs finish on their original sockets while new connections re-route",
			"new-be-reqs: requests the added backend served after the live update",
		},
	}
	for _, p := range points {
		topo := "ring"
		if p.Bounded {
			topo = "ring+bound"
		}
		t.Add(string(p.System), topo, fmt.Sprintf("%d→%d", p.Backends, p.Backends+1),
			fmt.Sprintf("%.1f%%", 100*p.MovedFrac), fmt.Sprintf("%.2f", p.MaxLoad),
			fmtReqs(p.Throughput),
			fmt.Sprint(p.Requests), fmt.Sprint(p.Errors), fmt.Sprint(p.NewBackendReqs),
			fmtUpstream(p.Upstream))
	}
	return t
}
