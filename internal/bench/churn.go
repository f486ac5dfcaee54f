package bench

import (
	"fmt"
	"net"
	"sync"
	"time"

	"flick/internal/apps"
	"flick/internal/backend"
	"flick/internal/core"
	"flick/internal/loadgen"
	"flick/internal/metrics"
	"flick/internal/proto/memcache"
)

// ChurnConfig parameterises the connection-churn experiment: C concurrent
// short-lived clients churn through Conns total connections against the
// Memcached proxy over B backends, each connection performing a single GET.
// This is the workload where per-client backend dialling would hurt most —
// every accepted client would pay B upstream TCP set-ups — and where the
// shared upstream connection layer bounds the upstream socket count at
// pool×shards×B, with one pool shard per scheduler worker.
type ChurnConfig struct {
	System   System
	Clients  int // concurrent short-lived clients (C)
	Conns    int // total connections churned through
	Backends int // memcached shards (B)
	Keys     int // key-space size
	PoolSize int // upstream sockets per backend per shard (0: default)
	Workers  int
	// QuietBatch switches each churned connection from a single GET to a
	// moxi-style quiet-get batch — GetQ (hit), GetQ (miss), Noop — which
	// the shared upstream layer frames as ONE FIFO unit. Forces
	// Backends=1: the sharding proxy routes each message by its own key,
	// and a batch only stays a batch when every message lands on the same
	// upstream socket.
	QuietBatch bool
}

// ChurnPoint is one measured configuration.
type ChurnPoint struct {
	System   System
	Shards   int // upstream pool shards (one per scheduler worker)
	Clients  int
	Conns    int
	Backends int
	// Throughput is completed connections (= requests) per second.
	Throughput float64
	// SetupMean/SetupP99 summarise per-connection time to first response
	// (dial + request + response — the end-to-end connection set-up cost).
	SetupMean time.Duration
	SetupP99  time.Duration
	Errors    uint64
	// BackendConns counts connections accepted across all backends,
	// bounded by pool×shards×B.
	BackendConns uint64
	// UpstreamConns is the layer's live shared-socket count.
	UpstreamConns int
	// Upstream is the layer's counter snapshot.
	Upstream metrics.CounterSet
}

// RunChurn measures one connection-churn configuration.
func RunChurn(cfg ChurnConfig) (ChurnPoint, error) {
	if cfg.Clients <= 0 {
		cfg.Clients = 32
	}
	if cfg.Conns <= 0 {
		cfg.Conns = 1000
	}
	if cfg.Backends <= 0 {
		cfg.Backends = 4
	}
	if cfg.QuietBatch {
		cfg.Backends = 1 // see the QuietBatch doc: one socket per batch
	}
	if cfg.Keys <= 0 {
		cfg.Keys = 1000
	}
	if cfg.Workers <= 0 {
		cfg.Workers = 4
	}
	if cfg.System == "" {
		cfg.System = SysFlick
	}
	tr := transportFor(cfg.System)

	var cleanup []func()
	closeAll := func() {
		for i := len(cleanup) - 1; i >= 0; i-- {
			cleanup[i]()
		}
	}
	kv := loadgen.PreloadKeys(cfg.Keys, 32)
	srvs := make([]*backend.MemcachedServer, cfg.Backends)
	addrs := make([]string, cfg.Backends)
	for i := range addrs {
		s, err := backend.NewMemcachedServer(tr, listenAddr(tr, fmt.Sprintf("churn-shard:%d", i)))
		if err != nil {
			closeAll()
			return ChurnPoint{}, err
		}
		s.Preload(kv)
		srvs[i] = s
		addrs[i] = s.Addr()
		cleanup = append(cleanup, s.Close)
	}

	p := core.NewPlatform(core.Config{Workers: cfg.Workers, Transport: tr})
	mp, err := apps.MemcachedProxy(cfg.Backends)
	if err != nil {
		p.Close()
		closeAll()
		return ChurnPoint{}, err
	}
	mp.Upstream.PoolSize = cfg.PoolSize
	svc, err := mp.Deploy(p, listenAddr(tr, "churn-proxy:11211"), addrs)
	if err != nil {
		p.Close()
		closeAll()
		return ChurnPoint{}, err
	}
	svc.Pool().Prime(cfg.Clients)
	cleanup = append(cleanup, func() { svc.Close(); p.Close() })
	addr := svc.Addr()

	var (
		hist metrics.Histogram
		errs metrics.Counter
		wg   sync.WaitGroup
	)
	start := time.Now()
	per := cfg.Conns / cfg.Clients
	for c := 0; c < cfg.Clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			key := []byte(loadgen.Key(c % cfg.Keys))
			for i := 0; i < per; i++ {
				t0 := time.Now()
				var err error
				if cfg.QuietBatch {
					err = churnOnceQuiet(tr.Dial, addr, key)
				} else {
					err = churnOnce(tr.Dial, addr, key)
				}
				if err != nil {
					errs.Inc()
					continue
				}
				hist.Record(time.Since(t0))
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)

	pt := ChurnPoint{
		System:   cfg.System,
		Clients:  cfg.Clients,
		Conns:    cfg.Clients * per,
		Backends: cfg.Backends,
		Errors:   errs.Value(),
	}
	if elapsed > 0 {
		pt.Throughput = float64(hist.Count()) / elapsed.Seconds()
	}
	snap := hist.Snapshot()
	pt.SetupMean, pt.SetupP99 = snap.Mean, snap.P99
	pt.BackendConns = settledAccepts(srvs)
	if m := svc.Upstreams(); m != nil {
		pt.Shards = m.Shards()
		pt.UpstreamConns = m.Conns()
		pt.Upstream = m.Counters()
	}
	closeAll()
	return pt, nil
}

// settledAccepts sums backend-side accepted connections once the count is
// stable: accept loops may still be draining their backlogs when the last
// client's round trip completes (a client only waits for the shard its key
// hashes to, not for every backend dial to be accepted).
func settledAccepts(srvs []*backend.MemcachedServer) uint64 {
	var prev uint64
	deadline := time.Now().Add(2 * time.Second)
	for {
		var cur uint64
		for _, s := range srvs {
			cur += s.Accepts()
		}
		if cur == prev || time.Now().After(deadline) {
			return cur
		}
		prev = cur
		time.Sleep(10 * time.Millisecond)
	}
}

// churnOnce performs one short-lived client connection: dial, one GET, read
// the response, disconnect.
func churnOnce(dial func(string) (net.Conn, error), addr string, key []byte) error {
	raw, err := dial(addr)
	if err != nil {
		return err
	}
	defer raw.Close()
	c := memcache.NewConn(raw)
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	resp, err := c.RoundTrip(memcache.Request(memcache.OpGet, key, nil))
	if err != nil {
		return err
	}
	resp.Release()
	return nil
}

// churnOnceQuiet performs one short-lived quiet-get batch: GetQ for a
// preloaded key (a hit that responds), GetQ for a key that does not exist
// (a miss that stays silent), then the Noop terminator. The client is done
// when the terminator's response arrives — one hit plus one Noop, with the
// miss correctly absent.
func churnOnceQuiet(dial func(string) (net.Conn, error), addr string, key []byte) error {
	raw, err := dial(addr)
	if err != nil {
		return err
	}
	defer raw.Close()
	c := memcache.NewConn(raw)
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	if err := c.Send(memcache.Request(memcache.OpGetQ, key, nil)); err != nil {
		return err
	}
	if err := c.Send(memcache.Request(memcache.OpGetQ, []byte("churn-missing-key"), nil)); err != nil {
		return err
	}
	if err := c.Send(memcache.Request(memcache.OpNoop, nil, nil)); err != nil {
		return err
	}
	hits := 0
	for {
		resp, err := c.Receive()
		if err != nil {
			return err
		}
		op := resp.Field("opcode").AsInt()
		resp.Release()
		if op == memcache.OpNoop {
			break
		}
		hits++
	}
	if hits != 1 {
		return fmt.Errorf("quiet batch returned %d hits before the terminator, want 1", hits)
	}
	return nil
}

// ChurnTable renders the experiment.
func ChurnTable(points []ChurnPoint) *Table {
	t := &Table{
		Title: "Connection churn — per-worker sharded upstream pools",
		Columns: []string{"system", "shards", "clients", "backends", "conns",
			"conn/s", "setup-mean", "setup-p99", "errors", "be-conns", "up-socks", "upstream"},
		Notes: []string{
			"be-conns: connections accepted backend-side (bounded by pool×shards×B; C×B without the pool)",
			"setup: dial → first response, the per-connection set-up cost the pool amortises",
			"shardhits/shardsteals: leases served by the caller's own shard vs borrowed from a sibling",
		},
	}
	for _, p := range points {
		t.Add(string(p.System), fmt.Sprint(p.Shards), fmt.Sprint(p.Clients), fmt.Sprint(p.Backends),
			fmt.Sprint(p.Conns), fmtReqs(p.Throughput), fmtDur(p.SetupMean),
			fmtDur(p.SetupP99), fmt.Sprint(p.Errors), fmt.Sprint(p.BackendConns),
			fmt.Sprint(p.UpstreamConns), fmtUpstream(p.Upstream))
	}
	return t
}

// fmtUpstream renders the upstream layer's counters compactly.
func fmtUpstream(cs metrics.CounterSet) string {
	if cs.Len() == 0 {
		return "-"
	}
	dials, _ := cs.Get("dials")
	reuse, _ := cs.Get("reuse")
	redials, _ := cs.Get("redials")
	ff, _ := cs.Get("failfast")
	hits, _ := cs.Get("shardhits")
	steals, _ := cs.Get("shardsteals")
	return fmt.Sprintf("dials=%d reuse=%d redial=%d ff=%d hits=%d steals=%d",
		dials, reuse, redials, ff, hits, steals)
}

// upstreamCounters snapshots a service's upstream-layer counters (empty
// set when the service is nil or dials per connection).
func upstreamCounters(svc *core.Service) metrics.CounterSet {
	if svc == nil || svc.Upstreams() == nil {
		return metrics.CounterSet{}
	}
	return svc.Upstreams().Counters()
}
