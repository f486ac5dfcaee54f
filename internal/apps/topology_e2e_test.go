package apps

import (
	"bytes"
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flick/internal/backend"
	"flick/internal/core"
	"flick/internal/netstack"
	phttp "flick/internal/proto/http"
	"flick/internal/proto/memcache"
)

// topologyTestbed deploys the memcached proxy with a live topology over
// nTotal backends (all preloaded with every key), initially serving the
// first nInitial of them.
type topologyTestbed struct {
	u     *netstack.UserNet
	p     *core.Platform
	mp    *Service
	svc   *core.Service
	srvs  []*backend.MemcachedServer
	addrs []string
	keys  [][]byte
}

func newTopologyTestbed(t *testing.T, nTotal, nInitial, nKeys int) *topologyTestbed {
	t.Helper()
	tb := &topologyTestbed{u: netstack.NewUserNet()}
	tb.p = core.NewPlatform(core.Config{Workers: 4, Transport: tb.u})
	t.Cleanup(tb.p.Close)

	kv := map[string]string{}
	for i := 0; i < nKeys; i++ {
		k := fmt.Sprintf("topo-key-%04d", i)
		kv[k] = fmt.Sprintf("value-%04d", i)
		tb.keys = append(tb.keys, []byte(k))
	}
	for b := 0; b < nTotal; b++ {
		srv, err := backend.NewMemcachedServer(tb.u, fmt.Sprintf("topo-shard:%d", b))
		if err != nil {
			t.Fatal(err)
		}
		srv.Preload(kv)
		t.Cleanup(srv.Close)
		tb.srvs = append(tb.srvs, srv)
		tb.addrs = append(tb.addrs, srv.Addr())
	}
	mp, err := MemcachedProxy(nTotal) // compiled capacity: nTotal ports
	if err != nil {
		t.Fatal(err)
	}
	mp.Topology.Live = true
	tb.mp = mp
	svc, err := mp.Deploy(tb.p, "topo-proxy:1", tb.addrs[:nInitial])
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	tb.svc = svc
	return tb
}

// get dials the proxy, round-trips one GET and verifies the value.
func (tb *topologyTestbed) get(key []byte, want string) error {
	raw, err := tb.u.Dial("topo-proxy:1")
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
	defer resp.Release() // responses retain pooled wire bytes
	if st := memcache.Status(resp); st != memcache.StatusOK {
		return fmt.Errorf("GET %s: status %#x", key, st)
	}
	if got := resp.Field("value").AsString(); got != want {
		return fmt.Errorf("GET %s: value %q, want %q", key, got, want)
	}
	return nil
}

// TestLiveScaleOutZeroErrors is the tentpole's acceptance gate: growing
// the backend set of a serving proxy must not fail a single request —
// connections opened before the update finish on their original sockets
// and routing, connections after it route through the new ring — and the
// added backend must actually start taking traffic.
func TestLiveScaleOutZeroErrors(t *testing.T) {
	const (
		total   = 3
		initial = 2
		clients = 8
		keys    = 64
	)
	tb := newTopologyTestbed(t, total, initial, keys)

	var (
		stop     atomic.Bool
		errCount atomic.Uint64
		reqCount atomic.Uint64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := (c*31 + i) % keys
				key := fmt.Sprintf("topo-key-%04d", k)
				if err := tb.get([]byte(key), fmt.Sprintf("value-%04d", k)); err != nil {
					errCount.Add(1)
					firstErr.CompareAndSwap(nil, err)
					return
				}
				reqCount.Add(1)
			}
		}(c)
	}

	// Let the fleet run against B=2, then scale out to B=3 live.
	time.Sleep(150 * time.Millisecond)
	before := reqCount.Load()
	if err := tb.mp.UpdateBackends(tb.svc, tb.addrs); err != nil {
		t.Fatalf("UpdateBackends: %v", err)
	}

	// The new backend must pick up traffic (reconnecting clients route
	// through the new ring, which owns ~1/3 of the key space).
	deadline := time.Now().Add(10 * time.Second)
	for tb.srvs[total-1].Requests() == 0 {
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("scaled-out backend got no traffic (reqs=%d errs=%d)", reqCount.Load(), errCount.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if e := errCount.Load(); e != 0 {
		t.Fatalf("%d request errors during live scale-out (first: %v)", e, firstErr.Load())
	}
	if reqCount.Load() <= before {
		t.Fatal("no requests completed after the topology update")
	}
	if d, _ := tb.svc.Upstreams().Counters().Get("drained"); d != 0 {
		t.Fatalf("scale-out drained %d sockets; growing the set must drain nothing", d)
	}
	t.Logf("scale-out: %d requests, 0 errors, new backend served %d", reqCount.Load(), tb.srvs[total-1].Requests())
}

// TestLiveScaleInDrainsUpstream: shrinking the set drains the removed
// backend's shared sockets and subsequent traffic avoids it entirely.
func TestLiveScaleInDrainsUpstream(t *testing.T) {
	const keys = 64
	tb := newTopologyTestbed(t, 3, 3, keys)

	// Touch every key once so all three backends hold sockets.
	for i, k := range tb.keys {
		if err := tb.get(k, fmt.Sprintf("value-%04d", i)); err != nil {
			t.Fatalf("warm-up GET: %v", err)
		}
	}
	if err := tb.mp.UpdateBackends(tb.svc, tb.addrs[:2]); err != nil {
		t.Fatalf("UpdateBackends: %v", err)
	}
	// All leases from the warm-up closed with their instances, so the
	// removed backend's sockets drain promptly.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if d, _ := tb.svc.Upstreams().Counters().Get("drained"); d > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("removed backend never drained (counters: %s)", tb.svc.Upstreams().Counters())
		}
		time.Sleep(5 * time.Millisecond)
	}

	removedBefore := tb.srvs[2].Requests()
	for i, k := range tb.keys {
		if err := tb.get(k, fmt.Sprintf("value-%04d", i)); err != nil {
			t.Fatalf("GET after scale-in: %v", err)
		}
	}
	if got := tb.srvs[2].Requests(); got != removedBefore {
		t.Fatalf("removed backend served %d requests after scale-in", got-removedBefore)
	}
}

// TestCompiledProxyRoutesViaRing pins the compiler/runtime handshake: the
// compiled `hash(req.key) mod len(backends)` expression must route every
// key to exactly the backend the service's ring predicts.
func TestCompiledProxyRoutesViaRing(t *testing.T) {
	const keys = 48
	tb := newTopologyTestbed(t, 3, 3, keys)
	ring := backend.NewRing(tb.addrs, 0) // same parameters as the service's

	expect := make([]uint64, 3)
	base := make([]uint64, 3)
	for b, srv := range tb.srvs {
		base[b] = srv.Requests()
	}
	for i, k := range tb.keys {
		expect[ring.Route(backend.KeyHash(k))]++
		if err := tb.get(k, fmt.Sprintf("value-%04d", i)); err != nil {
			t.Fatalf("GET: %v", err)
		}
	}
	for b, srv := range tb.srvs {
		if got := srv.Requests() - base[b]; got != expect[b] {
			t.Fatalf("backend %d served %d requests, ring predicts %d", b, got, expect[b])
		}
	}
}

// TestHTTPLBLiveTopologyNoBlackhole pins the instance_id routing lowering:
// the HTTP LB routes per connection via `instance_id() mod len(backends)`,
// so with a live topology whose bound count is below the compiled
// capacity, every connection must still reach a *bound* backend — before
// the routed lowering covered instance_id, ~half the connections would
// target unbound ports and hang with their requests silently dropped.
func TestHTTPLBLiveTopologyNoBlackhole(t *testing.T) {
	const (
		capacity = 4
		bound    = 2
		conns    = 12
	)
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 4, Transport: u})
	defer p.Close()
	addrs := make([]string, bound)
	for b := 0; b < bound; b++ {
		srv, err := backend.NewHTTPServer(u, fmt.Sprintf("lb-origin:%d", b), 64)
		if err != nil {
			t.Fatal(err)
		}
		defer srv.Close()
		addrs[b] = srv.Addr()
	}
	lb, err := HTTPLoadBalancer(capacity)
	if err != nil {
		t.Fatal(err)
	}
	lb.Topology.Live = true
	svc, err := lb.Deploy(p, "lb-topo:80", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	for i := 0; i < conns; i++ {
		raw, err := u.Dial("lb-topo:80")
		if err != nil {
			t.Fatal(err)
		}
		req := phttp.BuildRequest(nil, "GET", "/", "lb", false, nil)
		if _, err := raw.Write(req); err != nil {
			raw.Close()
			t.Fatal(err)
		}
		raw.SetReadDeadline(time.Now().Add(5 * time.Second))
		buf := make([]byte, 4096)
		got := 0
		for got == 0 {
			n, rerr := raw.Read(buf)
			got += n
			if rerr != nil && got == 0 {
				raw.Close()
				t.Fatalf("connection %d got no response: %v (request blackholed on an unbound port?)", i, rerr)
			}
		}
		raw.Close()
		if !bytes.HasPrefix(buf[:got], []byte("HTTP/1.1 200")) {
			t.Fatalf("connection %d: unexpected response %q", i, buf[:min(got, 40)])
		}
	}
}
