package apps

import (
	"bytes"
	"fmt"
	"net"
	"sync"
	"testing"
	"time"

	"flick/internal/backend"
	"flick/internal/buffer"
	"flick/internal/core"
	"flick/internal/netstack"
	"flick/internal/proto/memcache"
)

// churnKey is short-lived client i's key.
func churnKey(i int) []byte { return []byte(fmt.Sprintf("churn-key-%03d", i)) }

// getkOnce dials addr, issues one GETK for key, and returns the raw
// bytes of the one complete binary-protocol response frame.
func getkOnce(u *netstack.UserNet, addr string, key []byte) ([]byte, error) {
	raw, err := u.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer raw.Close()
	wire, err := memcache.Codec.Encode(nil, memcache.Request(memcache.OpGetK, key, nil))
	if err != nil {
		return nil, err
	}
	if _, err := raw.Write(wire); err != nil {
		return nil, err
	}
	raw.SetReadDeadline(time.Now().Add(10 * time.Second))
	// Read one complete frame (24-byte header + body length at bytes 8..11).
	resp := make([]byte, 0, 256)
	buf := make([]byte, 4096)
	for {
		n, err := raw.Read(buf)
		if n > 0 {
			resp = append(resp, buf[:n]...)
		}
		if len(resp) >= 24 {
			body := int(uint32(resp[8])<<24 | uint32(resp[9])<<16 | uint32(resp[10])<<8 | uint32(resp[11]))
			if len(resp) >= 24+body {
				return resp[:24+body], nil
			}
		}
		if err != nil {
			return nil, fmt.Errorf("short response (%d bytes): %w", len(resp), err)
		}
	}
}

// driveShortLivedClients churns C short-lived clients through the proxy:
// each dials, issues one GETK for its own key, captures the raw response
// bytes, and disconnects. Responses are returned keyed by client index.
func driveShortLivedClients(t *testing.T, u *netstack.UserNet, addr string, clients int) [][]byte {
	t.Helper()
	out := make([][]byte, clients)
	errs := make([]error, clients)
	var wg sync.WaitGroup
	for i := 0; i < clients; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			out[i], errs[i] = getkOnce(u, addr, churnKey(i))
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
	return out
}

// TestProxyUpstreamPoolBoundsBackendConns is the shared-upstream
// acceptance gate: the memcached proxy under C=32 short-lived clients
// over B=4 backends must hold backend-side accepted connections to
// pool-size × shards × B (not C × B), with one pool shard per worker, and
// answer each client byte-identically to the same GETK sent straight to
// the shard its key hashes to.
func TestProxyUpstreamPoolBoundsBackendConns(t *testing.T) {
	const (
		clients  = 32
		backends = 4
		poolSize = 2
		workers  = 4
	)
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: workers, Transport: u})
	defer p.Close()
	kv := map[string]string{}
	for i := 0; i < clients; i++ {
		kv[string(churnKey(i))] = fmt.Sprintf("value-for-%03d", i)
	}
	var srvs []*backend.MemcachedServer
	addrs := make([]string, backends)
	for b := 0; b < backends; b++ {
		srv, err := backend.NewMemcachedServer(u, fmt.Sprintf("shard:%d", b))
		if err != nil {
			t.Fatal(err)
		}
		srv.Preload(kv)
		defer srv.Close()
		srvs = append(srvs, srv)
		addrs[b] = srv.Addr()
	}
	mp, err := MemcachedProxy(backends)
	if err != nil {
		t.Fatal(err)
	}
	mp.Upstream.PoolSize = poolSize
	svc, err := mp.Deploy(p, "proxy:churn", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	proxied := driveShortLivedClients(t, u, "proxy:churn", clients)
	// Accept loops may still be draining backlogs (a client only waits
	// for the shard its key hashes to); settle before snapshotting.
	var accepts uint64
	deadline := time.Now().Add(2 * time.Second)
	for {
		var cur uint64
		for _, srv := range srvs {
			cur += srv.Accepts()
		}
		if cur == accepts || time.Now().After(deadline) {
			accepts = cur
			break
		}
		accepts = cur
		time.Sleep(10 * time.Millisecond)
	}
	m := svc.Upstreams()
	if m == nil {
		t.Fatal("request/response service deployed without an upstream manager")
	}
	if got := m.Shards(); got != workers {
		t.Fatalf("manager has %d shards, want one per worker (%d)", got, workers)
	}
	if conns := m.Conns(); conns > poolSize*workers*backends {
		t.Fatalf("upstream holds %d sockets, want <= %d", conns, poolSize*workers*backends)
	}
	// Pools hold one socket set per worker, so the bound scales with the
	// core count — still independent of the client count C.
	if accepts > uint64(poolSize*workers*backends) {
		t.Fatalf("proxy opened %d backend connections, want <= pool×shards×B = %d",
			accepts, poolSize*workers*backends)
	}
	for i := range proxied {
		key := churnKey(i)
		direct, err := getkOnce(u, addrs[backend.KeyHash(key)%backends], key)
		if err != nil {
			t.Fatalf("direct GETK %s: %v", key, err)
		}
		if !bytes.Equal(proxied[i], direct) {
			t.Fatalf("client %d responses diverge:\nproxied: %q\ndirect:  %q", i, proxied[i], direct)
		}
	}
}

// TestProxyBackendMidStreamCloseBalancesRefs pins the backend failure path
// end to end: a backend that dies mid-stream propagates EOF through the
// proxy (the client observes the failure promptly) and every pooled buffer
// reference handed out along the way is recycled.
func TestProxyBackendMidStreamCloseBalancesRefs(t *testing.T) {
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 2, Transport: u})
	defer p.Close()
	// A backend that answers exactly one command per connection, then dies
	// mid-stream (MemcachedServer.Close would let live conns drain, which
	// is the graceful path — this pins the abrupt one).
	l, err := u.Listen("shard:ref0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			go func(raw net.Conn) {
				bc := memcache.NewConn(raw)
				req, err := bc.Receive()
				if err == nil {
					bc.Send(memcache.Response(req, memcache.StatusOK, req.Field("key").AsBytes(), []byte("v")))
					req.Release()
				}
				// Swallow the second command, then die with it unanswered.
				if req2, err := bc.Receive(); err == nil {
					req2.Release()
				}
				bc.Close()
			}(raw)
		}
	}()
	mp, err := MemcachedProxy(1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := mp.Deploy(p, "proxy:ref", []string{"shard:ref0"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	before := buffer.Global.Stats()

	// A healthy round trip first, so the shared socket carries real state.
	raw, err := u.Dial("proxy:ref")
	if err != nil {
		t.Fatal(err)
	}
	c := memcache.NewConn(raw)
	resp, err := c.RoundTrip(memcache.Request(memcache.OpGet, []byte("first"), nil))
	if err != nil {
		t.Fatalf("healthy round trip: %v", err)
	}
	resp.Release() // recycle the response's pooled wire bytes

	// The backend dies once it has served one command; the next request is
	// stranded in flight on the shared socket.
	if err := c.Send(memcache.Request(memcache.OpGet, []byte("doomed"), nil)); err != nil {
		t.Fatal(err)
	}
	raw.SetReadDeadline(time.Now().Add(5 * time.Second))
	if _, err := c.Receive(); err == nil {
		t.Fatal("response produced by a closed backend")
	}
	c.Close()
	svc.Close()
	p.Close()

	// Every region handed out since the baseline must be recycled once the
	// instances drain back to the pool.
	deadline := time.Now().Add(5 * time.Second)
	for {
		after := buffer.Global.Stats()
		if after.RefGets-before.RefGets == after.RefPuts-before.RefPuts {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("pooled refs leaked on backend failure: +%d gets, +%d puts",
				after.RefGets-before.RefGets, after.RefPuts-before.RefPuts)
		}
		time.Sleep(5 * time.Millisecond)
	}
}
