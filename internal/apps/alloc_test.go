package apps

import (
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"testing"
	"time"

	"flick/internal/backend"
	"flick/internal/buffer"
	"flick/internal/core"
	"flick/internal/grammar"
	"flick/internal/netstack"
	phttp "flick/internal/proto/http"
	"flick/internal/proto/memcache"
	"flick/internal/value"
)

// allocClient is a closed-loop client whose round trip allocates nothing
// of its own in steady state: one fixed batch of window pipelined
// requests, pooled decodes, a status check each, release. Driving the
// proxy and the backend directly with the same client makes the
// difference of the two allocation counts the proxy's own.
type allocClient struct {
	conn   net.Conn
	req    []byte
	window int // requests in req, answered before the next round trip
	q      *buffer.Queue
	dec    grammar.StreamDecoder
	ok     func(value.Value) bool
	rbuf   []byte
}

func newAllocClient(t *testing.T, u *netstack.UserNet, addr string, req []byte, window int,
	dec grammar.StreamDecoder, ok func(value.Value) bool) *allocClient {
	t.Helper()
	conn, err := u.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return &allocClient{conn: conn, req: req, window: window, q: buffer.NewQueue(nil), dec: dec, ok: ok, rbuf: make([]byte, 16<<10)}
}

func (c *allocClient) roundTrip(t *testing.T) {
	if _, err := c.conn.Write(c.req); err != nil {
		t.Fatal(err)
	}
	for left := c.window; ; {
		msg, ok, err := c.dec.Decode(c.q)
		if err != nil {
			t.Fatal(err)
		}
		if ok {
			good := c.ok(msg)
			msg.Release()
			if !good {
				t.Fatal("unexpected response")
			}
			if left--; left == 0 {
				return
			}
			continue
		}
		n, err := c.conn.Read(c.rbuf)
		if n > 0 {
			c.q.Append(c.rbuf[:n])
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
	}
}

// allocsPerReq runs warm round trips, then reports the process-wide heap
// allocations per request over n more round trips. MemStats counts every
// goroutine, so the proxy's workers, the backend and the client are all
// included.
func (c *allocClient) allocsPerReq(t *testing.T, n int) float64 {
	t.Helper()
	for i := 0; i < 500; i++ {
		c.roundTrip(t)
	}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < n; i++ {
		c.roundTrip(t)
	}
	runtime.ReadMemStats(&after)
	return float64(after.Mallocs-before.Mallocs) / float64(n*c.window)
}

// proxyAllocsPerReq is the proxy's share of the heap allocations of one
// request: allocs/req through the proxy minus allocs/req sent straight to
// the backend by the same client.
func proxyAllocsPerReq(t *testing.T, proxied, direct *allocClient) float64 {
	t.Helper()
	const requests = 5000
	// Interleave the two sides so a background allocation burst (a GC
	// cycle's own bookkeeping, a timer) is not charged to one side only.
	var share float64
	for round := 0; round < 2; round++ {
		d := direct.allocsPerReq(t, requests/2)
		p := proxied.allocsPerReq(t, requests/2)
		share += (p - d) / 2
	}
	return share
}

const (
	allocKey   = "alloc-key"
	allocValue = "alloc-value"
)

// allocGet is the wire image of the memcached GET the gate sends.
func allocGet(t *testing.T) []byte {
	t.Helper()
	b, err := memcache.Codec.Encode(nil, memcache.Request(memcache.OpGet, []byte(allocKey), nil))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// maxProxyAllocsPerReq is the per-request allocation budget of the proxy:
// zero, with headroom for runtime noise (0.05/req is 250 stray
// allocations over the measured 5 000 requests).
const maxProxyAllocsPerReq = 0.05

// TestProxyZeroAllocPerRequest is the allocation gate for the whole proxy
// data path — scheduler activations, input decode, the compiled FLICK
// program, the cache and the upstream session, output encode: after
// warm-up a proxied request allocates nothing the direct request does not.
func TestProxyZeroAllocPerRequest(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	mcReq := allocGet(t)
	mcOK := func(m value.Value) bool { return memcache.Status(m) == memcache.StatusOK }
	httpReq := phttp.BuildRequest(nil, "GET", "/alloc.html", "alloctest", true, nil)
	httpOK := func(m value.Value) bool { return m.Field("status").AsInt() == 200 }

	cases := []struct {
		name   string
		deploy func(t *testing.T, p *core.Platform, u *netstack.UserNet) (directAddr string, done func())
		req    []byte
		window int
		dec    func() grammar.StreamDecoder
		ok     func(value.Value) bool
	}{
		{"memcachedproxy", deployMemcachedForAlloc(false), mcReq, 1, memcache.Codec.NewDecoder, mcOK},
		{"memcachedproxy-pipelined-deferred", deployMemcachedPipelinedForAlloc, allocPipelinedGets(t), len(allocPipelinedKeys), memcache.Codec.NewDecoder, mcOK},
		{"memcachedproxy-cache-hit", deployMemcachedForAlloc(true), mcReq, 1, memcache.Codec.NewDecoder, mcOK},
		{"httplb", deployHTTPLBForAlloc, httpReq, 1, phttp.ResponseFormat{}.NewDecoder, httpOK},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			u := netstack.NewUserNet()
			p := core.NewPlatform(core.Config{Workers: 2, Transport: u})
			defer p.Close()
			directAddr, done := tc.deploy(t, p, u)
			defer done()

			direct := newAllocClient(t, u, directAddr, tc.req, tc.window, tc.dec(), tc.ok)
			defer direct.conn.Close()
			proxied := newAllocClient(t, u, "proxy:1", tc.req, tc.window, tc.dec(), tc.ok)
			defer proxied.conn.Close()

			share := proxyAllocsPerReq(t, proxied, direct)
			if share > maxProxyAllocsPerReq {
				t.Fatalf("proxy allocates %.2f/request, want <= %.2f", share, maxProxyAllocsPerReq)
			}
			// A pipelined client's first delivery over two backends leaves
			// its responses to the round end: the pin must cover that path.
			if st := p.Scheduler().Stats(); tc.window > 1 && st.Deferred == 0 {
				t.Fatalf("no activation deferred its flush (sched: %v)", st.Metrics())
			}
		})
	}
}

// allocPipelinedKeys are the keys of the pipelined arm's batch, one GET
// each; over two backends, both get some.
var allocPipelinedKeys = []string{"alloc-key-0", "alloc-key-1", "alloc-key-2", "alloc-key-3",
	"alloc-key-4", "alloc-key-5", "alloc-key-6", "alloc-key-7"}

// allocPipelinedGets is the wire image of the pipelined arm's batch.
func allocPipelinedGets(t *testing.T) []byte {
	t.Helper()
	var b []byte
	for _, k := range allocPipelinedKeys {
		var err error
		if b, err = memcache.Codec.Encode(b, memcache.Request(memcache.OpGet, []byte(k), nil)); err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// deployMemcachedPipelinedForAlloc deploys the memcached proxy over two
// backends that both hold every key of the pipelined batch; the direct side
// dials the first, which answers the whole batch itself.
func deployMemcachedPipelinedForAlloc(t *testing.T, p *core.Platform, u *netstack.UserNet) (string, func()) {
	kv := map[string]string{}
	for _, k := range allocPipelinedKeys {
		kv[k] = allocValue
	}
	var addrs []string
	var servers []*backend.MemcachedServer
	for i := 0; i < 2; i++ {
		s, err := backend.NewMemcachedServer(u, fmt.Sprintf("shard:%d", i))
		if err != nil {
			t.Fatal(err)
		}
		s.Preload(kv)
		servers = append(servers, s)
		addrs = append(addrs, s.Addr())
	}
	mp, err := MemcachedProxy(2)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := mp.Deploy(p, "proxy:1", addrs)
	if err != nil {
		t.Fatal(err)
	}
	return addrs[0], func() {
		svc.Close()
		for _, s := range servers {
			s.Close()
		}
	}
}

// deployMemcachedForAlloc deploys the memcached proxy over one backend
// preloaded with the gate's key and returns the address the direct side
// dials. Uncached, that is the backend itself, whose own work then cancels
// out. Cached, every measured proxied request is a hit that never reaches
// the backend, so the direct side dials a canned responder instead: it
// replays the backend's reply without allocating, leaving the client's own
// work as the baseline.
func deployMemcachedForAlloc(cached bool) func(*testing.T, *core.Platform, *netstack.UserNet) (string, func()) {
	return func(t *testing.T, p *core.Platform, u *netstack.UserNet) (string, func()) {
		s, err := backend.NewMemcachedServer(u, "shard:0")
		if err != nil {
			t.Fatal(err)
		}
		s.Preload(map[string]string{allocKey: allocValue})
		mp, err := MemcachedProxy(1)
		if err != nil {
			t.Fatal(err)
		}
		mp.Cache.Enable = cached
		mp.Cache.TTL = time.Hour
		svc, err := mp.Deploy(p, "proxy:1", []string{s.Addr()})
		if err != nil {
			t.Fatal(err)
		}
		if !cached {
			return s.Addr(), func() { svc.Close(); s.Close() }
		}
		req := memcache.Request(memcache.OpGet, []byte(allocKey), nil)
		resp, err := memcache.Codec.Encode(nil, memcache.Response(req, memcache.StatusOK, []byte(allocKey), []byte(allocValue)))
		if err != nil {
			t.Fatal(err)
		}
		stop := serveCanned(t, u, "canned:0", len(allocGet(t)), resp)
		return "canned:0", func() { stop(); svc.Close(); s.Close() }
	}
}

// serveCanned answers every reqLen-byte request on addr with resp, without
// allocating per request. The returned func stops it once every connection
// its clients opened has closed.
func serveCanned(t *testing.T, u *netstack.UserNet, addr string, reqLen int, resp []byte) (stop func()) {
	l, err := u.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			wg.Add(1)
			go func() {
				defer wg.Done()
				defer c.Close()
				buf := make([]byte, reqLen)
				for {
					if _, err := io.ReadFull(c, buf); err != nil {
						return
					}
					if _, err := c.Write(resp); err != nil {
						return
					}
				}
			}()
		}
	}()
	return func() { l.Close(); wg.Wait() }
}

// deployHTTPLBForAlloc deploys the HTTP load balancer over one origin,
// which the direct side dials too.
func deployHTTPLBForAlloc(t *testing.T, p *core.Platform, u *netstack.UserNet) (string, func()) {
	s, err := backend.NewHTTPServer(u, "origin:0", 137)
	if err != nil {
		t.Fatal(err)
	}
	lb, err := HTTPLoadBalancer(1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := lb.Deploy(p, "proxy:1", []string{s.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	return s.Addr(), func() { svc.Close(); s.Close() }
}
