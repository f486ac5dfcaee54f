package apps

import (
	"bytes"
	"fmt"
	"runtime"
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

// httpClient is a minimal keep-alive HTTP client for cache e2e tests.
type httpClient struct {
	conn interface {
		Read([]byte) (int, error)
		Write([]byte) (int, error)
		Close() error
	}
	q    *buffer.Queue
	dec  grammar.StreamDecoder
	rbuf []byte
	wbuf []byte
}

func newHTTPClient(t *testing.T, u *netstack.UserNet, addr string) *httpClient {
	t.Helper()
	conn, err := u.Dial(addr)
	if err != nil {
		t.Fatal(err)
	}
	return &httpClient{
		conn: conn,
		q:    buffer.NewQueue(nil),
		dec:  phttp.ResponseFormat{}.NewDecoder(),
		rbuf: make([]byte, 16<<10),
	}
}

func (c *httpClient) close() { c.conn.Close() }

// roundTrip issues one request and returns the response status and a copy
// of its body.
func (c *httpClient) roundTrip(t *testing.T, method, uri string) (int, []byte) {
	t.Helper()
	c.wbuf = phttp.BuildRequest(c.wbuf[:0], method, uri, "cachetest", true, nil)
	if _, err := c.conn.Write(c.wbuf); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for time.Now().Before(deadline) {
		msg, ok, derr := c.dec.Decode(c.q)
		if derr != nil {
			t.Fatal(derr)
		}
		if ok {
			status := int(msg.Field("status").AsInt())
			body := append([]byte(nil), msg.Field("body").AsBytes()...)
			msg.Release()
			return status, body
		}
		n, rerr := c.conn.Read(c.rbuf)
		if n > 0 {
			c.q.Append(c.rbuf[:n])
			continue
		}
		if rerr != nil {
			t.Fatal(rerr)
		}
	}
	t.Fatal("response timeout")
	return 0, nil
}

// TestHTTPLBCacheServesHits drives the FIFO (request-correlated) cache
// path end to end: repeated GETs on a cached load balancer are served
// without upstream round trips, byte-identical to the first response, and
// a write method on the same URI invalidates the entry.
func TestHTTPLBCacheServesHits(t *testing.T) {
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 2, Transport: u})
	defer p.Close()

	servers := make([]*backend.HTTPServer, 2)
	addrs := make([]string, 2)
	for i := range servers {
		s, err := backend.NewHTTPServer(u, listenName("origin", i), 64)
		if err != nil {
			t.Fatal(err)
		}
		defer s.Close()
		servers[i] = s
		addrs[i] = s.Addr()
	}
	backendReqs := func() uint64 {
		var n uint64
		for _, s := range servers {
			n += s.Requests()
		}
		return n
	}

	lb, err := HTTPLoadBalancer(2)
	if err != nil {
		t.Fatal(err)
	}
	lb.Cache.Enable = true
	svc, err := lb.Deploy(p, "lb:80", addrs)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	cc := svc.ResponseCache()
	if cc == nil {
		t.Fatal("cache enabled but not deployed")
	}

	c := newHTTPClient(t, u, "lb:80")
	defer c.close()

	status, first := c.roundTrip(t, "GET", "/hot.html")
	if status != 200 || len(first) != 64 {
		t.Fatalf("first GET: status %d, body %d bytes", status, len(first))
	}
	// The runtime forwards a response to the client before the fill
	// installs it, so the entry may land a moment after the first reply.
	for deadline := time.Now().Add(2 * time.Second); cc.Len() == 0; {
		if time.Now().After(deadline) {
			t.Fatal("first response was never installed")
		}
		runtime.Gosched()
	}
	afterFill := backendReqs()

	for i := 0; i < 10; i++ {
		status, body := c.roundTrip(t, "GET", "/hot.html")
		if status != 200 || !bytes.Equal(body, first) {
			t.Fatalf("hit %d: status %d, body differs from first response", i, status)
		}
	}
	if got := backendReqs(); got != afterFill {
		t.Fatalf("backends saw %d requests during hits, want %d (all served from cache)", got, afterFill)
	}
	if cs := cc.Counters(); !counterAtLeast(cs, "hits", 10) {
		t.Fatalf("cache counters after hits: %s", cs)
	}

	// A write method on the URI must invalidate the entry: the next GET
	// goes upstream again.
	if status, _ := c.roundTrip(t, "POST", "/hot.html"); status != 200 {
		t.Fatalf("POST status %d", status)
	}
	afterPost := backendReqs()
	if afterPost != afterFill+1 {
		t.Fatalf("POST should reach the backend (%d vs %d)", afterPost, afterFill)
	}
	if status, body := c.roundTrip(t, "GET", "/hot.html"); status != 200 || !bytes.Equal(body, first) {
		t.Fatalf("post-invalidation GET: status %d", status)
	}
	if got := backendReqs(); got != afterPost+1 {
		t.Fatalf("post-invalidation GET should refill upstream (%d vs %d)", got, afterPost)
	}
	if cs := cc.Counters(); !counterAtLeast(cs, "invalidations", 1) {
		t.Fatalf("cache counters after invalidation: %s", cs)
	}
}

// TestMemcachedProxyCacheInvalidateOnSet pins write-through invalidation
// on the opaque-correlated path: a SET through the cached proxy must drop
// the entry so the next GET observes the new value, not the cached one.
func TestMemcachedProxyCacheInvalidateOnSet(t *testing.T) {
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 2, Transport: u})
	defer p.Close()

	s, err := backend.NewMemcachedServer(u, "shard:0")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.Preload(map[string]string{"k": "old-value"})

	mp, err := MemcachedProxy(1)
	if err != nil {
		t.Fatal(err)
	}
	mp.Cache.Enable = true
	svc, err := mp.Deploy(p, "proxy:11211", []string{s.Addr()})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	raw, err := u.Dial("proxy:11211")
	if err != nil {
		t.Fatal(err)
	}
	mc := memcache.NewConn(raw)
	defer mc.Close()

	get := func(opaque int64) string {
		req := memcache.Request(memcache.OpGet, []byte("k"), nil)
		req.SetField("opaque", value.Int(opaque))
		resp, rerr := mc.RoundTrip(req)
		if rerr != nil {
			t.Fatal(rerr)
		}
		defer resp.Release()
		if memcache.Status(resp) != memcache.StatusOK {
			t.Fatalf("GET status %d", memcache.Status(resp))
		}
		if got := resp.Field("opaque").AsInt(); got != opaque {
			t.Fatalf("response opaque %d, want %d", got, opaque)
		}
		return string(resp.Field("value").AsBytes())
	}

	if v := get(1); v != "old-value" {
		t.Fatalf("first GET = %q", v)
	}
	// The runtime forwards a response to the client before the fill
	// installs it, so the entry may land a moment after the first reply.
	cc := svc.ResponseCache()
	for deadline := time.Now().Add(2 * time.Second); !counterAtLeast(cc.Counters(), "fills", 1); {
		if time.Now().After(deadline) {
			t.Fatalf("first response was never installed: %s", cc.Counters())
		}
		runtime.Gosched()
	}
	before := s.Requests()
	if v := get(2); v != "old-value" {
		t.Fatalf("cached GET = %q", v)
	}
	if got := s.Requests(); got != before {
		t.Fatalf("cached GET reached the backend (%d vs %d)", got, before)
	}

	resp, err := mc.RoundTrip(memcache.Request(memcache.OpSet, []byte("k"), []byte("new-value")))
	if err != nil {
		t.Fatal(err)
	}
	if memcache.Status(resp) != memcache.StatusOK {
		t.Fatalf("SET status %d", memcache.Status(resp))
	}
	resp.Release()

	if v := get(3); v != "new-value" {
		t.Fatalf("post-SET GET = %q, stale entry served", v)
	}
}

// counterAtLeast reports whether the named counter is >= n.
func counterAtLeast(cs interface {
	Get(string) (uint64, bool)
}, name string, n uint64) bool {
	v, ok := cs.Get(name)
	return ok && v >= n
}

// listenName renders a deterministic user-net listen address.
func listenName(prefix string, i int) string {
	return fmt.Sprintf("%s:%d", prefix, i)
}
