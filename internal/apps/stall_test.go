package apps

import (
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"flick/internal/backend"
	"flick/internal/core"
	"flick/internal/netstack"
	"flick/internal/proto/memcache"
)

// stalledProxy is a MemcachedProxy(2) on UserNet whose backend 0 reads
// every request and answers none, while backend 1 answers normally.
type stalledProxy struct {
	u       *netstack.UserNet
	svc     *core.Service
	stalled string // backend 0's address
	healthy []byte // a key that routes to backend 1
	stuck   []byte // a key that routes to backend 0
}

// startStalledProxy deploys the proxy with one upstream socket per backend
// and worker, so the clients of a worker share one socket to backend 0.
// Cleanup closes the stalled backend first, then waits for the instances
// to drain what they hold before it stops the platform, which abandons
// queued tasks.
func startStalledProxy(t *testing.T, workers int) *stalledProxy {
	t.Helper()
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: workers, Transport: u})
	sp := &stalledProxy{u: u, stalled: "stall:0"}
	for i := 0; sp.healthy == nil || sp.stuck == nil; i++ {
		key := []byte(fmt.Sprintf("stall-key-%d", i))
		if backend.KeyHash(key)%2 == 0 {
			sp.stuck = key
		} else {
			sp.healthy = key
		}
	}
	l, err := u.Listen(sp.stalled)
	if err != nil {
		t.Fatal(err)
	}
	var mu sync.Mutex
	var conns []net.Conn
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			mu.Lock()
			conns = append(conns, c)
			mu.Unlock()
			go io.Copy(io.Discard, c)
		}
	}()
	srv, err := backend.NewMemcachedServer(u, "stall:1")
	if err != nil {
		t.Fatal(err)
	}
	srv.Preload(map[string]string{string(sp.healthy): "fresh"})
	mp, err := MemcachedProxy(2)
	if err != nil {
		t.Fatal(err)
	}
	mp.Upstream.PoolSize = 1
	if sp.svc, err = mp.Deploy(p, "proxy:stall", []string{sp.stalled, srv.Addr()}); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		l.Close()
		mu.Lock()
		for _, c := range conns {
			c.Close()
		}
		mu.Unlock()
		srv.Close()
		for deadline := time.Now().Add(5 * time.Second); len(sp.svc.DumpLive()) > 0; time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Errorf("instances still live after their clients closed:\n%s", sp.svc.DumpLive())
				break
			}
		}
		p.Close()
	})
	return sp
}

// pipelineStuck dials a client that pipelines n GETs for the stuck key
// and never reads; the client closes when the test ends.
func (sp *stalledProxy) pipelineStuck(t *testing.T, n int) {
	t.Helper()
	c, err := sp.u.Dial("proxy:stall")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	one, err := memcache.Codec.Encode(nil, memcache.Request(memcache.OpGet, sp.stuck, nil))
	if err != nil {
		t.Fatal(err)
	}
	var wire []byte
	for i := 0; i < n; i++ {
		wire = append(wire, one...)
	}
	if _, err := c.Write(wire); err != nil {
		t.Fatal(err)
	}
}

// awaitFullWindow waits until the stalled backend holds a whole upstream
// window of unanswered requests.
func (sp *stalledProxy) awaitFullWindow(t *testing.T) {
	t.Helper()
	const window = 128 // upstream.Config.Window's default
	deadline := time.Now().Add(5 * time.Second)
	for sp.svc.Upstreams().InflightFor(sp.stalled) < window {
		if time.Now().After(deadline) {
			t.Fatalf("stalled backend holds %d requests, want a full window of %d",
				sp.svc.Upstreams().InflightFor(sp.stalled), window)
		}
		time.Sleep(time.Millisecond)
	}
	time.Sleep(20 * time.Millisecond) // let the writers meet the full window
}

// TestStalledBackendDoesNotFreezeWorker: two clients pipeline more GETs
// than the upstream window holds to a backend that never answers. A fresh
// client's GET to the healthy backend is still answered at once, with one
// worker and with two: a full window parks the writing task, not the
// worker. The stalled backend still holds at most one window per socket.
func TestStalledBackendDoesNotFreezeWorker(t *testing.T) {
	for _, workers := range []int{1, 2} {
		t.Run(fmt.Sprintf("workers=%d", workers), func(t *testing.T) {
			sp := startStalledProxy(t, workers)
			sp.pipelineStuck(t, 300)
			sp.pipelineStuck(t, 300)
			sp.awaitFullWindow(t)
			start := time.Now()
			resp, err := getkWithin(sp.u, "proxy:stall", sp.healthy, time.Second)
			if err != nil {
				t.Fatalf("healthy-backend GET not answered within 1s of a stalled backend's full window: %v", err)
			}
			if len(resp) < 24 || resp[7] != 0 {
				t.Fatalf("healthy-backend GET answered %q, want a hit", resp)
			}
			t.Logf("answered in %v", time.Since(start))
			if in, max := sp.svc.Upstreams().InflightFor(sp.stalled), int64(128*workers); in > max {
				t.Fatalf("stalled backend holds %d requests over %d sockets, want at most a window each (%d)", in, workers, max)
			}
		})
	}
}

// TestServiceCloseWithFullUpstreamWindow: Service.Close returns while one
// shared upstream socket's window is full and a second session on the
// same socket has requests staged behind it.
func TestServiceCloseWithFullUpstreamWindow(t *testing.T) {
	sp := startStalledProxy(t, 1)
	sp.pipelineStuck(t, 200)
	sp.pipelineStuck(t, 200)
	sp.awaitFullWindow(t)
	closed := make(chan struct{})
	go func() {
		sp.svc.Close()
		close(closed)
	}()
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatalf("Service.Close did not return with a full upstream window:\n%s", sp.svc.DumpLive())
	}
}
