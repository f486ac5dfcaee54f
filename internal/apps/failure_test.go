package apps

import (
	"net"
	"testing"
	"time"

	"flick/internal/core"
	"flick/internal/netstack"
	phttp "flick/internal/proto/http"
	"flick/internal/proto/memcache"
)

// Failure injection: the platform must shed malformed traffic and broken
// peers without wedging, and keep serving well-formed clients afterwards
// (§4.2's "default behaviour when a message is incomplete or not in an
// expected form").

func TestWebServerSurvivesGarbageBytes(t *testing.T) {
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 2, Transport: u})
	defer p.Close()
	ws, err := StaticWebServer()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ws.Deploy(p, "web:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// Garbage: not HTTP at all. The service must drop the connection.
	bad, err := u.Dial("web:1")
	if err != nil {
		t.Fatal(err)
	}
	bad.Write([]byte("\x00\x01\x02 utter nonsense without any crlf"))
	bad.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 64)
	// Either EOF (dropped) or timeout is acceptable; a response is not.
	if n, err := bad.Read(buf); err == nil && n > 0 {
		t.Fatalf("service answered garbage with %q", buf[:n])
	}
	bad.Close()

	// A well-formed client right after must be served.
	good, err := u.Dial("web:1")
	if err != nil {
		t.Fatal(err)
	}
	defer good.Close()
	good.Write(phttp.BuildRequest(nil, "GET", "/", "h", false, nil))
	good.SetReadDeadline(time.Now().Add(5 * time.Second))
	if n, err := good.Read(buf); err != nil || n == 0 {
		t.Fatalf("healthy client starved after garbage: n=%d err=%v", n, err)
	}
}

func TestProxySurvivesTruncatedMemcachedFrame(t *testing.T) {
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 2, Transport: u})
	defer p.Close()

	var srv *net.Conn
	_ = srv
	l, _ := u.Listen("shard:0")
	defer l.Close()
	go func() {
		for {
			raw, err := l.Accept()
			if err != nil {
				return
			}
			go func(raw net.Conn) {
				c := memcache.NewConn(raw)
				defer c.Close()
				for {
					req, err := c.Receive()
					if err != nil {
						return
					}
					c.Send(memcache.Response(req, memcache.StatusOK, req.Field("key").AsBytes(), []byte("v")))
					req.Release()
				}
			}(raw)
		}
	}()

	mp, err := MemcachedProxy(1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := mp.Deploy(p, "proxy:1", []string{"shard:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	// A frame that claims a huge body then hangs up mid-message.
	half, err := u.Dial("proxy:1")
	if err != nil {
		t.Fatal(err)
	}
	wire, _ := memcache.Codec.Encode(nil, memcache.Request(memcache.OpGet, []byte("key"), nil))
	half.Write(wire[:len(wire)-2]) // truncated frame
	half.Close()

	// The proxy must still serve a complete client.
	raw, err := u.Dial("proxy:1")
	if err != nil {
		t.Fatal(err)
	}
	c := memcache.NewConn(raw)
	defer c.Close()
	resp, err := c.RoundTrip(memcache.Request(memcache.OpGet, []byte("after-truncation"), nil))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Release()
	if resp.Field("value").AsString() != "v" {
		t.Fatalf("value = %q", resp.Field("value").AsString())
	}
}

func TestProxySurvivesDeadBackend(t *testing.T) {
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 2, Transport: u})
	defer p.Close()

	// A backend that accepts and instantly hangs up.
	l, _ := u.Listen("dead:0")
	defer l.Close()
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			c.Close()
		}
	}()

	mp, err := MemcachedProxy(1)
	if err != nil {
		t.Fatal(err)
	}
	svc, err := mp.Deploy(p, "proxy:2", []string{"dead:0"})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	raw, err := u.Dial("proxy:2")
	if err != nil {
		t.Fatal(err)
	}
	defer raw.Close()
	c := memcache.NewConn(raw)
	// The request cannot be answered; the client must observe the failure
	// as a closed connection rather than a hang.
	c.Send(memcache.Request(memcache.OpGet, []byte("k"), nil))
	raw.SetReadDeadline(time.Now().Add(3 * time.Second))
	if _, err := c.Receive(); err == nil {
		t.Fatal("response produced by a dead backend")
	}
}

func TestServiceCloseAbortsInFlight(t *testing.T) {
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 2, Transport: u})
	defer p.Close()
	ws, err := StaticWebServer()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ws.Deploy(p, "web:close", nil)
	if err != nil {
		t.Fatal(err)
	}
	conn, err := u.Dial("web:close")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	svc.Close()
	// Dial after close must be refused.
	if _, err := u.Dial("web:close"); err == nil {
		t.Fatal("dial succeeded after service close")
	}
}

func TestManyConcurrentClientsStayIsolated(t *testing.T) {
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 4, Transport: u})
	defer p.Close()
	ws, err := StaticWebServer()
	if err != nil {
		t.Fatal(err)
	}
	svc, err := ws.Deploy(p, "web:iso", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	done := make(chan error, 32)
	for i := 0; i < 32; i++ {
		go func() {
			conn, err := u.Dial("web:iso")
			if err != nil {
				done <- err
				return
			}
			defer conn.Close()
			conn.Write(phttp.BuildRequest(nil, "GET", "/", "h", false, nil))
			conn.SetReadDeadline(time.Now().Add(5 * time.Second))
			buf := make([]byte, 1024)
			_, err = conn.Read(buf)
			done <- err
		}()
	}
	for i := 0; i < 32; i++ {
		if err := <-done; err != nil {
			t.Fatalf("client %d: %v", i, err)
		}
	}
}
