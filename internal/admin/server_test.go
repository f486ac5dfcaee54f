package admin

import (
	"bufio"
	"errors"
	"io"
	"net"
	"net/http"
	"strconv"
	"strings"
	"testing"
	"time"

	"flick/internal/buffer"
	"flick/internal/topology"
)

// Raw-socket conformance tests: the admin server's HTTP/1.1 connection
// handling, checked byte-level where net/http's client would hide it.

func dialRaw(t *testing.T, srv *testSrv) (net.Conn, *bufio.Reader) {
	t.Helper()
	c, err := net.Dial("tcp", srv.Addr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { c.Close() })
	c.SetDeadline(time.Now().Add(10 * time.Second))
	return c, bufio.NewReader(c)
}

func write(t *testing.T, c net.Conn, s string) {
	t.Helper()
	if _, err := io.WriteString(c, s); err != nil {
		t.Fatal(err)
	}
}

// readResp reads one response to a request of the given method.
func readResp(t *testing.T, br *bufio.Reader, method string) (*http.Response, string) {
	t.Helper()
	resp, err := http.ReadResponse(br, &http.Request{Method: method})
	if err != nil {
		t.Fatal(err)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return resp, string(body)
}

// expectClosed asserts the server closes the connection (after any bytes
// still owed, which must be none).
func expectClosed(t *testing.T, br *bufio.Reader) {
	t.Helper()
	if b, err := br.ReadByte(); err == nil {
		t.Fatalf("connection still open: read %q", b)
	} else if !errors.Is(err, io.EOF) && !errors.Is(err, net.ErrClosed) && !strings.Contains(err.Error(), "reset") {
		t.Fatalf("connection not closed by the server: %v", err)
	}
}

func TestKeepAliveServesSeveralGets(t *testing.T) {
	srv, _ := testServer(t)
	c, br := dialRaw(t, srv)
	for i := 0; i < 3; i++ {
		write(t, c, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
		resp, body := readResp(t, br, "GET")
		if resp.StatusCode != 200 || body != "ok\n" || resp.Close {
			t.Fatalf("GET %d on one connection = %d %q close=%v", i, resp.StatusCode, body, resp.Close)
		}
		if ct := resp.Header.Get("Content-Type"); ct != "text/plain; charset=utf-8" {
			t.Fatalf("Content-Type = %q", ct)
		}
		if resp.ContentLength != 3 {
			t.Fatalf("Content-Length = %d, want 3", resp.ContentLength)
		}
	}
}

func TestPipelinedRequestsAnsweredInOrder(t *testing.T) {
	srv, _ := testServer(t)
	c, br := dialRaw(t, srv)
	write(t, c, "GET /counters HTTP/1.1\r\nHost: x\r\n\r\nGET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
	if resp, body := readResp(t, br, "GET"); resp.StatusCode != 200 || !strings.HasPrefix(body, `{"upstream"`) {
		t.Fatalf("first pipelined answer = %d %q, want /counters", resp.StatusCode, body)
	}
	if resp, body := readResp(t, br, "GET"); resp.StatusCode != 200 || body != "ok\n" {
		t.Fatalf("second pipelined answer = %d %q, want /healthz", resp.StatusCode, body)
	}
}

func TestConnectionCloseAndHTTP10Close(t *testing.T) {
	srv, _ := testServer(t)
	for _, req := range []string{
		"GET /healthz HTTP/1.1\r\nHost: x\r\nConnection: close\r\n\r\n",
		"GET /healthz HTTP/1.0\r\n\r\n",
	} {
		c, br := dialRaw(t, srv)
		write(t, c, req)
		resp, body := readResp(t, br, "GET")
		if resp.StatusCode != 200 || body != "ok\n" || !resp.Close {
			t.Fatalf("%q = %d %q close=%v", req, resp.StatusCode, body, resp.Close)
		}
		expectClosed(t, br)
	}
}

func TestUnknownPathIs404JSON(t *testing.T) {
	srv, _ := testServer(t)
	c, br := dialRaw(t, srv)
	write(t, c, "GET /nope?x=1 HTTP/1.1\r\nHost: x\r\n\r\n")
	resp, body := readResp(t, br, "GET")
	if resp.StatusCode != 404 || body != `{"error":"not found"}`+"\n" || resp.Header.Get("Content-Type") != "application/json" {
		t.Fatalf("unknown path = %d %q %q", resp.StatusCode, resp.Header.Get("Content-Type"), body)
	}
}

func TestHeadHealthzIs405(t *testing.T) {
	srv, _ := testServer(t)
	c, br := dialRaw(t, srv)
	write(t, c, "HEAD /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
	resp, body := readResp(t, br, "HEAD")
	if resp.StatusCode != 405 || resp.Header.Get("Allow") != "GET" || body != "" {
		t.Fatalf("HEAD /healthz = %d Allow=%q body=%q", resp.StatusCode, resp.Header.Get("Allow"), body)
	}
	// No body bytes followed the head: the connection is in sync.
	write(t, c, "POST /topology HTTP/1.1\r\nHost: x\r\nContent-Length: 0\r\n\r\n")
	if resp, _ := readResp(t, br, "POST"); resp.StatusCode != 405 || resp.Header.Get("Allow") != "GET, PUT" {
		t.Fatalf("POST /topology = %d Allow=%q", resp.StatusCode, resp.Header.Get("Allow"))
	}
}

func TestPutOver1MiBIs413(t *testing.T) {
	srv, ctl := testServer(t)
	c, br := dialRaw(t, srv)
	body := strings.Repeat(" ", maxBody+1)
	go io.WriteString(c, "PUT /topology HTTP/1.1\r\nHost: x\r\nContent-Length: "+
		strconv.Itoa(len(body))+"\r\n\r\n"+body)
	resp, got := readResp(t, br, "PUT")
	if resp.StatusCode != 413 || got != `{"error":"topology body exceeds 1MiB"}`+"\n" {
		t.Fatalf("oversized PUT = %d %q", resp.StatusCode, got)
	}
	if len(ctl.list) != 2 {
		t.Fatalf("refused PUT changed the topology: %+v", ctl.list)
	}
}

func TestPutExpectContinue(t *testing.T) {
	srv, ctl := testServer(t)
	c, br := dialRaw(t, srv)
	body := `["a:1","b:1","c:1"]`
	write(t, c, "PUT /topology HTTP/1.1\r\nHost: x\r\nExpect: 100-continue\r\nContent-Length: "+
		strconv.Itoa(len(body))+"\r\n\r\n")
	if resp, _ := readResp(t, br, "PUT"); resp.StatusCode != 100 {
		t.Fatalf("interim answer = %d, want 100 Continue", resp.StatusCode)
	}
	write(t, c, body)
	if resp, got := readResp(t, br, "PUT"); resp.StatusCode != 200 || len(ctl.list) != 3 {
		t.Fatalf("PUT after 100 Continue = %d %q, applied %+v", resp.StatusCode, got, ctl.list)
	}
}

func TestOversizedHeaderIs431(t *testing.T) {
	srv, _ := testServer(t)
	c, br := dialRaw(t, srv)
	go io.WriteString(c, "GET /healthz HTTP/1.1\r\nX-Big: "+strings.Repeat("a", 70<<10)+"\r\n\r\n")
	resp, _ := readResp(t, br, "GET")
	if resp.StatusCode != 431 || !resp.Close {
		t.Fatalf("oversized header block = %d close=%v, want 431 and close", resp.StatusCode, resp.Close)
	}
	expectClosed(t, br)
}

func TestHalfSentHeaderDroppedAtDeadline(t *testing.T) {
	defer func(d time.Duration) { headerTimeout = d }(headerTimeout)
	headerTimeout = 100 * time.Millisecond
	srv, _ := testServer(t)
	c, br := dialRaw(t, srv)
	write(t, c, "GET /healthz HTTP/1.1\r\nHost: x\r\n")
	start := time.Now()
	expectClosed(t, br)
	if d := time.Since(start); d > 5*time.Second {
		t.Fatalf("half-sent header held the connection for %v", d)
	}
}

func TestCloseEndsIdleKeepAlive(t *testing.T) {
	srv, _ := testServer(t)
	c, br := dialRaw(t, srv)
	write(t, c, "GET /healthz HTTP/1.1\r\nHost: x\r\n\r\n")
	if resp, _ := readResp(t, br, "GET"); resp.StatusCode != 200 {
		t.Fatalf("GET /healthz = %d", resp.StatusCode)
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	expectClosed(t, br)
}

// TestScrapesLeaveGlobalPoolAlone pins that admin traffic never draws from
// buffer.Global, so scrapes stay out of the data plane's per-request pool
// figures.
func TestScrapesLeaveGlobalPoolAlone(t *testing.T) {
	srv, _ := testServer(t)
	before := buffer.Global.Stats()
	for i := 0; i < 100; i++ {
		path := []string{"/healthz", "/topology", "/counters", "/latency"}[i%4]
		if code, _ := get(t, srv.URL+path); code != 200 {
			t.Fatalf("GET %s = %d", path, code)
		}
	}
	after := buffer.Global.Stats()
	if after.Gets != before.Gets || after.RefGets != before.RefGets || after.RefPuts != before.RefPuts {
		t.Fatalf("admin GETs touched buffer.Global: before %+v, after %+v", before, after)
	}
}

// TestStartRefusesBusyAddress keeps Start's listen error naming the
// address.
func TestStartRefusesBusyAddress(t *testing.T) {
	srv, _ := testServer(t)
	if _, err := Start(srv.Addr(), &fakeController{list: topology.Uniform([]string{"a:1"})}); err == nil ||
		!strings.Contains(err.Error(), srv.Addr()) {
		t.Fatalf("Start on a busy address = %v", err)
	}
}

// TestConcurrentClientsThenClose drives the server from several kept-alive
// clients at once, then checks Close returns with every connection ended.
func TestConcurrentClientsThenClose(t *testing.T) {
	srv, _ := testServer(t)
	const clients = 8
	done := make(chan error, clients)
	conns := make([]*bufio.Reader, clients)
	for i := range conns {
		c, br := dialRaw(t, srv)
		conns[i] = br
		go func() {
			for j := 0; j < 20; j++ {
				if _, err := io.WriteString(c, "GET /counters HTTP/1.1\r\nHost: x\r\n\r\n"); err != nil {
					done <- err
					return
				}
				resp, err := http.ReadResponse(br, nil)
				if err != nil {
					done <- err
					return
				}
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					done <- errors.New(resp.Status)
					return
				}
			}
			done <- nil
		}()
	}
	for range conns {
		if err := <-done; err != nil {
			t.Fatal(err)
		}
	}
	if err := srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, br := range conns {
		expectClosed(t, br)
	}
}
