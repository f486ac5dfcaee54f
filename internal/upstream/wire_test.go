// Golden-wire tests: the shared upstream layer driven by the REAL protocol
// framers (internal/proto/http, internal/proto/memcache) against scripted
// backends, pinning the request-aware demultiplexing end to end — HEAD on a
// shared socket, bodiless 304s, 100-continue interims, chunked bodies split
// across reads, quiet-get batches, and the loud failure for close-delimited
// responses. The in-package tests keep using a synthetic frame protocol;
// these use the real codecs (an external package avoids the import cycle:
// upstream cannot import the protocols it frames).
package upstream_test

import (
	"bytes"
	"io"
	"net"
	"testing"
	"time"

	"flick/internal/backend"
	"flick/internal/buffer"
	"flick/internal/netstack"
	phttp "flick/internal/proto/http"
	"flick/internal/proto/memcache"
	"flick/internal/upstream"
	"flick/internal/value"
)

func httpManager(u *netstack.UserNet) *upstream.Manager {
	return upstream.NewManager(upstream.Config{
		Transport:      u,
		Size:           1, // every session shares ONE socket: desync is loud
		RequestFramer:  phttp.FrameRequestLen,
		ResponseFramer: phttp.FrameResponseLen,
		Backoff:        20 * time.Millisecond,
	})
}

// scriptedBackend accepts one connection on addr and hands it over raw.
func scriptedBackend(t *testing.T, u *netstack.UserNet, addr string) (net.Listener, chan net.Conn) {
	t.Helper()
	l, err := u.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan net.Conn, 2)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conns <- c
		}
	}()
	return l, conns
}

// readRequests reads from the backend side until count header terminators
// (\r\n\r\n) have arrived, returning everything read.
func readRequests(t *testing.T, c net.Conn, count int) []byte {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	var got []byte
	buf := make([]byte, 4096)
	for bytes.Count(got, []byte("\r\n\r\n")) < count {
		n, err := c.Read(buf)
		if n > 0 {
			got = append(got, buf[:n]...)
		}
		if err != nil {
			t.Fatalf("backend read: %v (got %q)", err, got)
		}
	}
	return got
}

// readExactly reads len(want) bytes from the session and compares them to
// the scripted wire.
func readExactly(t *testing.T, s *upstream.Session, want []byte, what string) {
	t.Helper()
	r := upstream.NewReader(t, s)
	for r.Q.Len() < len(want) {
		if err := r.Wait(2 * time.Second); err != nil {
			t.Fatalf("%s: read: %v", what, err)
		}
	}
	got := make([]byte, len(want))
	r.Q.Peek(got)
	r.Q.Discard(len(want))
	if !bytes.Equal(got, want) {
		t.Fatalf("%s:\n got %q\nwant %q", what, got, want)
	}
}

// TestWireHEADSharesSocket is the tentpole's golden test: a HEAD and a GET
// from different sessions multiplex onto one backend socket, the HEAD
// response advertises the entity's Content-Length without sending it, and
// both sessions still receive exactly their own response — no desync, no
// five stolen bytes.
func TestWireHEADSharesSocket(t *testing.T) {
	u := netstack.NewUserNet()
	l, conns := scriptedBackend(t, u, "be:head")
	defer l.Close()
	m := httpManager(u)
	defer m.Close()

	a, err := m.Lease("be:head")
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	b, err := m.Lease("be:head")
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()

	if _, err := a.Write([]byte("HEAD /obj HTTP/1.1\r\nHost: h\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := b.Write([]byte("GET /obj HTTP/1.1\r\nHost: h\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	be := <-conns
	defer be.Close()
	readRequests(t, be, 2)

	headResp := []byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n")
	getResp := []byte("HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello")
	if _, err := be.Write(append(append([]byte{}, headResp...), getResp...)); err != nil {
		t.Fatal(err)
	}
	readExactly(t, a, headResp, "HEAD response")
	readExactly(t, b, getResp, "GET response")
}

// TestWire304WithContentLength: a 304 echoing the validated entity's
// Content-Length is bodiless by rule; the next response on the socket must
// not be misread as its body.
func TestWire304WithContentLength(t *testing.T) {
	u := netstack.NewUserNet()
	l, conns := scriptedBackend(t, u, "be:304")
	defer l.Close()
	m := httpManager(u)
	defer m.Close()

	s, err := m.Lease("be:304")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s2, err := m.Lease("be:304")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()

	if _, err := s.Write([]byte("GET /cached HTTP/1.1\r\nHost: h\r\nIf-None-Match: \"v1\"\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	if _, err := s2.Write([]byte("GET /fresh HTTP/1.1\r\nHost: h\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	be := <-conns
	defer be.Close()
	readRequests(t, be, 2)

	notModified := []byte("HTTP/1.1 304 Not Modified\r\nContent-Length: 1234\r\nETag: \"v1\"\r\n\r\n")
	fresh := []byte("HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok")
	if _, err := be.Write(append(append([]byte{}, notModified...), fresh...)); err != nil {
		t.Fatal(err)
	}
	readExactly(t, s, notModified, "304 response")
	readExactly(t, s2, fresh, "follow-up response")
}

// TestWireInterimContinue: a 100 Continue interim and the final response
// deliver to the requesting session as one view, in order.
func TestWireInterimContinue(t *testing.T) {
	u := netstack.NewUserNet()
	l, conns := scriptedBackend(t, u, "be:continue")
	defer l.Close()
	m := httpManager(u)
	defer m.Close()

	s, err := m.Lease("be:continue")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Write([]byte("POST /up HTTP/1.1\r\nHost: h\r\nExpect: 100-continue\r\nContent-Length: 4\r\n\r\ndata")); err != nil {
		t.Fatal(err)
	}
	be := <-conns
	defer be.Close()
	readRequests(t, be, 1)

	wire := []byte("HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 7\r\n\r\ncreated")
	if _, err := be.Write(wire); err != nil {
		t.Fatal(err)
	}
	readExactly(t, s, wire, "interim+final")
}

// TestWireChunkedSplitAcrossReads: a chunked response trickling in across
// many raw socket writes still frames and delivers as one complete view.
func TestWireChunkedSplitAcrossReads(t *testing.T) {
	u := netstack.NewUserNet()
	l, conns := scriptedBackend(t, u, "be:chunk")
	defer l.Close()
	m := httpManager(u)
	defer m.Close()

	s, err := m.Lease("be:chunk")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Write([]byte("GET /stream HTTP/1.1\r\nHost: h\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	be := <-conns
	defer be.Close()
	readRequests(t, be, 1)

	wire := []byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"6\r\nchunk1\r\n6\r\nchunk2\r\n0\r\n\r\n")
	for i := 0; i < len(wire); i += 7 {
		end := i + 7
		if end > len(wire) {
			end = len(wire)
		}
		if _, err := be.Write(wire[i:end]); err != nil {
			t.Fatal(err)
		}
		time.Sleep(time.Millisecond)
	}
	readExactly(t, s, wire, "chunked response")
}

// TestWireCloseDelimitedFailsLoudly: a response framed only by connection
// close cannot be length-delimited on a shared socket; the layer must fail
// the socket (EOF) rather than deliver a truncated or unbounded view.
func TestWireCloseDelimitedFailsLoudly(t *testing.T) {
	u := netstack.NewUserNet()
	l, conns := scriptedBackend(t, u, "be:close")
	defer l.Close()
	m := httpManager(u)
	defer m.Close()

	s, err := m.Lease("be:close")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Write([]byte("GET /legacy HTTP/1.1\r\nHost: h\r\n\r\n")); err != nil {
		t.Fatal(err)
	}
	be := <-conns
	defer be.Close()
	readRequests(t, be, 1)
	if _, err := be.Write([]byte("HTTP/1.1 200 OK\r\nConnection: close\r\n\r\npartial body")); err != nil {
		t.Fatal(err)
	}
	if err := upstream.NewReader(t, s).Wait(2 * time.Second); err != io.EOF {
		t.Fatalf("read of close-delimited response = %v, want EOF", err)
	}
}

// TestWireQuietGetBatch: the moxi-style quiet-get pipeline against a real
// memcached backend — GetQ (hit), GetQ (miss), Noop write as one FIFO unit,
// and the hit plus the Noop response come back as one delivered view while
// a neighbouring session's Get still correlates.
func TestWireQuietGetBatch(t *testing.T) {
	u := netstack.NewUserNet()
	pool := buffer.NewPool(64)
	be, err := backend.NewMemcachedServer(u, "be:mc")
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()
	be.Preload(map[string]string{"hit": "quiet-value", "loud": "loud-value"})

	m := upstream.NewManager(upstream.Config{
		Transport:      u,
		Pool:           pool,
		Size:           1,
		RequestFramer:  memcache.FrameRequestLen,
		ResponseFramer: memcache.FrameResponseLen,
		Backoff:        20 * time.Millisecond,
	})
	defer m.Close()

	s, err := m.Lease("be:mc")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	neighbour, err := m.Lease("be:mc")
	if err != nil {
		t.Fatal(err)
	}
	defer neighbour.Close()

	enc := func(op byte, key string, opaque uint32) []byte {
		wire, err := memcache.Codec.Encode(nil, memcache.Request(op, []byte(key), nil))
		if err != nil {
			t.Fatal(err)
		}
		wire[12], wire[13], wire[14], wire[15] =
			byte(opaque>>24), byte(opaque>>16), byte(opaque>>8), byte(opaque)
		return wire
	}
	var batch []byte
	batch = append(batch, enc(memcache.OpGetQ, "hit", 1)...)
	batch = append(batch, enc(memcache.OpGetQ, "missing", 2)...)
	batch = append(batch, enc(memcache.OpNoop, "", 9)...)
	if _, err := s.Write(batch); err != nil {
		t.Fatal(err)
	}
	if _, err := neighbour.Write(enc(memcache.OpGet, "loud", 3)); err != nil {
		t.Fatal(err)
	}

	// The batch delivers as one view: the hit's response then the Noop's.
	readMsgs := func(sess *upstream.Session, want int) []value.Value {
		t.Helper()
		r := upstream.NewReader(t, sess)
		dec := memcache.Codec.NewDecoder()
		var msgs []value.Value
		for len(msgs) < want {
			if msg, ok, err := dec.Decode(r.Q); err != nil {
				t.Fatalf("decode: %v", err)
			} else if ok {
				msgs = append(msgs, msg)
				continue
			}
			if err := r.Wait(2 * time.Second); err != nil {
				t.Fatalf("session read: %v", err)
			}
		}
		return msgs
	}
	msgs := readMsgs(s, 2)
	if op := msgs[0].Field("opcode").AsInt(); op != memcache.OpGetQ {
		t.Fatalf("first batch response opcode = %#x, want GetQ", op)
	}
	if v := msgs[0].Field("value").AsString(); v != "quiet-value" {
		t.Fatalf("quiet hit value = %q", v)
	}
	if op := msgs[1].Field("opcode").AsInt(); op != memcache.OpNoop {
		t.Fatalf("terminator response opcode = %#x, want Noop", op)
	}
	if opq := msgs[1].Field("opaque").AsInt(); opq != 9 {
		t.Fatalf("terminator opaque = %d, want 9", opq)
	}
	nmsgs := readMsgs(neighbour, 1)
	if v := nmsgs[0].Field("value").AsString(); v != "loud-value" {
		t.Fatalf("neighbour value = %q (FIFO skew past the batch?)", v)
	}
	memcache.ReleaseAll(msgs...)
	memcache.ReleaseAll(nmsgs...)
}
