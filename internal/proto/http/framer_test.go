package http

import (
	"errors"
	"testing"

	"flick/internal/buffer"
)

func TestFrameRequestLenMatchesDecoder(t *testing.T) {
	q := buffer.NewQueue(nil)
	wire := BuildRequest(nil, "POST", "/submit", "example.com", true, []byte("payload-bytes"))
	half := len(wire) / 2
	q.Append(wire[:half])
	if n, _, err := FrameRequestLen(q, 0); n != 0 && n != len(wire) || err != nil {
		// A prefix may already reveal the full length once headers are
		// complete; it must never mis-frame or error.
		t.Fatalf("prefix framing: n=%d err=%v", n, err)
	}
	q.Append(wire[half:])
	q.Append(wire)
	n, ctx, err := FrameRequestLen(q, 0)
	if err != nil || n != len(wire) {
		t.Fatalf("FrameRequestLen = %d, %v; want %d", n, err, len(wire))
	}
	if ctx != 0 {
		t.Fatalf("POST carries demux context %#x; want 0", ctx)
	}
	if n2, _, err := FrameRequestLen(q, n); err != nil || n2 != len(wire) {
		t.Fatalf("FrameRequestLen at offset = %d, %v; want %d", n2, err, len(wire))
	}
	before := q.Len()
	msg, ok, derr := RequestFormat{}.NewDecoder().Decode(q)
	if derr != nil || !ok {
		t.Fatalf("decode: ok=%v err=%v", ok, derr)
	}
	if consumed := before - q.Len(); consumed != n {
		t.Fatalf("decoder consumed %d, framer said %d", consumed, n)
	}
	msg.Release()
}

func TestFrameResponseLen(t *testing.T) {
	q := buffer.NewQueue(nil)
	wire := BuildResponse(nil, 200, "OK", true, []byte("hello body"))
	q.Append(wire)
	n, err := FrameResponseLen(q, 0, 0)
	if err != nil || n != len(wire) {
		t.Fatalf("FrameResponseLen = %d, %v; want %d", n, err, len(wire))
	}
}

// TestHEADMultiplexes pins the tentpole fix: HEAD is accepted by the
// request framer, and the CtxHEAD context it captures makes the response
// framer stop at the header block even though the response advertises the
// entity's Content-Length — the body it describes is never sent.
func TestHEADMultiplexes(t *testing.T) {
	req := "HEAD /index.html HTTP/1.1\r\nHost: h\r\n\r\n"
	q := buffer.NewQueue(nil)
	q.Append([]byte(req))
	n, ctx, err := FrameRequestLen(q, 0)
	if err != nil || n != len(req) {
		t.Fatalf("FrameRequestLen(HEAD) = %d, %v; want %d", n, err, len(req))
	}
	if ctx&CtxHEAD == 0 {
		t.Fatalf("HEAD context = %#x; want CtxHEAD set", ctx)
	}

	resp := "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\n"
	rq := buffer.NewQueue(nil)
	rq.Append([]byte(resp))
	// Under the HEAD context the response is its header block alone...
	if n, err := FrameResponseLen(rq, 0, ctx); err != nil || n != len(resp) {
		t.Fatalf("HEAD response framed as %d, %v; want %d", n, err, len(resp))
	}
	// ...while the same bytes under a neutral context include the entity.
	if n, err := FrameResponseLen(rq, 0, 0); err != nil || n != len(resp)+5 {
		t.Fatalf("GET framing of same bytes = %d, %v; want %d", n, err, len(resp)+5)
	}
}

// TestFrameRequestLenRejectsConnect: after CONNECT's 2xx the stream stops
// being HTTP — it can never be multiplexed on a shared socket.
func TestFrameRequestLenRejectsConnect(t *testing.T) {
	q := buffer.NewQueue(nil)
	q.Append([]byte("CONNECT example.com:443 HTTP/1.1\r\nHost: h\r\n\r\n"))
	if _, _, err := FrameRequestLen(q, 0); err == nil {
		t.Fatal("CONNECT accepted by the request framer")
	}
}

// TestChunkedRequestFrames: a chunked request body frames once the zero
// chunk and trailer terminator are buffered, and stays staged (0) before.
func TestChunkedRequestFrames(t *testing.T) {
	head := "POST /up HTTP/1.1\r\nHost: h\r\nTransfer-Encoding: chunked\r\n\r\n"
	body := "5\r\nhello\r\n6\r\n world\r\n0\r\n\r\n"
	q := buffer.NewQueue(nil)
	q.Append([]byte(head))
	if n, _, err := FrameRequestLen(q, 0); n != 0 || err != nil {
		t.Fatalf("chunked request framed without its body: n=%d err=%v", n, err)
	}
	q.Append([]byte(body[:7]))
	if n, _, err := FrameRequestLen(q, 0); n != 0 || err != nil {
		t.Fatalf("partial chunked body framed: n=%d err=%v", n, err)
	}
	q.Append([]byte(body[7:]))
	n, _, err := FrameRequestLen(q, 0)
	if err != nil || n != len(head)+len(body) {
		t.Fatalf("FrameRequestLen(chunked) = %d, %v; want %d", n, err, len(head)+len(body))
	}
}

// TestFrameResponseLenBodilessStatuses: 204 and 304 are bodiless by rule
// (RFC 7230 §3.3.3) even when they carry the entity's Content-Length —
// 304 routinely echoes the validator target's metadata.
func TestFrameResponseLenBodilessStatuses(t *testing.T) {
	for _, status := range []string{"204 No Content", "304 Not Modified"} {
		resp := "HTTP/1.1 " + status + "\r\nContent-Length: 1234\r\nETag: \"x\"\r\n\r\n"
		q := buffer.NewQueue(nil)
		q.Append([]byte(resp))
		if n, err := FrameResponseLen(q, 0, 0); err != nil || n != len(resp) {
			t.Fatalf("%s framed as %d, %v; want header-only %d", status, n, err, len(resp))
		}
	}
}

// TestFrameResponseLenInterim: 1xx interim responses frame together with
// the final response as one delivered view; 101 hands the socket to
// another protocol and is unframeable.
func TestFrameResponseLenInterim(t *testing.T) {
	interim := "HTTP/1.1 100 Continue\r\n\r\n"
	final := "HTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"
	q := buffer.NewQueue(nil)
	q.Append([]byte(interim))
	if n, err := FrameResponseLen(q, 0, 0); n != 0 || err != nil {
		t.Fatalf("lone interim framed: n=%d err=%v", n, err)
	}
	q.Append([]byte(final))
	if n, err := FrameResponseLen(q, 0, 0); err != nil || n != len(interim)+len(final) {
		t.Fatalf("interim+final = %d, %v; want %d", n, err, len(interim)+len(final))
	}

	q = buffer.NewQueue(nil)
	q.Append([]byte("HTTP/1.1 101 Switching Protocols\r\nUpgrade: h2c\r\n\r\n"))
	if _, err := FrameResponseLen(q, 0, 0); !errors.Is(err, ErrUnframeable) {
		t.Fatalf("101 framing error = %v; want ErrUnframeable", err)
	}
}

// TestFrameResponseLenChunked: a chunked response frames through the zero
// chunk and trailer, and reports 0 while any chunk is still a prefix.
func TestFrameResponseLenChunked(t *testing.T) {
	head := "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n"
	body := "4\r\nwiki\r\n10\r\n0123456789abcdef\r\n0\r\nTrailer: v\r\n\r\n"
	q := buffer.NewQueue(nil)
	q.Append([]byte(head))
	for i := 0; i < len(body); i += 9 {
		if n, err := FrameResponseLen(q, 0, 0); n != 0 || err != nil {
			t.Fatalf("partial chunked response after %d body bytes: n=%d err=%v", i, n, err)
		}
		end := i + 9
		if end > len(body) {
			end = len(body)
		}
		q.Append([]byte(body[i:end]))
	}
	n, err := FrameResponseLen(q, 0, 0)
	if err != nil || n != len(head)+len(body) {
		t.Fatalf("FrameResponseLen(chunked) = %d, %v; want %d", n, err, len(head)+len(body))
	}
}

// TestFrameResponseLenUnframeable: a response delimited only by connection
// close has no findable end on a shared socket — the framer must say so
// loudly rather than guess.
func TestFrameResponseLenUnframeable(t *testing.T) {
	q := buffer.NewQueue(nil)
	q.Append([]byte("HTTP/1.1 200 OK\r\nConnection: close\r\n\r\npartial body"))
	if _, err := FrameResponseLen(q, 0, 0); !errors.Is(err, ErrUnframeable) {
		t.Fatalf("close-delimited framing error = %v; want ErrUnframeable", err)
	}
}

// TestDecoderAgreesWithFramer runs every neutral-context response row of
// the framer tests through both the response decoder and FrameResponseLen:
// they must refuse the same responses with the same error kind, and where
// the framer frames a unit, the decoder's messages must end exactly where
// it ends (an interim 1xx decodes as a message of its own). The CtxHEAD
// row is left out: the decoder is not request-aware.
func TestDecoderAgreesWithFramer(t *testing.T) {
	rows := []struct{ name, wire string }{
		{"content-length", string(BuildResponse(nil, 200, "OK", true, []byte("hello body")))},
		{"get-of-head-bytes", "HTTP/1.1 200 OK\r\nContent-Length: 5\r\n\r\nhello"},
		{"204", "HTTP/1.1 204 No Content\r\nContent-Length: 1234\r\nETag: \"x\"\r\n\r\n"},
		{"304", "HTTP/1.1 304 Not Modified\r\nContent-Length: 1234\r\nETag: \"x\"\r\n\r\n"},
		{"interim+final", "HTTP/1.1 100 Continue\r\n\r\nHTTP/1.1 200 OK\r\nContent-Length: 2\r\n\r\nok"},
		{"101", "HTTP/1.1 101 Switching Protocols\r\nUpgrade: h2c\r\n\r\n"},
		{"chunked", "HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n4\r\nwiki\r\n10\r\n0123456789abcdef\r\n0\r\nTrailer: v\r\n\r\n"},
		{"close-delimited", "HTTP/1.1 200 OK\r\nConnection: close\r\n\r\nhello world"},
	}
	for _, r := range rows {
		t.Run(r.name, func(t *testing.T) {
			q := buffer.NewQueue(nil)
			defer q.Reset()
			q.Append([]byte(r.wire))
			n, ferr := FrameResponseLen(q, 0, 0)
			if ferr == nil && n != len(r.wire) {
				t.Fatalf("framer framed %d of %d bytes", n, len(r.wire))
			}
			dec := ResponseFormat{}.NewDecoder()
			consumed := 0
			for {
				before := q.Len()
				msg, ok, derr := dec.Decode(q)
				if derr != nil {
					if ferr == nil || !errors.Is(derr, ErrUnframeable) || !errors.Is(ferr, ErrUnframeable) {
						t.Fatalf("decoder error %v, framer error %v", derr, ferr)
					}
					return
				}
				if !ok {
					t.Fatalf("decoder wants more after %d bytes; framer: n=%d err=%v", consumed, n, ferr)
				}
				msg.Release()
				if consumed += before - q.Len(); consumed >= n {
					break
				}
			}
			if ferr != nil || consumed != n {
				t.Fatalf("decoder consumed %d bytes ok; framer: n=%d err=%v", consumed, n, ferr)
			}
		})
	}
}
