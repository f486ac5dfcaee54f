package http

import (
	"errors"
	"strings"
	"testing"

	"flick/internal/buffer"
)

func TestPeekRequestHead(t *testing.T) {
	q := buffer.NewQueue(buffer.NewPool(2))
	q.Append([]byte("PUT /topology HTTP/1.1\r\nHost: x\r\nexpect: 100-Continue\r\n"))
	if h, err := PeekRequestHead(q); h.Len != 0 || err != nil {
		t.Fatalf("incomplete head = %+v, %v", h, err)
	}
	q.Append([]byte("Content-Length: 12\r\n\r\n[\"a:1\""))
	h, err := PeekRequestHead(q)
	if err != nil {
		t.Fatal(err)
	}
	want := Head{Len: q.Len() - len(`["a:1"`), ContentLength: 12, ExpectContinue: true}
	if h != want {
		t.Fatalf("head = %+v, want %+v", h, want)
	}
	if q.Len() != want.Len+6 {
		t.Fatalf("PeekRequestHead consumed bytes: %d left", q.Len())
	}

	q.Reset()
	q.Append([]byte("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\nExpect: nothing\r\n\r\n"))
	if h, err := PeekRequestHead(q); err != nil || h.Len != q.Len() || h.ExpectContinue || h.ContentLength != 0 {
		t.Fatalf("chunked head = %+v, %v", h, err)
	}
}

func TestPeekRequestHeadErrors(t *testing.T) {
	for name, wire := range map[string]string{
		"no terminator":  "GET / HTTP/1.1\r\nX: " + strings.Repeat("a", MaxHeaderBytes),
		"complete, long": "GET / HTTP/1.1\r\nX: " + strings.Repeat("a", MaxHeaderBytes) + "\r\n\r\n",
	} {
		q := buffer.NewQueue(nil)
		q.Append([]byte(wire))
		if _, err := PeekRequestHead(q); !errors.Is(err, ErrTooLarge) {
			t.Fatalf("%s: err = %v, want ErrTooLarge", name, err)
		}
	}
	q := buffer.NewQueue(nil)
	q.Append([]byte("PUT / HTTP/1.1\r\nContent-Length: 1\r\nContent-Length: 2\r\n\r\n"))
	if _, err := PeekRequestHead(q); !errors.Is(err, ErrMalformed) {
		t.Fatalf("duplicate Content-Length: err = %v, want ErrMalformed", err)
	}
}

// TestPrivatePoolNeverTouchesGlobal pins that a head straddling queue
// chunks and a multi-chunk chunked body are copied through the queue's
// own pool: a server decoding on a private pool leaves buffer.Global's
// counters alone.
func TestPrivatePoolNeverTouchesGlobal(t *testing.T) {
	before := buffer.Global.Stats()
	q := buffer.NewQueue(buffer.NewPool(2))
	q.Append([]byte("PUT /t HTTP/1.1\r\nX-Pad: " + strings.Repeat("p", 5000) +
		"\r\nTransfer-Encoding: chunked\r\n\r\n3\r\nabc\r\n2\r\nde\r\n0\r\n\r\n"))
	if h, err := PeekRequestHead(q); err != nil || h.Len == 0 {
		t.Fatalf("straddling head = %+v, %v", h, err)
	}
	msg, ok, err := RequestFormat{}.NewDecoder().Decode(q)
	if !ok || err != nil {
		t.Fatalf("decode: ok=%v err=%v", ok, err)
	}
	if body := string(msg.BytesAt(SlotBody)); body != "abcde" {
		t.Fatalf("body = %q", body)
	}
	msg.Release()
	after := buffer.Global.Stats()
	if after.Gets != before.Gets || after.RefGets != before.RefGets {
		t.Fatalf("private-pool decode touched buffer.Global: before %+v, after %+v", before, after)
	}
}
