package http

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"flick/internal/buffer"
	"flick/internal/value"
)

func TestDecodeSimpleRequest(t *testing.T) {
	wire := []byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\n\r\n")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, ok, err := RequestFormat{}.NewDecoder().Decode(q)
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if msg.Field("method").AsString() != "GET" {
		t.Fatalf("method = %q", msg.Field("method").AsString())
	}
	if msg.Field("uri").AsString() != "/index.html" {
		t.Fatalf("uri = %q", msg.Field("uri").AsString())
	}
	if msg.Field("version").AsString() != "HTTP/1.1" {
		t.Fatalf("version = %q", msg.Field("version").AsString())
	}
	if msg.Field("keep_alive").AsInt() != 1 {
		t.Fatal("HTTP/1.1 should default to keep-alive")
	}
	if msg.Field("content_length").AsInt() != 0 {
		t.Fatal("no body expected")
	}
	if Header(msg, "host") != "example.com" {
		t.Fatalf("Host = %q", Header(msg, "host"))
	}
	if !bytes.Equal(msg.Field("_raw").AsBytes(), wire) {
		t.Fatal("raw image mismatch")
	}
}

func TestDecodeRequestWithBody(t *testing.T) {
	wire := []byte("POST /submit HTTP/1.1\r\nContent-Length: 5\r\n\r\nhello")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, ok, err := RequestFormat{}.NewDecoder().Decode(q)
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if msg.Field("body").AsString() != "hello" {
		t.Fatalf("body = %q", msg.Field("body").AsString())
	}
}

func TestDecodeIncrementalAcrossReads(t *testing.T) {
	wire := []byte("GET /a HTTP/1.1\r\nHost: h\r\nContent-Length: 3\r\n\r\nxyz")
	q := buffer.NewQueue(nil)
	dec := RequestFormat{}.NewDecoder()
	for i := 0; i < len(wire); i++ {
		q.Append(wire[i : i+1])
		msg, ok, err := dec.Decode(q)
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		if ok != (i == len(wire)-1) {
			t.Fatalf("byte %d: ok=%v", i, ok)
		}
		if ok && msg.Field("body").AsString() != "xyz" {
			t.Fatal("body mismatch")
		}
	}
}

func TestDecodePipelinedRequests(t *testing.T) {
	var wire []byte
	wire = append(wire, "GET /1 HTTP/1.1\r\n\r\n"...)
	wire = append(wire, "GET /2 HTTP/1.1\r\n\r\n"...)
	q := buffer.NewQueue(nil)
	q.Append(wire)
	dec := RequestFormat{}.NewDecoder()
	for _, want := range []string{"/1", "/2"} {
		msg, ok, err := dec.Decode(q)
		if !ok || err != nil {
			t.Fatalf("decode %s: %v %v", want, ok, err)
		}
		if msg.Field("uri").AsString() != want {
			t.Fatalf("uri = %q", msg.Field("uri").AsString())
		}
	}
}

func TestDecodeResponse(t *testing.T) {
	wire := BuildResponse(nil, 200, "OK", true, []byte("payload"))
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, ok, err := ResponseFormat{}.NewDecoder().Decode(q)
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if msg.Field("status").AsInt() != 200 {
		t.Fatalf("status = %d", msg.Field("status").AsInt())
	}
	if msg.Field("reason").AsString() != "OK" {
		t.Fatalf("reason = %q", msg.Field("reason").AsString())
	}
	if msg.Field("body").AsString() != "payload" {
		t.Fatalf("body = %q", msg.Field("body").AsString())
	}
}

func TestConnectionCloseDetected(t *testing.T) {
	wire := []byte("GET / HTTP/1.1\r\nConnection: close\r\n\r\n")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, _, _ := RequestFormat{}.NewDecoder().Decode(q)
	if msg.Field("keep_alive").AsInt() != 0 {
		t.Fatal("Connection: close not honoured")
	}
}

func TestHTTP10DefaultsToClose(t *testing.T) {
	wire := []byte("GET / HTTP/1.0\r\n\r\n")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, _, _ := RequestFormat{}.NewDecoder().Decode(q)
	if msg.Field("keep_alive").AsInt() != 0 {
		t.Fatal("HTTP/1.0 should default to close")
	}
	wire = []byte("GET / HTTP/1.0\r\nConnection: keep-alive\r\n\r\n")
	q.Append(wire)
	msg, _, _ = RequestFormat{}.NewDecoder().Decode(q)
	if msg.Field("keep_alive").AsInt() != 1 {
		t.Fatal("explicit keep-alive should override HTTP/1.0 default")
	}
}

func TestChunkedDecodeSingleChunk(t *testing.T) {
	wire := []byte("POST / HTTP/1.1\r\nTransfer-Encoding: chunked\r\n\r\n5\r\nhello\r\n0\r\n\r\n")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, ok, err := RequestFormat{}.NewDecoder().Decode(q)
	if !ok || err != nil {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
	if msg.Field("body").AsString() != "hello" {
		t.Fatalf("body = %q", msg.Field("body").AsString())
	}
	if !bytes.Equal(msg.Field("_raw").AsBytes(), wire) {
		t.Fatal("raw image is not the verbatim chunked wire")
	}
	msg.Release()
}

func TestChunkedDecodeMultiChunk(t *testing.T) {
	wire := []byte("HTTP/1.1 200 OK\r\nTransfer-Encoding: chunked\r\n\r\n" +
		"5\r\nhello\r\n7\r\n, world\r\n0\r\nX-Trailer: t\r\n\r\n")
	q := buffer.NewQueue(nil)
	dec := ResponseFormat{}.NewDecoder()
	// Trickle to exercise the incremental chunk scan.
	for i := 0; i < len(wire); i += 11 {
		end := i + 11
		if end > len(wire) {
			end = len(wire)
		}
		q.Append(wire[i:end])
		msg, ok, err := dec.Decode(q)
		if err != nil {
			t.Fatalf("after %d bytes: %v", end, err)
		}
		if ok != (end == len(wire)) {
			t.Fatalf("after %d bytes: ok=%v", end, ok)
		}
		if !ok {
			continue
		}
		if msg.Field("body").AsString() != "hello, world" {
			t.Fatalf("stitched body = %q", msg.Field("body").AsString())
		}
		// The raw image stays the verbatim chunked wire so proxy
		// passthrough re-emits exactly what the origin sent.
		if !bytes.Equal(msg.Field("_raw").AsBytes(), wire) {
			t.Fatal("raw image is not the verbatim chunked wire")
		}
		msg.Release()
	}
}

// TestDuplicateContentLengthRejected pins the RFC 7230 §3.3.3 smuggling
// guards: conflicting length claims never pick one silently.
func TestDuplicateContentLengthRejected(t *testing.T) {
	for _, wire := range []string{
		"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 6\r\n\r\nhello",
		"POST / HTTP/1.1\r\nContent-Length: 5\r\nContent-Length: 5\r\n\r\nhello",
		"POST / HTTP/1.1\r\nContent-Length: 5\r\nTransfer-Encoding: chunked\r\n\r\n0\r\n\r\n",
	} {
		q := buffer.NewQueue(nil)
		q.Append([]byte(wire))
		_, ok, err := RequestFormat{}.NewDecoder().Decode(q)
		if ok || !errors.Is(err, ErrMalformed) {
			t.Fatalf("%q: ok=%v err=%v; want ErrMalformed", wire[:40], ok, err)
		}
	}
}

// TestConnectionTokenList: Connection is a comma-separated token list —
// "close" must match as a token, not as a substring.
func TestConnectionTokenList(t *testing.T) {
	for wire, wantKA := range map[string]int64{
		"GET / HTTP/1.1\r\nConnection: close, TE\r\n\r\n":      0,
		"GET / HTTP/1.1\r\nConnection: TE ,Close\r\n\r\n":      0,
		"GET / HTTP/1.1\r\nConnection: disclosed\r\n\r\n":      1,
		"GET / HTTP/1.0\r\nConnection: TE, keep-alive\r\n\r\n": 1,
		"GET / HTTP/1.0\r\nConnection: keep-alive-ish\r\n\r\n": 0,
	} {
		q := buffer.NewQueue(nil)
		q.Append([]byte(wire))
		msg, ok, err := RequestFormat{}.NewDecoder().Decode(q)
		if !ok || err != nil {
			t.Fatalf("%q: ok=%v err=%v", wire, ok, err)
		}
		if msg.Field("keep_alive").AsInt() != wantKA {
			t.Fatalf("%q: keep_alive = %d; want %d", wire, msg.Field("keep_alive").AsInt(), wantKA)
		}
	}
}

func TestBadContentLength(t *testing.T) {
	wire := []byte("POST / HTTP/1.1\r\nContent-Length: banana\r\n\r\n")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	_, ok, err := RequestFormat{}.NewDecoder().Decode(q)
	if ok || !errors.Is(err, ErrMalformed) {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestMalformedStartLine(t *testing.T) {
	wire := []byte("NONSENSE\r\n\r\n")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	_, ok, err := RequestFormat{}.NewDecoder().Decode(q)
	if ok || !errors.Is(err, ErrMalformed) {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestHeaderTooLarge(t *testing.T) {
	q := buffer.NewQueue(nil)
	q.Append([]byte("GET / HTTP/1.1\r\n"))
	big := bytes.Repeat([]byte("X-Filler: aaaaaaaaaaaaaaaaaaaaaaaaaaaaa\r\n"), 4000)
	q.Append(big)
	_, ok, err := RequestFormat{}.NewDecoder().Decode(q)
	if ok || !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestEncodeRawPassthrough(t *testing.T) {
	wire := []byte("GET /x HTTP/1.1\r\nHost: h\r\n\r\n")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, _, _ := RequestFormat{}.NewDecoder().Decode(q)
	out, err := RequestFormat{}.Encode(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(out, wire) {
		t.Fatalf("passthrough differs:\n%q\n%q", wire, out)
	}
}

func TestEncodeRebuiltRequest(t *testing.T) {
	rec := RequestDesc.New()
	rec.SetField("method", value.Str("GET"))
	rec.SetField("uri", value.Str("/p"))
	rec.SetField("version", value.Str("HTTP/1.1"))
	rec.SetField("headers", value.Str("Host: h"))
	rec.SetField("body", value.Bytes(nil))
	out, err := RequestFormat{}.Encode(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	q := buffer.NewQueue(nil)
	q.Append(out)
	msg, ok, err := RequestFormat{}.NewDecoder().Decode(q)
	if !ok || err != nil {
		t.Fatalf("re-decode: %v %v (%q)", ok, err, out)
	}
	if msg.Field("uri").AsString() != "/p" || Header(msg, "Host") != "h" {
		t.Fatalf("rebuilt request wrong: %q", out)
	}
}

func TestEncodeRebuiltResponse(t *testing.T) {
	rec := ResponseDesc.New()
	rec.SetField("version", value.Str("HTTP/1.1"))
	rec.SetField("status", value.Int(404))
	rec.SetField("reason", value.Str("Not Found"))
	rec.SetField("body", value.Bytes([]byte("gone")))
	out, err := ResponseFormat{}.Encode(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	q := buffer.NewQueue(nil)
	q.Append(out)
	msg, ok, err := ResponseFormat{}.NewDecoder().Decode(q)
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	if msg.Field("status").AsInt() != 404 || msg.Field("body").AsString() != "gone" {
		t.Fatalf("rebuilt response wrong: %q", out)
	}
}

func TestEncodeWrongRecord(t *testing.T) {
	if _, err := (RequestFormat{}).Encode(nil, value.Int(1)); err == nil {
		t.Fatal("encoded an int")
	}
	if _, err := (ResponseFormat{}).Encode(nil, RequestDesc.New()); err == nil {
		t.Fatal("encoded a request with the response codec")
	}
}

func TestHeaderLookupMissing(t *testing.T) {
	wire := []byte("GET / HTTP/1.1\r\nA: 1\r\nB: 2\r\n\r\n")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, _, _ := RequestFormat{}.NewDecoder().Decode(q)
	if Header(msg, "C") != "" {
		t.Fatal("missing header returned a value")
	}
	if Header(msg, "a") != "1" || Header(msg, "B") != "2" {
		t.Fatal("header lookup failed")
	}
}

func TestBuildRequestVariants(t *testing.T) {
	r := BuildRequest(nil, "GET", "/u", "host", true, nil)
	if bytes.Contains(r, []byte("Connection: close")) {
		t.Fatal("keep-alive request has close header")
	}
	r = BuildRequest(nil, "GET", "/u", "host", false, nil)
	if !bytes.Contains(r, []byte("Connection: close")) {
		t.Fatal("non-persistent request missing close header")
	}
	r = BuildRequest(nil, "POST", "/u", "host", true, []byte("abc"))
	if !bytes.Contains(r, []byte("Content-Length: 3")) {
		t.Fatal("POST missing content length")
	}
}

// Property: BuildRequest output always decodes back to the same method/uri
// and body for header-safe inputs.
func TestBuildRequestRoundTripProperty(t *testing.T) {
	f := func(pathSeed uint32, body []byte, ka bool) bool {
		if len(body) > 4096 {
			return true
		}
		uri := "/p" + string(rune('a'+pathSeed%26))
		wire := BuildRequest(nil, "POST", uri, "h", ka, body)
		q := buffer.NewQueue(nil)
		q.Append(wire)
		msg, ok, err := RequestFormat{}.NewDecoder().Decode(q)
		if !ok || err != nil {
			return false
		}
		return msg.Field("uri").AsString() == uri &&
			bytes.Equal(msg.Field("body").AsBytes(), body)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkDecodeRequest times the steady-state decode of one request
// through a pooled queue, releasing each record as the input task does.
func BenchmarkDecodeRequest(b *testing.B) {
	wire := []byte("GET /index.html HTTP/1.1\r\nHost: example.com\r\nUser-Agent: ab\r\nAccept: */*\r\n\r\n")
	q := buffer.NewQueue(buffer.NewPool(8))
	dec := RequestFormat{}.NewDecoder()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		q.Append(wire)
		msg, ok, err := dec.Decode(q)
		if !ok || err != nil {
			b.Fatal(ok, err)
		}
		msg.Release()
	}
}

// TestFieldSlotsMatchDesc pins every init-time slot to its field's index
// in the desc it indexes, so a desc edit cannot leave a stale slot behind.
// The shared slots index both requests and responses, so both descs must
// agree on them.
func TestFieldSlotsMatchDesc(t *testing.T) {
	cases := []struct {
		descs []*value.RecordDesc
		name  string
		slot  int
	}{
		{[]*value.RecordDesc{RequestDesc}, "method", SlotMethod},
		{[]*value.RecordDesc{RequestDesc}, "uri", SlotURI},
		{[]*value.RecordDesc{RequestDesc}, "version", slotReqVersion},
		{[]*value.RecordDesc{ResponseDesc}, "version", slotRespVersion},
		{[]*value.RecordDesc{ResponseDesc}, "status", SlotStatus},
		{[]*value.RecordDesc{ResponseDesc}, "reason", slotReason},
		{[]*value.RecordDesc{RequestDesc, ResponseDesc}, "headers", SlotHeaders},
		{[]*value.RecordDesc{RequestDesc, ResponseDesc}, "body", SlotBody},
		{[]*value.RecordDesc{RequestDesc, ResponseDesc}, "keep_alive", SlotKeepAlive},
		{[]*value.RecordDesc{RequestDesc, ResponseDesc}, "_raw", SlotRaw},
	}
	for _, c := range cases {
		for _, d := range c.descs {
			if want := d.FieldIndex(c.name); c.slot != want || want < 0 {
				t.Errorf("slot of %s.%s = %d, FieldIndex = %d", d.Name, c.name, c.slot, want)
			}
		}
	}
}
