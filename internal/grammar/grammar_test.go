package grammar

import (
	"bytes"
	"errors"
	"testing"
	"testing/quick"

	"flick/internal/buffer"
	"flick/internal/value"
)

// encodeMemcached builds a wire message for tests.
func encodeMemcached(t testing.TB, opcode byte, key, val string) []byte {
	t.Helper()
	c := MemcachedUnit().MustCompile()
	rec := c.Desc().New()
	rec.SetField("magic_code", value.Int(MemcachedMagicRequest))
	rec.SetField("opcode", value.Int(int64(opcode)))
	rec.SetField("key", value.Bytes([]byte(key)))
	rec.SetField("value", value.Bytes([]byte(val)))
	out, err := c.Encode(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

func TestMemcachedRoundTrip(t *testing.T) {
	c := MemcachedUnit().MustCompile()
	wire := encodeMemcached(t, MemcachedOpGetK, "user:1", "alice")

	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, ok, err := c.NewDecoder().Decode(q)
	if err != nil || !ok {
		t.Fatalf("decode: ok=%v err=%v", ok, err)
	}
	if got := msg.Field("key").AsString(); got != "user:1" {
		t.Fatalf("key = %q", got)
	}
	if got := msg.Field("value").AsString(); got != "alice" {
		t.Fatalf("value = %q", got)
	}
	if got := msg.Field("opcode").AsInt(); got != MemcachedOpGetK {
		t.Fatalf("opcode = %d", got)
	}
	// Framing fields were derived, not hand-set.
	if got := msg.Field("key_len").AsInt(); got != 6 {
		t.Fatalf("key_len = %d", got)
	}
	if got := msg.Field("total_len").AsInt(); got != 11 {
		t.Fatalf("total_len = %d", got)
	}
	if got := msg.Field("value_len").AsInt(); got != 5 {
		t.Fatalf("value_len (var) = %d", got)
	}
	if q.Len() != 0 {
		t.Fatalf("%d bytes left in queue", q.Len())
	}
}

func TestMemcachedIncrementalDecode(t *testing.T) {
	c := MemcachedUnit().MustCompile()
	wire := encodeMemcached(t, MemcachedOpGet, "some-key", "some-value-payload")
	q := buffer.NewQueue(nil)
	dec := c.NewDecoder()

	// Feed one byte at a time; must complete exactly at the last byte.
	for i, b := range wire {
		q.Append([]byte{b})
		msg, ok, err := dec.Decode(q)
		if err != nil {
			t.Fatalf("byte %d: %v", i, err)
		}
		if ok != (i == len(wire)-1) {
			t.Fatalf("byte %d: ok=%v", i, ok)
		}
		if ok && msg.Field("key").AsString() != "some-key" {
			t.Fatalf("key = %q", msg.Field("key").AsString())
		}
	}
}

func TestMemcachedPipelinedMessages(t *testing.T) {
	c := MemcachedUnit().MustCompile()
	var wire []byte
	wire = append(wire, encodeMemcached(t, MemcachedOpGet, "k1", "v1")...)
	wire = append(wire, encodeMemcached(t, MemcachedOpGet, "k2", "v2")...)
	wire = append(wire, encodeMemcached(t, MemcachedOpGet, "k3", "v3")...)
	q := buffer.NewQueue(nil)
	q.Append(wire)
	dec := c.NewDecoder()
	for _, want := range []string{"k1", "k2", "k3"} {
		msg, ok, err := dec.Decode(q)
		if err != nil || !ok {
			t.Fatalf("decode %s: ok=%v err=%v", want, ok, err)
		}
		if got := msg.Field("key").AsString(); got != want {
			t.Fatalf("key = %q, want %q", got, want)
		}
	}
	if _, ok, _ := dec.Decode(q); ok {
		t.Fatal("decoded a fourth message from empty stream")
	}
}

func TestMemcachedEncodeDecodeEncodeStable(t *testing.T) {
	c := MemcachedUnit().MustCompile()
	wire := encodeMemcached(t, MemcachedOpSet, "stable", "payload")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, ok, err := c.NewDecoder().Decode(q)
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	again, err := c.Encode(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(wire, again) {
		t.Fatalf("re-encode differs:\n%x\n%x", wire, again)
	}
}

func TestPrunedCodecSkipsUnneededFields(t *testing.T) {
	// A proxy only needs opcode and key (Listing 1 declares exactly those).
	c := MemcachedUnit().MustCompile(Needed("key"))
	wire := encodeMemcached(t, MemcachedOpGetK, "routing-key", "big-value-we-dont-care-about")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, ok, err := c.NewDecoder().Decode(q)
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	if msg.Field("key").AsString() != "routing-key" {
		t.Fatal("needed field missing")
	}
	if !msg.Field("value").IsNull() {
		t.Fatal("unneeded value field was materialised")
	}
	// Integer fields are always available (they locate later fields).
	if msg.Field("opcode").AsInt() != MemcachedOpGetK {
		t.Fatal("integer field missing")
	}
}

func TestCaptureRawForwarding(t *testing.T) {
	c := MemcachedUnit().MustCompile(Needed("key"), CaptureRaw())
	wire := encodeMemcached(t, MemcachedOpGet, "fwd", "forward-me")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, ok, err := c.NewDecoder().Decode(q)
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	raw := c.Raw(msg)
	if !bytes.Equal(raw, wire) {
		t.Fatalf("raw image differs from wire:\n%x\n%x", raw, wire)
	}
	if msg.Field("key").AsString() != "fwd" {
		t.Fatal("key not available alongside raw")
	}
}

func TestRawOnNonCapturingCodec(t *testing.T) {
	c := MemcachedUnit().MustCompile()
	wire := encodeMemcached(t, MemcachedOpGet, "k", "v")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, _, _ := c.NewDecoder().Decode(q)
	if c.Raw(msg) != nil {
		t.Fatal("non-capturing codec returned raw bytes")
	}
	if c.Raw(value.Int(1)) != nil {
		t.Fatal("Raw on non-record")
	}
}

func TestHadoopKVRoundTrip(t *testing.T) {
	c := HadoopKVUnit().MustCompile()
	rec := c.Desc().New()
	rec.SetField("key", value.Bytes([]byte("word")))
	rec.SetField("value", value.Bytes([]byte("42")))
	wire, err := c.Encode(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, ok, err := c.NewDecoder().Decode(q)
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	if msg.Field("key").AsString() != "word" || msg.Field("value").AsString() != "42" {
		t.Fatalf("kv = %q/%q", msg.Field("key").AsString(), msg.Field("value").AsString())
	}
}

func TestLineUnitDelimited(t *testing.T) {
	c := LineUnit().MustCompile()
	q := buffer.NewQueue(nil)
	q.Append([]byte("hello wo"))
	dec := c.NewDecoder()
	if _, ok, _ := dec.Decode(q); ok {
		t.Fatal("decoded without newline")
	}
	q.Append([]byte("rld\nnext"))
	msg, ok, err := dec.Decode(q)
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	if msg.Field("line").AsString() != "hello world" {
		t.Fatalf("line = %q", msg.Field("line").AsString())
	}
	// Second line still incomplete.
	if _, ok, _ := dec.Decode(q); ok {
		t.Fatal("decoded incomplete second line")
	}
	q.Append([]byte("\n"))
	msg, ok, _ = dec.Decode(q)
	if !ok || msg.Field("line").AsString() != "next" {
		t.Fatalf("second line = %v %q", ok, msg.Field("line").AsString())
	}
}

func TestLineEncodeAppendsDelimiter(t *testing.T) {
	c := LineUnit().MustCompile()
	rec := c.Desc().New()
	rec.SetField("line", value.Str("out"))
	wire, err := c.Encode(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if string(wire) != "out\n" {
		t.Fatalf("wire = %q", wire)
	}
}

func TestMultiByteDelimiterSplitAcrossFeeds(t *testing.T) {
	u := Unit{Name: "crlf", Fields: []Field{
		{Name: "head", Kind: KindUntil, Delim: []byte("\r\n")},
	}}
	c := u.MustCompile()
	dec := c.NewDecoder()
	q := buffer.NewQueue(nil)
	q.Append([]byte("line\r")) // delimiter half-arrived
	if _, ok, _ := dec.Decode(q); ok {
		t.Fatal("decoded on half delimiter")
	}
	q.Append([]byte("\n"))
	msg, ok, err := dec.Decode(q)
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	if msg.Field("head").AsString() != "line" {
		t.Fatalf("head = %q", msg.Field("head").AsString())
	}
}

func TestFalseDelimiterPrefix(t *testing.T) {
	u := Unit{Name: "crlf", Fields: []Field{
		{Name: "head", Kind: KindUntil, Delim: []byte("\r\n")},
	}}
	c := u.MustCompile()
	q := buffer.NewQueue(nil)
	q.Append([]byte("a\rb\r\n")) // first \r is not a delimiter
	msg, ok, err := c.NewDecoder().Decode(q)
	if !ok || err != nil {
		t.Fatal(ok, err)
	}
	if msg.Field("head").AsString() != "a\rb" {
		t.Fatalf("head = %q", msg.Field("head").AsString())
	}
}

func TestLiteralMismatch(t *testing.T) {
	u := Unit{Name: "lit", Fields: []Field{
		{Name: "magic", Kind: KindLiteral, Lit: []byte("FLK")},
		{Name: "body", Kind: KindUntil, Delim: []byte("\n")},
	}}
	c := u.MustCompile()
	q := buffer.NewQueue(nil)
	q.Append([]byte("XXXbody\n"))
	_, ok, err := c.NewDecoder().Decode(q)
	if ok || !errors.Is(err, ErrBadLiteral) {
		t.Fatalf("ok=%v err=%v, want literal error", ok, err)
	}
}

func TestLiteralRoundTrip(t *testing.T) {
	u := Unit{Name: "lit", Fields: []Field{
		{Name: "magic", Kind: KindLiteral, Lit: []byte("FLK")},
		{Name: "body", Kind: KindUntil, Delim: []byte("\n")},
	}}
	c := u.MustCompile()
	rec := c.Desc().New()
	rec.SetField("body", value.Str("data"))
	wire, _ := c.Encode(nil, rec)
	if string(wire) != "FLKdata\n" {
		t.Fatalf("wire = %q", wire)
	}
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, ok, err := c.NewDecoder().Decode(q)
	if !ok || err != nil || msg.Field("body").AsString() != "data" {
		t.Fatalf("roundtrip: %v %v %q", ok, err, msg.Field("body").AsString())
	}
}

func TestOversizeMessageRejected(t *testing.T) {
	u := Unit{Name: "cap", MaxMessage: 64, Fields: []Field{
		{Name: "n", Kind: KindUint, Size: 4},
		{Name: "body", Kind: KindBytes, Length: Ref("n")},
	}}
	c := u.MustCompile()
	q := buffer.NewQueue(nil)
	q.Append([]byte{0x00, 0x01, 0x00, 0x00}) // claims 64 KiB body
	_, ok, err := c.NewDecoder().Decode(q)
	if ok || !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ok=%v err=%v, want ErrTooLarge", ok, err)
	}
}

func TestUnterminatedUntilRejected(t *testing.T) {
	u := Unit{Name: "cap", Fields: []Field{
		{Name: "line", Kind: KindUntil, Delim: []byte("\n"), MaxLen: 16},
	}}
	c := u.MustCompile()
	q := buffer.NewQueue(nil)
	q.Append(bytes.Repeat([]byte{'a'}, 64))
	_, ok, err := c.NewDecoder().Decode(q)
	if ok || !errors.Is(err, ErrTooLarge) {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestNegativeComputedLengthRejected(t *testing.T) {
	u := Unit{Name: "neg", Fields: []Field{
		{Name: "a", Kind: KindUint, Size: 1},
		{Name: "body", Kind: KindBytes, Length: Sub(Ref("a"), Const(100))},
	}}
	c := u.MustCompile()
	q := buffer.NewQueue(nil)
	q.Append([]byte{5})
	_, ok, err := c.NewDecoder().Decode(q)
	if ok || !errors.Is(err, ErrMalformed) {
		t.Fatalf("ok=%v err=%v", ok, err)
	}
}

func TestDecoderRecoversAfterError(t *testing.T) {
	// After a malformed message the decoder resets and can parse the next
	// clean message (the grammar "default behaviour" extension from §4.2).
	u := Unit{Name: "lit", Fields: []Field{
		{Name: "magic", Kind: KindLiteral, Lit: []byte("A")},
		{Name: "body", Kind: KindUntil, Delim: []byte("\n")},
	}}
	c := u.MustCompile()
	dec := c.NewDecoder()
	q := buffer.NewQueue(nil)
	q.Append([]byte("Xjunk\n"))
	if _, ok, err := dec.Decode(q); ok || err == nil {
		t.Fatal("expected literal error")
	}
	q.Reset()
	q.Append([]byte("Aok\n"))
	msg, ok, err := dec.Decode(q)
	if !ok || err != nil || msg.Field("body").AsString() != "ok" {
		t.Fatalf("post-error decode: %v %v", ok, err)
	}
}

func TestCompileErrors(t *testing.T) {
	cases := []Unit{
		{Name: "empty"},
		{Name: "badsize", Fields: []Field{{Name: "x", Kind: KindUint, Size: 3}}},
		{Name: "nolen", Fields: []Field{{Name: "x", Kind: KindBytes}}},
		{Name: "emptylit", Fields: []Field{{Name: "x", Kind: KindLiteral}}},
		{Name: "nodelim", Fields: []Field{{Name: "x", Kind: KindUntil}}},
		{Name: "novar", Fields: []Field{{Name: "x", Kind: KindVar}}},
		{Name: "badfix", Fields: []Field{{Name: "x", Kind: KindFixedBytes}}},
		{Name: "dup", Fields: []Field{
			{Name: "x", Kind: KindUint, Size: 1},
			{Name: "x", Kind: KindUint, Size: 1}}},
		{Name: "fwdref", Fields: []Field{
			{Name: "body", Kind: KindBytes, Length: Ref("later")},
			{Name: "later", Kind: KindUint, Size: 1}}},
		{Name: "unknownref", Fields: []Field{
			{Name: "body", Kind: KindBytes, Length: Ref("ghost")}}},
		{Name: "badser", Fields: []Field{
			{Name: "b", Kind: KindBytes, Length: Const(1), Serialize: Const(1)}}},
	}
	for _, u := range cases {
		if _, err := u.Compile(); err == nil {
			t.Errorf("unit %q compiled, want error", u.Name)
		}
	}
}

func TestCompileNeededUnknownField(t *testing.T) {
	if _, err := MemcachedUnit().Compile(Needed("nope")); err == nil {
		t.Fatal("unknown needed field accepted")
	}
}

func TestMustCompilePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("MustCompile did not panic")
		}
	}()
	Unit{Name: "bad"}.MustCompile()
}

func TestEncodeWrongRecordType(t *testing.T) {
	c := MemcachedUnit().MustCompile()
	if _, err := c.Encode(nil, value.Int(1)); err == nil {
		t.Fatal("encoded an int")
	}
	other := LineUnit().MustCompile()
	if _, err := c.Encode(nil, other.Desc().New()); err == nil {
		t.Fatal("encoded a foreign record")
	}
}

func TestAnonymousFieldsNotAddressable(t *testing.T) {
	c := MemcachedUnit().MustCompile()
	// The reserved byte is slot 4, exposed only as "_4".
	if c.Desc().FieldIndex("_4") != 4 {
		t.Fatal("anonymous slot naming changed")
	}
}

func TestLittleEndianIntegers(t *testing.T) {
	u := Unit{Name: "le", Order: LittleEndian, Fields: []Field{
		{Name: "x", Kind: KindUint, Size: 4},
	}}
	c := u.MustCompile()
	q := buffer.NewQueue(nil)
	q.Append([]byte{0x01, 0x02, 0x03, 0x04})
	msg, ok, _ := c.NewDecoder().Decode(q)
	if !ok || msg.Field("x").AsInt() != 0x04030201 {
		t.Fatalf("le decode = %x", msg.Field("x").AsInt())
	}
	wire, _ := c.Encode(nil, msg)
	if !bytes.Equal(wire, []byte{0x01, 0x02, 0x03, 0x04}) {
		t.Fatalf("le encode = %x", wire)
	}
}

// Property: encode→decode is the identity on (opcode, key, value) for the
// Memcached grammar, regardless of how the wire bytes are chunked.
func TestMemcachedRoundTripProperty(t *testing.T) {
	c := MemcachedUnit().MustCompile()
	f := func(op byte, key, val []byte, chunk uint8) bool {
		if len(key) > 1024 || len(val) > 4096 {
			return true
		}
		rec := c.Desc().New()
		rec.SetField("magic_code", value.Int(MemcachedMagicRequest))
		rec.SetField("opcode", value.Int(int64(op)))
		rec.SetField("key", value.Bytes(key))
		rec.SetField("value", value.Bytes(val))
		wire, err := c.Encode(nil, rec)
		if err != nil {
			return false
		}
		q := buffer.NewQueue(nil)
		dec := c.NewDecoder()
		step := int(chunk)%64 + 1
		var msg value.Value
		var ok bool
		for i := 0; i < len(wire); i += step {
			end := i + step
			if end > len(wire) {
				end = len(wire)
			}
			q.Append(wire[i:end])
			msg, ok, err = dec.Decode(q)
			if err != nil {
				return false
			}
			if ok && end < len(wire) {
				return false // completed too early
			}
		}
		return ok &&
			msg.Field("opcode").AsInt() == int64(op) &&
			bytes.Equal(msg.Field("key").AsBytes(), key) &&
			bytes.Equal(msg.Field("value").AsBytes(), val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: Hadoop KV encode/decode round-trips arbitrary keys and values.
func TestHadoopRoundTripProperty(t *testing.T) {
	c := HadoopKVUnit().MustCompile()
	f := func(key, val []byte) bool {
		rec := c.Desc().New()
		rec.SetField("key", value.Bytes(key))
		rec.SetField("value", value.Bytes(val))
		wire, err := c.Encode(nil, rec)
		if err != nil {
			return false
		}
		q := buffer.NewQueue(nil)
		q.Append(wire)
		msg, ok, err := c.NewDecoder().Decode(q)
		return ok && err == nil &&
			bytes.Equal(msg.Field("key").AsBytes(), key) &&
			bytes.Equal(msg.Field("value").AsBytes(), val)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// BenchmarkMemcachedDecode times the steady-state decode of one GET: the
// queue is pooled and every record is released, as the input task does, so
// the numbers are parsing, not allocation.
func BenchmarkMemcachedDecode(b *testing.B) {
	c := MemcachedUnit().MustCompile()
	wire := encodeMemcached(b, MemcachedOpGet, "benchmark-key", "benchmark-value-payload")
	benchDecode(b, c.NewDecoder(), wire)
}

// benchDecode decodes wire b.N times through a pooled queue, releasing
// each record.
func benchDecode(b *testing.B, dec StreamDecoder, wire []byte) {
	q := buffer.NewQueue(buffer.NewPool(8))
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

func BenchmarkMemcachedDecodePruned(b *testing.B) {
	c := MemcachedUnit().MustCompile(Needed("key"))
	wire := encodeMemcached(b, MemcachedOpGet, "benchmark-key",
		string(bytes.Repeat([]byte{'v'}, 1024)))
	benchDecode(b, c.NewDecoder(), wire)
}

func BenchmarkMemcachedEncode(b *testing.B) {
	c := MemcachedUnit().MustCompile()
	rec := c.Desc().New()
	rec.SetField("opcode", value.Int(MemcachedOpGet))
	rec.SetField("key", value.Bytes([]byte("benchmark-key")))
	rec.SetField("value", value.Bytes([]byte("benchmark-value")))
	dst := make([]byte, 0, 256)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var err error
		dst, err = c.Encode(dst[:0], rec)
		if err != nil {
			b.Fatal(err)
		}
	}
}
