package hadoop

import (
	"bytes"
	"io"
	"strconv"
	"testing"
	"testing/quick"
)

func TestWriterReaderRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	pairs := [][2]string{{"apple", "1"}, {"banana", "2"}, {"cherry", "30"}}
	for _, p := range pairs {
		if err := w.Write([]byte(p[0]), []byte(p[1])); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Flush(); err != nil {
		t.Fatal(err)
	}
	r := NewReader(&buf)
	for _, p := range pairs {
		kv, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if Key(kv) != p[0] || string(Value(kv)) != p[1] {
			t.Fatalf("got %q/%q want %q/%q", Key(kv), Value(kv), p[0], p[1])
		}
	}
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("end err = %v, want EOF", err)
	}
}

func TestWriterAutoFlush(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	big := bytes.Repeat([]byte{'x'}, 10<<10)
	w.Write([]byte("k1"), big)
	w.Write([]byte("k2"), big) // crosses the 16 KiB threshold → auto flush
	if buf.Len() == 0 {
		t.Fatal("no auto flush")
	}
	w.Flush()
	r := NewReader(&buf)
	for _, want := range []string{"k1", "k2"} {
		kv, err := r.Read()
		if err != nil {
			t.Fatal(err)
		}
		if Key(kv) != want {
			t.Fatalf("key = %q", Key(kv))
		}
	}
}

func TestReaderTruncatedStream(t *testing.T) {
	var buf bytes.Buffer
	w := NewWriter(&buf)
	w.Write([]byte("key"), []byte("value"))
	w.Flush()
	trunc := buf.Bytes()[:buf.Len()-2]
	r := NewReader(bytes.NewReader(trunc))
	if _, err := r.Read(); err == nil || err == io.EOF {
		t.Fatalf("err = %v, want truncation error", err)
	}
}

func TestKVHelpers(t *testing.T) {
	kv := KV([]byte("k"), []byte("v"))
	if Key(kv) != "k" || string(Value(kv)) != "v" {
		t.Fatal("kv helpers")
	}
}

func TestEmptyStream(t *testing.T) {
	r := NewReader(bytes.NewReader(nil))
	if _, err := r.Read(); err != io.EOF {
		t.Fatalf("err = %v", err)
	}
}

// Property: any sequence of pairs written then read back is preserved in
// order and content.
func TestStreamRoundTripProperty(t *testing.T) {
	f := func(keys [][]byte, n uint8) bool {
		var buf bytes.Buffer
		w := NewWriter(&buf)
		for i, k := range keys {
			if len(k) > 1024 {
				k = k[:1024]
			}
			v := strconv.Itoa(i)
			if err := w.Write(k, []byte(v)); err != nil {
				return false
			}
		}
		if err := w.Flush(); err != nil {
			return false
		}
		r := NewReader(&buf)
		for i, k := range keys {
			if len(k) > 1024 {
				k = k[:1024]
			}
			kv, err := r.Read()
			if err != nil {
				return false
			}
			if !bytes.Equal(kv.Field("key").AsBytes(), k) {
				return false
			}
			if string(Value(kv)) != strconv.Itoa(i) {
				return false
			}
		}
		_, err := r.Read()
		return err == io.EOF
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkWriterThroughput(b *testing.B) {
	w := NewWriter(io.Discard)
	key := []byte("benchmark")
	val := []byte("1")
	b.SetBytes(int64(8 + len(key) + len(val)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.Write(key, val)
	}
	w.Flush()
}

// TestFieldSlotsMatchDesc pins every init-time slot to its field's index
// in Desc, so a grammar edit cannot leave a stale slot behind.
func TestFieldSlotsMatchDesc(t *testing.T) {
	for name, slot := range map[string]int{"key": SlotKey, "value": SlotValue} {
		if want := Desc.FieldIndex(name); slot != want || want < 0 {
			t.Errorf("slot of %q = %d, Desc.FieldIndex = %d", name, slot, want)
		}
	}
}
