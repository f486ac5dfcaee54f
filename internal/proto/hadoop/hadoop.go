// Package hadoop implements the intermediate key/value stream format used
// between Hadoop mappers and the FLICK in-network aggregator: a sequence of
// length-prefixed key/value pairs (see DESIGN.md for the varint→fixed-width
// substitution note).
package hadoop

import (
	"encoding/binary"
	"fmt"
	"io"

	"flick/internal/buffer"
	"flick/internal/grammar"
	"flick/internal/value"
)

// Codec is the compiled Hadoop KV grammar. Raw capture is on (free with the
// zero-copy decoder): pairs forwarded unmodified re-emit their wire image
// by reference.
var Codec = grammar.HadoopKVUnit().MustCompile(grammar.CaptureRaw())

// Desc describes KV records (fields "key" and "value").
var Desc = Codec.Desc()

// Field slots of Desc, resolved once.
var (
	SlotKey   = Desc.FieldIndex("key")
	SlotValue = Desc.FieldIndex("value")
)

// KV builds a key/value record.
func KV(key, val []byte) value.Value {
	rec := Desc.New()
	rec.L[SlotKey] = value.Bytes(key)
	rec.L[SlotValue] = value.Bytes(val)
	return rec
}

// Key returns a record's key as a string.
func Key(msg value.Value) string { return msg.At(SlotKey).AsString() }

// Value returns a record's value bytes.
func Value(msg value.Value) []byte { return msg.BytesAt(SlotValue) }

// Writer streams KV pairs onto an io.Writer with internal batching.
type Writer struct {
	w   io.Writer
	buf []byte
}

// NewWriter creates a streaming writer.
func NewWriter(w io.Writer) *Writer {
	return &Writer{w: w, buf: make([]byte, 0, 32<<10)}
}

// Write appends one pair to the batch buffer, flushing when full.
func (w *Writer) Write(key, val []byte) error {
	var hdr [8]byte
	binary.BigEndian.PutUint32(hdr[0:], uint32(len(key)))
	binary.BigEndian.PutUint32(hdr[4:], uint32(len(val)))
	w.buf = append(w.buf, hdr[:]...)
	w.buf = append(w.buf, key...)
	w.buf = append(w.buf, val...)
	if len(w.buf) >= 16<<10 {
		return w.Flush()
	}
	return nil
}

// Flush writes any batched pairs.
func (w *Writer) Flush() error {
	if len(w.buf) == 0 {
		return nil
	}
	_, err := w.w.Write(w.buf)
	w.buf = w.buf[:0]
	return err
}

// Reader streams KV pairs off an io.Reader.
type Reader struct {
	r    io.Reader
	q    *buffer.Queue
	dec  grammar.StreamDecoder
	rbuf []byte
}

// NewReader creates a streaming reader.
func NewReader(r io.Reader) *Reader {
	return &Reader{
		r:    r,
		q:    buffer.NewQueue(nil),
		dec:  Codec.NewDecoder(),
		rbuf: make([]byte, 32<<10),
	}
}

// Read returns the next pair, or io.EOF at a clean end of stream.
func (r *Reader) Read() (value.Value, error) {
	for {
		if msg, ok, err := r.dec.Decode(r.q); err != nil {
			return value.Null, err
		} else if ok {
			return msg, nil
		}
		n, err := r.r.Read(r.rbuf)
		if n > 0 {
			r.q.Append(r.rbuf[:n])
			continue
		}
		if err == io.EOF && r.q.Len() > 0 {
			return value.Null, fmt.Errorf("hadoop: truncated pair (%d trailing bytes)", r.q.Len())
		}
		if err != nil {
			return value.Null, err
		}
	}
}
