package grammar

import (
	"fmt"
	"sync"

	"flick/internal/buffer"
	"flick/internal/value"
)

// encScratch is the per-Encode working set, recycled through a freelist so
// the rebuild path does not allocate in steady state.
type encScratch struct {
	lens   []int
	fields []value.Value
}

var encScratches = sync.Pool{New: func() any { return new(encScratch) }}

func getEncScratch(n int) *encScratch {
	s := encScratches.Get().(*encScratch)
	if cap(s.lens) < n {
		s.lens = make([]int, n)
		s.fields = make([]value.Value, n)
	}
	s.lens = s.lens[:n]
	s.fields = s.fields[:n]
	return s
}

func (s *encScratch) put() {
	for i := range s.fields {
		s.fields[i] = value.Null
	}
	encScratches.Put(s)
}

// Encode implements WireFormat. It appends msg's wire form to dst. Integer
// fields carrying &serialize expressions are recomputed from the current
// field contents (the paper's Listing 2: "During serialisation, the values
// of extras_len, key_len, and value_len are updated according to the sizes
// of the values stored in the ... fields"), so a program may mutate a
// message's payload fields and the framing stays consistent. msg itself is
// not modified.
func (c *Codec) Encode(dst []byte, msg value.Value) ([]byte, error) {
	if msg.Desc() != c.desc {
		return dst, fmt.Errorf("%w: encode of %v message with %q codec", ErrMalformed, msg.Kind, c.unit.Name)
	}
	// Raw fast path: a captured, unmodified wire image is copied verbatim
	// (the paper's "simply copied in their wire format representation").
	// Programs that mutate fields must clear the image (ClearRaw).
	if raw := c.rawView(msg); raw != nil {
		return append(dst, raw...), nil
	}
	return c.rebuild(dst, msg)
}

// rawView returns the captured wire image, or nil when absent/cleared.
func (c *Codec) rawView(msg value.Value) []byte {
	if c.rawSlot >= 0 && c.rawSlot < len(msg.L) && msg.L[c.rawSlot].Kind != value.KindNull {
		return msg.L[c.rawSlot].B
	}
	return nil
}

// rebuild re-serialises msg from its current field contents.
func (c *Codec) rebuild(dst []byte, msg value.Value) ([]byte, error) {
	sc := getEncScratch(len(c.fields))
	defer sc.put()
	lens, fields := sc.lens, sc.fields

	// Pass 1: compute the encoded byte length of every field.
	for i := range c.fields {
		f := &c.fields[i]
		switch f.Kind {
		case KindUint, KindFixedBytes:
			lens[i] = f.Size
		case KindLiteral:
			lens[i] = len(f.Lit)
		case KindBytes:
			lens[i] = msg.L[i].ByteLen()
		case KindUntil:
			lens[i] = msg.L[i].ByteLen() // delimiter appended separately
		case KindVar:
			lens[i] = msg.L[i].ByteLen()
		}
	}

	// Pass 2: recompute fields with &serialize expressions over a scratch
	// copy so Encode stays pure.
	copy(fields, msg.L[:len(c.fields)])
	for i := range c.fields {
		f := &c.fields[i]
		if f.serialize != nil {
			fields[i] = value.Int(f.serialize(fields, lens))
		}
	}

	// Pass 3: emit wire bytes.
	for i := range c.fields {
		f := &c.fields[i]
		switch f.Kind {
		case KindUint:
			dst = encodeUint(dst, fields[i].AsInt(), f.Size, c.unit.Order)
		case KindFixedBytes:
			b := fields[i].AsBytes()
			if len(b) >= f.Size {
				dst = append(dst, b[:f.Size]...)
			} else {
				dst = append(dst, b...)
				for j := len(b); j < f.Size; j++ {
					dst = append(dst, 0)
				}
			}
		case KindLiteral:
			dst = append(dst, f.Lit...)
		case KindBytes:
			dst = append(dst, fields[i].AsBytes()...)
		case KindUntil:
			dst = append(dst, fields[i].AsBytes()...)
			dst = append(dst, f.Delim...)
		case KindVar:
			// no wire presence
		}
	}
	return dst, nil
}

// EncodeScatter implements ScatterEncoder. Messages with a captured,
// unmodified wire image are appended to sc as a zero-copy reference into
// the message's pooled region (retained until the flush completes);
// modified messages are rebuilt through scratch and copied into sc's pooled
// tail. The possibly-grown scratch is returned for reuse.
func (c *Codec) EncodeScatter(sc *buffer.Scatter, scratch []byte, msg value.Value) ([]byte, error) {
	if msg.Desc() != c.desc {
		return scratch, fmt.Errorf("%w: encode of %v message with %q codec", ErrMalformed, msg.Kind, c.unit.Name)
	}
	if raw := c.rawView(msg); raw != nil {
		sc.AppendRef(raw, msg.Region())
		return scratch, nil
	}
	out, err := c.rebuild(scratch[:0], msg)
	if err != nil {
		return out, err
	}
	sc.Append(out)
	return out, nil
}
