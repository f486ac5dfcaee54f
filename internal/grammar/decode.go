package grammar

import (
	"fmt"

	"flick/internal/buffer"
	"flick/internal/value"
)

// decoder is the incremental parse state for one connection.
//
// Parsing is zero-copy and runs in two phases. The peek phase walks the
// unit's fields over the buffered bytes WITHOUT consuming them, decoding
// integer fields straight into the message's pooled record (taken from the
// desc's freelist when its first bytes arrive) and recording the byte span
// of every byte-carrying field; an incomplete field leaves the queue
// untouched until enough bytes arrive, so a message may straddle many
// Decode calls. Once every field is located the take phase consumes the
// message as ONE contiguous refcounted view (Queue.TakeRef): the record
// adopts the pooled region and its byte fields sub-slice the view. The
// steady state copies no payload bytes and allocates nothing.
type decoder struct {
	c       *Codec
	rec     value.Value // the message being parsed (Null between messages)
	fi      int         // index of the field being parsed
	pos     int         // peek offset of the parse point into the queue
	spans   [][2]int    // byte ranges into the message for aliased fields
	scanned int         // delimiter scan progress for KindUntil
}

// NewDecoder implements WireFormat.
func (c *Codec) NewDecoder() StreamDecoder {
	return &decoder{c: c, spans: make([][2]int, len(c.fields))}
}

// reset prepares the decoder for the next message. Nothing was consumed
// during the peek phase, so resetting on error leaves the queue positioned
// at the malformed message (callers drop the connection).
func (d *decoder) reset() {
	for i := range d.spans {
		d.spans[i] = [2]int{-1, 0}
	}
	d.rec = value.Value{}
	d.fi, d.pos, d.scanned = 0, 0, 0
}

// fail releases the partly parsed record and resets for err.
func (d *decoder) fail(err error) (value.Value, bool, error) {
	d.rec.Release()
	d.reset()
	return value.Value{}, false, err
}

// Decode implements StreamDecoder.
func (d *decoder) Decode(q *buffer.Queue) (value.Value, bool, error) {
	var scratch [16]byte
	if d.rec.Kind == value.KindNull {
		if q.Len() == 0 {
			return value.Value{}, false, nil
		}
		d.rec = d.c.desc.NewOwned(nil)
	}
	fields := d.rec.L // fresh: setting a Null slot's Kind and payload fills it
	for d.fi < len(d.c.fields) {
		f := &d.c.fields[d.fi]
		switch f.Kind {
		case KindUint:
			if q.Len() < d.pos+f.Size {
				return value.Value{}, false, nil
			}
			q.PeekAt(scratch[:f.Size], d.pos)
			fields[d.fi].Kind, fields[d.fi].I = value.KindInt, decodeUint(scratch[:f.Size], d.c.unit.Order)
			d.spans[d.fi] = [2]int{d.pos, f.Size}
			d.pos += f.Size

		case KindFixedBytes:
			if q.Len() < d.pos+f.Size {
				return value.Value{}, false, nil
			}
			d.spans[d.fi] = [2]int{d.pos, f.Size}
			d.pos += f.Size

		case KindBytes:
			n := int(f.length(fields, nil))
			if n < 0 {
				return d.fail(fmt.Errorf("%w: field %q computed negative length %d", ErrMalformed, f.Name, n))
			}
			if n > f.maxLen || d.pos+n > d.c.maxMsg {
				return d.fail(fmt.Errorf("%w: field %q length %d", ErrTooLarge, f.Name, n))
			}
			if q.Len() < d.pos+n {
				return value.Value{}, false, nil
			}
			d.spans[d.fi] = [2]int{d.pos, n}
			d.pos += n

		case KindLiteral:
			n := len(f.Lit)
			if q.Len() < d.pos+n {
				return value.Value{}, false, nil
			}
			probe := scratch[:]
			if n > len(probe) {
				probe = make([]byte, n)
			}
			q.PeekAt(probe[:n], d.pos)
			for i := 0; i < n; i++ {
				if probe[i] != f.Lit[i] {
					return d.fail(fmt.Errorf("%w: field %q", ErrBadLiteral, f.Name))
				}
			}
			d.pos += n

		case KindUntil:
			pos, found := d.scanDelim(q, f.Delim)
			if !found {
				if q.Len()-d.pos > f.maxLen || q.Len() > d.c.maxMsg {
					return d.fail(fmt.Errorf("%w: unterminated field %q", ErrTooLarge, f.Name))
				}
				return value.Value{}, false, nil
			}
			if pos-d.pos > f.maxLen {
				return d.fail(fmt.Errorf("%w: field %q length %d", ErrTooLarge, f.Name, pos-d.pos))
			}
			d.spans[d.fi] = [2]int{d.pos, pos - d.pos}
			d.pos = pos + len(f.Delim)
			d.scanned = 0

		case KindVar:
			fields[d.fi].Kind, fields[d.fi].I = value.KindInt, f.parse(fields, nil)
		}
		d.fi++
	}

	// Message complete: consume it as one contiguous pooled view, hand the
	// region to the record and alias the byte fields into it. The record
	// owns the caller's reference to the region and releases it when the
	// last task drops the message.
	rec := d.rec
	var view []byte
	if d.pos > 0 {
		var ref *buffer.Ref
		if view, ref = q.TakeRef(d.pos); ref != nil {
			rec.Adopt(ref)
		}
	}
	for i := range d.c.fields {
		f := &d.c.fields[i]
		if !f.needed || f.Kind == KindUint || f.Kind == KindVar {
			continue
		}
		if sp := d.spans[i]; sp[0] >= 0 {
			fields[i].Kind, fields[i].B = value.KindBytes, view[sp[0]:sp[0]+sp[1]]
		}
	}
	if d.c.rawSlot >= 0 {
		fields[d.c.rawSlot].Kind, fields[d.c.rawSlot].B = value.KindBytes, view
	}
	d.reset()
	return rec, true, nil
}

// scanDelim looks for delim in q at or after the parse point, resuming from
// d.scanned. It returns the queue offset of the delimiter start when found.
func (d *decoder) scanDelim(q *buffer.Queue, delim []byte) (int, bool) {
	from := d.scanned
	if from < d.pos {
		from = d.pos
	}
	for {
		i := q.IndexByte(delim[0], from)
		if i < 0 {
			// Resume close to the end next time (a prefix of the delimiter
			// may be buffered).
			d.scanned = max(d.pos, q.Len()-len(delim)+1)
			return 0, false
		}
		if i+len(delim) > q.Len() {
			d.scanned = i
			return 0, false
		}
		match := true
		for j := 1; j < len(delim); j++ {
			b, _ := q.PeekByte(i + j)
			if b != delim[j] {
				match = false
				break
			}
		}
		if match {
			return i, true
		}
		from = i + 1
	}
}

// decodeUint decodes a big- or little-endian unsigned integer.
func decodeUint(b []byte, order ByteOrder) int64 {
	var v uint64
	if order == BigEndian {
		for _, x := range b {
			v = v<<8 | uint64(x)
		}
	} else {
		for i := len(b) - 1; i >= 0; i-- {
			v = v<<8 | uint64(b[i])
		}
	}
	return int64(v)
}

// encodeUint appends an unsigned integer of the given width.
func encodeUint(dst []byte, v int64, size int, order ByteOrder) []byte {
	var tmp [8]byte
	u := uint64(v)
	if order == BigEndian {
		for i := size - 1; i >= 0; i-- {
			tmp[i] = byte(u)
			u >>= 8
		}
	} else {
		for i := 0; i < size; i++ {
			tmp[i] = byte(u)
			u >>= 8
		}
	}
	return append(dst, tmp[:size]...)
}
