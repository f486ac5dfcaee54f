package http

import (
	"fmt"
	"strconv"

	"flick/internal/buffer"
	"flick/internal/grammar"
	"flick/internal/value"
)

// PersistentRequestFormat encodes requests like RequestFormat but forces
// keep-alive on the wire. Middleboxes writing client requests onto a shared
// upstream connection must not forward a client's "Connection: close" — the
// backend would honour it and tear down the pooled socket under every other
// client multiplexed onto it (Connection is a hop-by-hop header; a proxy
// owns its own backend connection lifecycle). Already-persistent requests
// take the zero-copy raw fast path unchanged; close-marked requests are
// rebuilt with the Connection headers stripped and keep-alive asserted.
type PersistentRequestFormat struct{}

// FormatName implements grammar.WireFormat.
func (PersistentRequestFormat) FormatName() string { return "http.request+keepalive" }

// Desc implements grammar.WireFormat.
func (PersistentRequestFormat) Desc() *value.RecordDesc { return RequestDesc }

// NewDecoder implements grammar.WireFormat (decoding is unchanged).
func (PersistentRequestFormat) NewDecoder() grammar.StreamDecoder {
	return RequestFormat{}.NewDecoder()
}

// Encode implements grammar.WireFormat.
func (PersistentRequestFormat) Encode(dst []byte, msg value.Value) ([]byte, error) {
	if isPersistent(msg) {
		return encode(dst, msg, RequestDesc)
	}
	return encodeKeepAlive(dst, msg)
}

// EncodeScatter implements grammar.ScatterEncoder.
func (PersistentRequestFormat) EncodeScatter(sc *buffer.Scatter, scratch []byte, msg value.Value) ([]byte, error) {
	if isPersistent(msg) {
		return encodeScatter(sc, scratch, msg, RequestDesc)
	}
	out, err := encodeKeepAlive(scratch[:0], msg)
	if err != nil {
		return out, err
	}
	sc.Append(out)
	return out, nil
}

func isPersistent(msg value.Value) bool {
	return msg.IntAt(SlotKeepAlive) == 1
}

// encodeKeepAlive rebuilds a request with hop-by-hop Connection headers
// dropped and keep-alive asserted. It mirrors encode()'s rebuild path (which
// already recomputes Content-Length), so decode→encode stays a fixed point
// modulo the rewritten Connection header.
func encodeKeepAlive(dst []byte, msg value.Value) ([]byte, error) {
	if msg.Desc() != RequestDesc {
		return dst, fmt.Errorf("%w: encode of %v with %s codec", ErrMalformed, msg.Kind, RequestDesc.Name)
	}
	body := msg.BytesAt(SlotBody)
	dst = append(dst, msg.BytesAt(SlotMethod)...)
	dst = append(dst, ' ')
	dst = append(dst, msg.BytesAt(SlotURI)...)
	dst = append(dst, ' ')
	dst = appendVersion(dst, msg.BytesAt(slotReqVersion))
	dst = append(dst, '\r', '\n')
	if h := msg.BytesAt(SlotHeaders); len(h) > 0 {
		block := h
		for len(block) > 0 {
			var line []byte
			line, block = splitLine(block)
			name, _ := splitHeader(line)
			if asciiEqualFold(name, []byte("content-length")) ||
				asciiEqualFold(name, []byte("transfer-encoding")) ||
				asciiEqualFold(name, []byte("connection")) {
				continue
			}
			dst = append(dst, line...)
			dst = append(dst, '\r', '\n')
		}
	}
	dst = append(dst, []byte("Connection: keep-alive\r\nContent-Length: ")...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, '\r', '\n', '\r', '\n')
	dst = append(dst, body...)
	return dst, nil
}

var (
	_ grammar.WireFormat     = PersistentRequestFormat{}
	_ grammar.ScatterEncoder = PersistentRequestFormat{}
)
