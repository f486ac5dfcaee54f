// Package memcache provides helpers over the Memcached binary protocol
// grammar: typed message constructors and blocking conn-level send/receive
// used by the backend server, the Moxi-like baseline and the load
// generators. The FLICK data path itself uses the grammar codec directly
// inside input/output tasks.
//
// # Ownership of received messages
//
// Messages returned by Conn.Receive, Conn.RoundTrip and ReadMessage are
// zero-copy views over pooled wire bytes: every byte field (key, value,
// _raw) aliases the refcounted region the network bytes landed in. Callers
// MUST call Release on each received message once done with it — or hand
// the batch to ReleaseAll — otherwise the pooled region never recycles and
// ref-balance assertions (refgets == refputs) fail. Bytes that must
// outlive the message belong in an owned copy (value.Owned / Detach)
// taken before the Release.
package memcache

import (
	"fmt"
	"io"
	"net"

	"flick/internal/buffer"
	"flick/internal/grammar"
	"flick/internal/value"
)

// Protocol constants re-exported from the grammar for convenience.
const (
	MagicRequest  = grammar.MemcachedMagicRequest
	MagicResponse = grammar.MemcachedMagicResponse
	OpGet         = grammar.MemcachedOpGet
	OpSet         = grammar.MemcachedOpSet
	OpGetK        = grammar.MemcachedOpGetK
	// OpNoop is the binary-protocol no-op: a 24-byte header in, a 24-byte
	// header out. The upstream layer's health probes use it, and it is
	// the canonical terminator of a quiet-get batch.
	OpNoop = 0x0a
	// Quiet read opcodes: a hit responds, a miss stays silent. A run of
	// these terminated by a non-quiet request (Noop, Get) pipelines as
	// one FIFO batch through the shared upstream layer (moxi-style
	// quiet-get pipelining).
	OpGetQ  = 0x09
	OpGetKQ = 0x0d
	// OpQuitQ closes the connection without a response — never legal on a
	// shared socket.
	OpQuitQ = 0x17

	// Mutation opcodes — the response cache treats each as a write-through
	// invalidation of its key (quiet variants are op|0x10 and classify the
	// same way by key presence).
	OpAdd       = 0x02
	OpReplace   = 0x03
	OpDelete    = 0x04
	OpIncrement = 0x05
	OpDecrement = 0x06
	OpAppend    = 0x0e
	OpPrepend   = 0x0f
	// OpQuit ends the session; OpFlush (flush_all) drops every key.
	OpQuit    = 0x07
	OpFlush   = 0x08
	OpVersion = 0x0b
	OpStat    = 0x10

	// Quiet mutation opcodes (op | 0x10 of their loud twins): acked only on
	// failure, but each still names exactly one key — the response cache
	// scopes them to single-key invalidations rather than a full clear.
	OpSetQ       = 0x11
	OpAddQ       = 0x12
	OpReplaceQ   = 0x13
	OpDeleteQ    = 0x14
	OpIncrementQ = 0x15
	OpDecrementQ = 0x16
	OpAppendQ    = 0x19
	OpPrependQ   = 0x1a
	// OpFlushQ drops every key without an ack — the one quiet op that is
	// genuinely keyless.
	OpFlushQ = 0x18
	// Touch and get-and-touch mutate a key's expiry (and GAT* also read):
	// the proxy cache can't mirror per-key TTL changes, so each
	// invalidates its key.
	OpTouch = 0x1c
	OpGAT   = 0x1d
	OpGATQ  = 0x1e
	OpGATK  = 0x23
	OpGATKQ = 0x24

	StatusOK          = 0x0000
	StatusKeyNotFound = 0x0001
)

// ProbeRequest returns the wire bytes of one Noop request — the
// lightweight liveness probe the shared upstream layer round-trips against
// memcached backends (upstream.Config.Probe). Noop is not a quiet opcode,
// so FrameRequestLen accepts it and FIFO correlation holds.
func ProbeRequest() []byte {
	req := make([]byte, 24)
	req[0] = MagicRequest
	req[1] = OpNoop
	return req
}

// Codec is the full-fidelity compiled Memcached grammar. Raw capture is on:
// decoded commands keep a zero-copy view of their wire image, so proxying
// an unmodified command re-emits the original pooled bytes without
// re-serialising (and without copying, on the scatter output path).
var Codec = grammar.MemcachedUnit().MustCompile(grammar.CaptureRaw())

// Desc describes Memcached command records.
var Desc = Codec.Desc()

// Field slots of Desc, resolved once so the helpers here and the cache
// adapter index records instead of looking fields up by name.
var (
	SlotMagic  = Desc.FieldIndex("magic_code")
	SlotOpcode = Desc.FieldIndex("opcode")
	SlotStatus = Desc.FieldIndex("status_or_v_bucket")
	SlotOpaque = Desc.FieldIndex("opaque")
	SlotKey    = Desc.FieldIndex("key")
	SlotValue  = Desc.FieldIndex("value")
	SlotRaw    = Desc.FieldIndex("_raw")
)

// Request builds a request record.
func Request(opcode byte, key, val []byte) value.Value {
	rec := Desc.New()
	rec.L[SlotMagic] = value.Int(MagicRequest)
	rec.L[SlotOpcode] = value.Int(int64(opcode))
	rec.L[SlotKey] = value.Bytes(key)
	rec.L[SlotValue] = value.Bytes(val)
	return rec
}

// Response builds a response record mirroring a request's opcode and opaque.
func Response(req value.Value, status int, key, val []byte) value.Value {
	rec := Desc.New()
	rec.L[SlotMagic] = value.Int(MagicResponse)
	rec.L[SlotOpcode] = req.At(SlotOpcode)
	rec.L[SlotOpaque] = req.At(SlotOpaque)
	rec.L[SlotStatus] = value.Int(int64(status))
	rec.L[SlotKey] = value.Bytes(key)
	rec.L[SlotValue] = value.Bytes(val)
	return rec
}

// IsResponse reports whether msg carries the response magic.
func IsResponse(msg value.Value) bool {
	return msg.IntAt(SlotMagic) == MagicResponse
}

// Status returns a response's status field.
func Status(msg value.Value) int {
	return int(msg.IntAt(SlotStatus))
}

// Conn wraps a net.Conn with message framing in both directions.
type Conn struct {
	conn net.Conn
	dec  grammar.StreamDecoder
	q    *buffer.Queue
	rbuf []byte
	wbuf []byte
}

// NewConn wraps c for message-oriented use.
func NewConn(c net.Conn) *Conn {
	return &Conn{
		conn: c,
		dec:  Codec.NewDecoder(),
		q:    buffer.NewQueue(nil),
		rbuf: make([]byte, 16<<10),
	}
}

// Send encodes and writes one message.
func (c *Conn) Send(msg value.Value) error {
	out, err := Codec.Encode(c.wbuf[:0], msg)
	if err != nil {
		return err
	}
	c.wbuf = out[:0]
	_, err = c.conn.Write(out)
	return err
}

// Receive blocks until one complete message arrives. The message retains
// pooled wire bytes — the caller must Release it (see the package note on
// ownership).
func (c *Conn) Receive() (value.Value, error) {
	for {
		if msg, ok, err := c.dec.Decode(c.q); err != nil {
			return value.Null, err
		} else if ok {
			return msg, nil
		}
		n, err := c.conn.Read(c.rbuf)
		if n > 0 {
			c.q.Append(c.rbuf[:n])
			continue
		}
		if err != nil {
			return value.Null, err
		}
	}
}

// RoundTrip sends a request and waits for its response. The response
// retains pooled wire bytes — the caller must Release it (see the package
// note on ownership).
func (c *Conn) RoundTrip(req value.Value) (value.Value, error) {
	if err := c.Send(req); err != nil {
		return value.Null, err
	}
	return c.Receive()
}

// ReleaseAll releases every message in msgs, skipping Null values — the
// one-liner for callers that accumulated several pooled responses (see the
// package note on ownership).
func ReleaseAll(msgs ...value.Value) {
	for _, m := range msgs {
		if m.Kind != value.KindNull {
			m.Release()
		}
	}
}

// Close closes the underlying connection.
func (c *Conn) Close() error { return c.conn.Close() }

// ReadMessage reads exactly one framed message from r without buffering
// beyond the message (used where a shared bufio layer is undesirable).
func ReadMessage(r io.Reader) (value.Value, error) {
	var header [24]byte
	if _, err := io.ReadFull(r, header[:]); err != nil {
		return value.Null, err
	}
	totalLen := int(uint32(header[8])<<24 | uint32(header[9])<<16 | uint32(header[10])<<8 | uint32(header[11]))
	if totalLen > grammar.DefaultMaxMessage {
		return value.Null, fmt.Errorf("memcache: body of %d bytes too large", totalLen)
	}
	body := make([]byte, totalLen)
	if _, err := io.ReadFull(r, body); err != nil {
		return value.Null, err
	}
	q := buffer.NewQueue(nil)
	q.Append(header[:])
	q.Append(body)
	msg, ok, err := Codec.NewDecoder().Decode(q)
	if err != nil {
		return value.Null, err
	}
	if !ok {
		return value.Null, fmt.Errorf("memcache: short message")
	}
	return msg, nil
}
