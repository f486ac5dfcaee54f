package loadgen

import (
	"encoding/binary"
	"errors"
	"net"
	"os"
	"time"
)

// Memcached binary protocol: 24-byte header, then extras, key, value.
const (
	mcHeader     = 24
	mcMagicReq   = 0x80
	mcMagicResp  = 0x81
	mcOpGet      = 0x00
	mcOpSet      = 0x01
	mcOpNoop     = 0x0a
	mcStatusOK   = 0x0000
	mcStatusUnk  = 0x0081
	mcGetExtras  = 4 // flags
	mcSetExtras  = 8 // flags, expiry
	mcOpaqueOff  = 12
	mcStatusOff  = 6
	mcBodyLenOff = 8
)

func appendMCHeader(dst []byte, magic, opcode byte, keyLen, extLen, status, bodyLen int, opaque uint32) []byte {
	var h [mcHeader]byte
	h[0], h[1], h[4] = magic, opcode, byte(extLen)
	binary.BigEndian.PutUint16(h[2:], uint16(keyLen))
	binary.BigEndian.PutUint16(h[mcStatusOff:], uint16(status))
	binary.BigEndian.PutUint32(h[mcBodyLenOff:], uint32(bodyLen))
	binary.BigEndian.PutUint32(h[mcOpaqueOff:], opaque)
	return append(dst, h[:]...)
}

// appendMCRequest appends a GET of key, or a SET of key to its value at
// version.
func (t Traffic) appendMCRequest(dst, key []byte, set bool, version, opaque uint32) []byte {
	if !set {
		dst = appendMCHeader(dst, mcMagicReq, mcOpGet, len(key), 0, 0, len(key), opaque)
		return append(dst, key...)
	}
	dst = appendMCHeader(dst, mcMagicReq, mcOpSet, len(key), mcSetExtras, 0, mcSetExtras+len(key)+t.ValueSize, opaque)
	dst = append(dst, 0, 0, 0, 0, 0, 0, 0, 0) // mcSetExtras: flags, expiry
	dst = append(dst, key...)
	return AppendValue(dst, key, version, t.ValueSize)
}

// appendMCGetHead appends a GET response up to where its valLen-byte value
// starts.
func appendMCGetHead(dst []byte, valLen int, opaque uint32) []byte {
	dst = appendMCHeader(dst, mcMagicResp, mcOpGet, 0, mcGetExtras, mcStatusOK, mcGetExtras+valLen, opaque)
	return append(dst, 0, 0, 0, 0)
}

// mcFrameLen reports the length of the memcached message at the head of b.
func mcFrameLen(b []byte) (int, bool) {
	if len(b) < mcHeader {
		return 0, false
	}
	n := mcHeader + int(binary.BigEndian.Uint32(b[mcBodyLenOff:]))
	return n, len(b) >= n
}

// mcSlots bounds Window; a slot index is the low bits of the opaque.
const mcSlots = 16

type mcSlot struct {
	busy    bool
	set     bool
	own     bool // GET of a key only this connection writes
	opaque  uint32
	key     uint32
	version uint32 // SET: version written; own GET: last acked version at send
	sent    time.Time
}

// mcConn is one closed-loop memcached connection: a single goroutine that
// keeps Window requests outstanding and matches responses by opaque.
type mcConn struct {
	t     Traffic
	conn  net.Conn
	keys  [][]byte
	ops   []Op
	next  int
	me    int
	conns int

	slots [mcSlots]mcSlot
	busy  int
	gen   uint32
	// sentV/ackV are the latest version this connection sent / saw
	// acknowledged per key (allocated only when the mix has SETs).
	sentV, ackV []uint32

	rbuf, wbuf []byte
	have       int
	dlSet      time.Time
}

func newMCConn(conn net.Conn, t Traffic, keys [][]byte, ops []Op, me, conns int) *mcConn {
	c := &mcConn{t: t, conn: conn, keys: keys, ops: ops, me: me, conns: conns,
		rbuf: make([]byte, 64<<10), wbuf: make([]byte, 0, 16<<10)}
	if t.SetPct > 0 {
		c.sentV = make([]uint32, t.Keys)
		c.ackV = make([]uint32, t.Keys)
	}
	return c
}

func (c *mcConn) Close() error { return c.conn.Close() }

// Run sends requests until the deadline, then waits for the outstanding
// ones; it returns early when the connection fails.
func (c *mcConn) Run(until time.Time, r *Result) {
	for {
		now := time.Now()
		if now.Before(until) && c.busy < c.t.Window {
			c.wbuf = c.wbuf[:0]
			for i := range c.slots[:c.t.Window] {
				if !c.slots[i].busy {
					c.send(&c.slots[i], uint32(i), now)
					r.Attempted++
				}
			}
			if _, err := c.conn.Write(c.wbuf); err != nil {
				c.abort(r, err)
				return
			}
		}
		if c.busy == 0 {
			return
		}
		if now.Sub(c.dlSet) > 100*time.Millisecond {
			_ = c.conn.SetReadDeadline(now.Add(1100 * time.Millisecond)) // a failed deadline shows as a failed read
			c.dlSet = now
		}
		n, err := c.conn.Read(c.rbuf[c.have:])
		if err != nil {
			c.abort(r, err)
			return
		}
		c.have += n
		now = time.Now()
		pos := 0
		for {
			fl, ok := mcFrameLen(c.rbuf[pos:c.have])
			if !ok {
				if fl > len(c.rbuf) {
					c.abort(r, errors.New("a frame larger than any this workload sends"))
					return
				}
				break
			}
			c.receive(c.rbuf[pos:pos+fl], now, !now.After(until), r)
			pos += fl
		}
		c.have = copy(c.rbuf, c.rbuf[pos:c.have])
	}
}

func (c *mcConn) send(s *mcSlot, idx uint32, now time.Time) {
	op := c.ops[c.next]
	if c.next++; c.next == len(c.ops) {
		c.next = 0
	}
	c.gen++
	*s = mcSlot{busy: true, set: op.Set, opaque: c.gen<<4 | idx, key: op.Key, sent: now}
	if c.sentV != nil {
		if op.Set {
			c.sentV[op.Key]++
			s.version = c.sentV[op.Key]
		} else if int(op.Key)%c.conns == c.me {
			s.own, s.version = true, c.ackV[op.Key]
		}
	}
	c.busy++
	c.wbuf = c.t.appendMCRequest(c.wbuf, c.keys[op.Key], op.Set, s.version, s.opaque)
}

func (c *mcConn) receive(m []byte, now time.Time, inWindow bool, r *Result) {
	opaque := binary.BigEndian.Uint32(m[mcOpaqueOff:])
	s := &c.slots[opaque&(mcSlots-1)]
	if !s.busy || s.opaque != opaque {
		r.Fail[FailUnknownOpaque]++
		return
	}
	s.busy = false
	c.busy--
	wantOp := byte(mcOpGet)
	if s.set {
		wantOp = mcOpSet
	}
	if m[0] != mcMagicResp || m[1] != wantOp || binary.BigEndian.Uint16(m[mcStatusOff:]) != mcStatusOK {
		r.Fail[FailWrongStatus]++
		return
	}
	if s.set {
		if len(m) != mcHeader {
			r.Fail[FailWrongLength]++
			return
		}
		c.ackV[s.key] = max(c.ackV[s.key], s.version)
		r.ok(int64(now.Sub(s.sent)), inWindow)
		return
	}
	ext := int(m[4]) + int(binary.BigEndian.Uint16(m[2:]))
	if mcHeader+ext > len(m) {
		r.Fail[FailWrongLength]++
		return
	}
	v, fk := CheckValue(m[mcHeader+ext:], c.keys[s.key], c.t.ValueSize)
	if fk == FailNone && s.own && v > c.sentV[s.key] {
		fk = FailWrongValue // a version nobody has written yet
	}
	if fk != FailNone {
		r.Fail[fk]++
		return
	}
	if s.own {
		r.OwnReads++
		if v < s.version {
			r.StaleReads++
		}
	}
	r.ok(int64(now.Sub(s.sent)), inWindow)
}

// abort fails every outstanding request after a transport error.
func (c *mcConn) abort(r *Result, err error) {
	kind := FailTransport
	if errors.Is(err, os.ErrDeadlineExceeded) {
		kind = FailTimeout
	}
	r.Fail[kind] += uint64(max(c.busy, 1))
	c.busy = 0
	for i := range c.slots {
		c.slots[i].busy = false
	}
}
