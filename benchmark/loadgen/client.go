package loadgen

import (
	"errors"
	"net"
	"time"
)

// Conn is one closed-loop client connection.
type Conn interface {
	// Run drives the connection until the deadline and adds what it
	// observed to r. A Conn keeps its place in the stream between Runs.
	Run(until time.Time, r *Result)
	Close() error
}

// Dial connects client me (of conns) to addr. keys is t.KeyTable() and ops
// the client's stream, which it cycles through.
func Dial(addr string, t Traffic, keys [][]byte, ops []Op, me, conns int) (Conn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	if t.Proto == HTTP {
		if t.Window != 1 {
			conn.Close()
			return nil, errors.New("loadgen: the HTTP client keeps exactly one request outstanding")
		}
		return newHTTPConn(conn, t, keys, ops), nil
	}
	if t.Window < 1 || t.Window > mcSlots {
		conn.Close()
		return nil, errors.New("loadgen: memcached window out of range")
	}
	return newMCConn(conn, t, keys, ops, me, conns), nil
}

// AppendRequest appends the wire bytes of one request: a GET of key, or a
// SET of key to its value at version (memcached only).
func (t Traffic) AppendRequest(dst, key []byte, set bool, version, opaque uint32) []byte {
	if t.Proto == HTTP {
		return appendHTTPRequest(dst, key)
	}
	return t.appendMCRequest(dst, key, set, version, opaque)
}

// AppendResponse appends the origin's answer to AppendRequest(key, set, ...)
// for a key nobody has SET before: the version-0 value, or the SET's
// acknowledgement.
func (t Traffic) AppendResponse(dst, key []byte, set bool, opaque uint32) []byte {
	switch {
	case t.Proto == HTTP:
		return appendHTTPResponse(dst, key, t.ValueSize)
	case set:
		return appendMCHeader(dst, mcMagicResp, mcOpSet, 0, 0, mcStatusOK, 0, opaque)
	}
	return AppendValue(appendMCGetHead(dst, t.ValueSize, opaque), key, 0, t.ValueSize)
}

// FrameLen reports the length of the message at the head of b and whether
// b holds all of it.
func (t Traffic) FrameLen(b []byte) (int, bool) {
	if t.Proto == HTTP {
		return httpFrameLen(b)
	}
	return mcFrameLen(b)
}

// Exchange opens a fresh connection to addr, sends req and returns the one
// response it draws.
func (t Traffic) Exchange(addr string, req []byte, timeout time.Duration) ([]byte, error) {
	conn, err := net.DialTimeout("tcp", addr, timeout)
	if err != nil {
		return nil, err
	}
	defer conn.Close()
	if err := conn.SetDeadline(time.Now().Add(timeout)); err != nil {
		return nil, err
	}
	if _, err := conn.Write(req); err != nil {
		return nil, err
	}
	buf := make([]byte, 0, 4096)
	for {
		if len(buf) == cap(buf) {
			buf = append(buf, 0)[:len(buf)]
		}
		n, err := conn.Read(buf[len(buf):cap(buf)])
		if err != nil {
			return nil, err
		}
		buf = buf[:len(buf)+n]
		if fl, ok := t.FrameLen(buf); ok {
			return buf[:fl], nil
		}
	}
}
