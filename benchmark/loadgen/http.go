package loadgen

import (
	"bytes"
	"errors"
	"net"
	"strconv"
	"time"
)

const (
	httpHeadEnd = "\r\n\r\n"
	httpCL      = "Content-Length: "
	httpOKLine  = "HTTP/1.1 200 OK\r\n"
)

func appendHTTPRequest(dst, path []byte) []byte {
	dst = append(append(dst, "GET "...), path...)
	return append(dst, " HTTP/1.1\r\nHost: bench\r\n\r\n"...)
}

func appendHTTPHead(dst []byte, bodyLen int) []byte {
	dst = append(dst, httpOKLine+"Content-Type: application/octet-stream\r\n"+httpCL...)
	dst = strconv.AppendInt(dst, int64(bodyLen), 10)
	return append(dst, httpHeadEnd...)
}

// appendHTTPResponse appends the origin's answer to a GET of path.
func appendHTTPResponse(dst, path []byte, bodyLen int) []byte {
	return AppendValue(appendHTTPHead(dst, bodyLen), path, 0, bodyLen)
}

// httpFrameLen reports the length of the HTTP message at the head of b:
// its header block plus the body its Content-Length declares (none: 0).
func httpFrameLen(b []byte) (int, bool) {
	end := bytes.Index(b, []byte(httpHeadEnd))
	if end < 0 {
		return 0, false
	}
	n := end + len(httpHeadEnd)
	if i := bytes.Index(b[:end], []byte(httpCL)); i >= 0 {
		v := b[i+len(httpCL) : end]
		if j := bytes.IndexByte(v, '\r'); j >= 0 {
			v = v[:j]
		}
		cl, err := strconv.Atoi(string(v))
		if err != nil || cl < 0 {
			return 1 << 30, false // unframeable: the caller gives up
		}
		n += cl
	}
	return n, len(b) >= n
}

// httpConn is one closed-loop HTTP/1.1 connection with one request
// outstanding.
type httpConn struct {
	t    Traffic
	conn net.Conn
	keys [][]byte
	ops  []Op
	next int

	head       []byte // the response head every answer must carry
	rbuf, wbuf []byte
	dlSet      time.Time
}

func newHTTPConn(conn net.Conn, t Traffic, keys [][]byte, ops []Op) *httpConn {
	return &httpConn{t: t, conn: conn, keys: keys, ops: ops,
		head: appendHTTPHead(nil, t.ValueSize), rbuf: make([]byte, 128<<10)}
}

func (c *httpConn) Close() error { return c.conn.Close() }

// Run sends one request at a time until the deadline; it returns early
// when the connection fails.
func (c *httpConn) Run(until time.Time, r *Result) {
	for {
		sent := time.Now()
		if !sent.Before(until) {
			return
		}
		key := c.keys[c.ops[c.next].Key]
		if c.next++; c.next == len(c.ops) {
			c.next = 0
		}
		c.wbuf = appendHTTPRequest(c.wbuf[:0], key)
		r.Attempted++
		if sent.Sub(c.dlSet) > 100*time.Millisecond {
			_ = c.conn.SetReadDeadline(sent.Add(1100 * time.Millisecond)) // a failed deadline shows as a failed read
			c.dlSet = sent
		}
		if _, err := c.conn.Write(c.wbuf); err != nil {
			r.Fail[failKindOf(err)]++
			return
		}
		have := 0
		for {
			n, err := c.conn.Read(c.rbuf[have:])
			if err != nil {
				r.Fail[failKindOf(err)]++
				return
			}
			have += n
			fl, ok := httpFrameLen(c.rbuf[:have])
			if ok && fl == have {
				break
			}
			if ok || fl > len(c.rbuf) || have == len(c.rbuf) {
				// Bytes beyond the one response asked for, or a frame that
				// cannot be this workload's: the stream is out of step.
				r.Fail[FailWrongLength]++
				return
			}
		}
		done := time.Now()
		if fk := c.check(c.rbuf[:have], key); fk != FailNone {
			r.Fail[fk]++
			continue
		}
		r.ok(int64(done.Sub(sent)), !done.After(until))
	}
}

func (c *httpConn) check(resp, key []byte) FailKind {
	if !bytes.HasPrefix(resp, []byte(httpOKLine)) {
		return FailWrongStatus
	}
	if !bytes.HasPrefix(resp, c.head) {
		return FailWrongLength
	}
	_, fk := CheckValue(resp[len(c.head):], key, c.t.ValueSize)
	return fk
}

func failKindOf(err error) FailKind {
	var ne net.Error
	if errors.As(err, &ne) && ne.Timeout() {
		return FailTimeout
	}
	return FailTransport
}
