package http

import (
	"fmt"

	"flick/internal/buffer"
	"flick/internal/upstream"
)

// Demultiplexing context bits carried per request through the shared
// upstream layer's FIFO (upstream.Context). FrameRequestLen captures them
// at write time; FrameResponseLen consumes them, because HTTP response
// framing is request-aware: the wire bytes of a HEAD response are
// indistinguishable from a GET response's header block.
const (
	// CtxHEAD marks a HEAD request: the response's Content-Length
	// describes an entity that is never sent, so the response is framed
	// as its header block alone.
	CtxHEAD upstream.Context = 1 << 0
)

// maxInterim bounds the 1xx interim responses accepted ahead of one final
// response (a server looping on 100 Continue would otherwise pin the
// demultiplexer forever).
const maxInterim = 8

// FrameRequestLen reports the wire length of the HTTP/1.1 request starting
// at buffered offset from in q, without consuming any byte: header block
// through the \r\n\r\n terminator plus the body (Content-Length or chunked
// transfer-encoding). It returns 0 when the buffered bytes are still a
// prefix, and an error when they cannot frame (oversized headers or body,
// a malformed or duplicated Content-Length). The shared upstream
// connection layer uses it to count requests multiplexed onto a backend
// socket; the returned upstream.Context carries what the demultiplexer
// must know to frame the response (CtxHEAD). CONNECT is still rejected —
// after its 2xx the stream stops being HTTP and can never be multiplexed.
func FrameRequestLen(q *buffer.Queue, from int) (int, upstream.Context, error) {
	headLen, f, err := frameHead(q, from, true)
	if err != nil || headLen == 0 {
		return 0, 0, err
	}
	var method [8]byte
	got := q.PeekAt(method[:], from)
	if hasTokenPrefix(method[:got], "CONNECT") {
		return 0, 0, fmt.Errorf("http: CONNECT cannot be multiplexed (the tunnel stops being HTTP)")
	}
	var ctx upstream.Context
	if hasTokenPrefix(method[:got], "HEAD") {
		ctx = CtxHEAD
	}
	body := f.bodyLen
	if f.chunked {
		n, _, _, cerr := frameChunked(q, from+headLen)
		if cerr != nil || n == 0 {
			return 0, 0, cerr
		}
		body = n
	}
	return headLen + body, ctx, nil
}

// hasTokenPrefix reports whether b starts with the token followed by a
// space (method matching on the start line).
func hasTokenPrefix(b []byte, token string) bool {
	if len(b) < len(token)+1 || b[len(token)] != ' ' {
		return false
	}
	return string(b[:len(token)]) == token
}

// FrameResponseLen is the response-direction framer the demultiplexer
// splits a pipelined backend byte stream with: it reports the wire length
// of the response owed to the request whose demux context is ctx. Framing
// is request- and status-aware: a CtxHEAD response is its header block
// alone no matter what Content-Length says, 204/304 are bodiless even when
// they carry the entity's Content-Length, 1xx interim responses are framed
// together with the final response as one delivered view, and chunked
// transfer-encoding is scanned chunk by chunk (the whole chunked body
// delivers as one retained view). A response framed only by connection
// close — no Content-Length, no chunked — returns ErrUnframeable: on a
// shared socket its end cannot be found, so the demultiplexer fails the
// socket loudly rather than deliver a truncated view.
func FrameResponseLen(q *buffer.Queue, from int, ctx upstream.Context) (int, error) {
	total := 0
	for interim := 0; ; {
		headLen, f, err := frameHead(q, from+total, false)
		if err != nil {
			return 0, err
		}
		if headLen == 0 {
			return 0, nil
		}
		if f.status >= 100 && f.status < 200 {
			if f.status == 101 {
				return 0, unframeable(f)
			}
			// Interim response: keep scanning; it and the final response
			// deliver to the requesting session as one view.
			total += headLen
			if interim++; interim > maxInterim {
				return 0, fmt.Errorf("%w: more than %d interim responses", ErrMalformed, maxInterim)
			}
			continue
		}
		switch {
		case ctx&CtxHEAD != 0 || f.status == 204 || f.status == 304:
			// Bodiless by rule (RFC 7230 §3.3.3): any Content-Length
			// describes an entity that is never sent.
			return total + headLen, nil
		case f.chunked:
			n, _, _, cerr := frameChunked(q, from+total+headLen)
			if cerr != nil || n == 0 {
				return 0, cerr
			}
			return total + headLen + n, nil
		case f.hasCL:
			return total + headLen + f.bodyLen, nil
		default:
			return 0, unframeable(f)
		}
	}
}

// frameHead scans for the header terminator at buffered offset from and
// parses the block's framing. headLen == 0 means more bytes are needed.
func frameHead(q *buffer.Queue, from int, isRequest bool) (int, framing, error) {
	scanned := from
	end, found := scanCRLFCRLF(q, &scanned)
	if !found {
		if q.Len()-from > MaxHeaderBytes {
			return 0, framing{}, fmt.Errorf("%w: headers exceed %d bytes", ErrTooLarge, MaxHeaderBytes)
		}
		return 0, framing{}, nil
	}
	headLen := end + 4 - from
	// Peek the header block through pooled scratch; the framer is stateless
	// so the copy is bounded by MaxHeaderBytes and leaves no garbage.
	ref := buffer.Global.GetRef(headLen)
	q.PeekAt(ref.Bytes(), from)
	f, err := parseFraming(ref.Bytes(), isRequest)
	ref.Release()
	if err != nil {
		return 0, framing{}, err
	}
	if f.bodyLen > MaxBodyBytes {
		return 0, framing{}, fmt.Errorf("%w: body of %d bytes", ErrTooLarge, f.bodyLen)
	}
	return headLen, f, nil
}

// frameChunked reports the wire length of the chunked body section
// starting at buffered offset from in q — every chunk-size line, chunk
// payload, the zero chunk and its trailer section through the final CRLF —
// without consuming a byte. n == 0 means the buffered bytes are still a
// prefix. dataLen is the decoded payload size and chunks the number of
// non-empty data chunks (the decoder's zero-copy fast path keys off
// chunks <= 1).
func frameChunked(q *buffer.Queue, from int) (n, dataLen, chunks int, err error) {
	off := from
	qlen := q.Len()
	for {
		size, lineLen, lerr := chunkSizeLine(q, off, qlen)
		if lerr != nil || lineLen == 0 {
			return 0, 0, 0, lerr
		}
		off += lineLen
		if size == 0 {
			break
		}
		if dataLen += size; dataLen > MaxBodyBytes {
			return 0, 0, 0, fmt.Errorf("%w: chunked body exceeds %d bytes", ErrTooLarge, MaxBodyBytes)
		}
		chunks++
		if off+size+2 > qlen {
			return 0, 0, 0, nil
		}
		cr, _ := q.PeekByte(off + size)
		lf, _ := q.PeekByte(off + size + 1)
		if cr != '\r' || lf != '\n' {
			return 0, 0, 0, fmt.Errorf("%w: chunk data not CRLF-terminated", ErrMalformed)
		}
		off += size + 2
	}
	// Trailer section: zero or more header lines, then an empty line.
	for {
		lineLen, terr := lineAt(q, off, qlen)
		if terr != nil || lineLen == 0 {
			return 0, 0, 0, terr
		}
		off += lineLen
		if lineLen == 2 { // bare CRLF: end of the chunked message
			return off - from, dataLen, chunks, nil
		}
	}
}

// lineAt reports the length, including the CRLF, of the line starting at
// buffered offset off (0 when the terminator is not buffered yet).
func lineAt(q *buffer.Queue, off, qlen int) (int, error) {
	i := q.IndexByte('\r', off)
	for i >= 0 && i+1 < qlen {
		if b, _ := q.PeekByte(i + 1); b == '\n' {
			n := i + 2 - off
			if n > MaxHeaderBytes {
				return 0, fmt.Errorf("%w: chunk line exceeds %d bytes", ErrTooLarge, MaxHeaderBytes)
			}
			return n, nil
		}
		i = q.IndexByte('\r', i+1)
	}
	if qlen-off > MaxHeaderBytes {
		return 0, fmt.Errorf("%w: chunk line exceeds %d bytes", ErrTooLarge, MaxHeaderBytes)
	}
	return 0, nil
}

// chunkSizeLine parses the chunk-size line at buffered offset off: a hex
// size, an optional ;chunk-extension (ignored), CRLF. lineLen == 0 means
// more bytes are needed.
func chunkSizeLine(q *buffer.Queue, off, qlen int) (size, lineLen int, err error) {
	n, err := lineAt(q, off, qlen)
	if err != nil || n == 0 {
		return 0, 0, err
	}
	digits, i := 0, 0
	for ; i < n-2; i++ {
		b, _ := q.PeekByte(off + i)
		var v int
		switch {
		case b >= '0' && b <= '9':
			v = int(b - '0')
		case b >= 'a' && b <= 'f':
			v = int(b-'a') + 10
		case b >= 'A' && b <= 'F':
			v = int(b-'A') + 10
		default:
			v = -1
		}
		if v < 0 {
			break
		}
		size = size<<4 | v
		if digits++; digits > 7 {
			return 0, 0, fmt.Errorf("%w: chunk size", ErrTooLarge)
		}
	}
	if digits == 0 {
		return 0, 0, fmt.Errorf("%w: missing chunk size", ErrMalformed)
	}
	if i < n-2 {
		if b, _ := q.PeekByte(off + i); b != ';' {
			return 0, 0, fmt.Errorf("%w: bad chunk-size line", ErrMalformed)
		}
	}
	return size, n, nil
}
