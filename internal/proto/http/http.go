// Package http implements a fast incremental HTTP/1.1 message codec.
//
// It is the FLICK framework's reusable HTTP grammar (§4.2): header-structured
// text formats sit outside the unit/field grammar language, so this codec is
// hand-written but implements the same grammar.WireFormat interface and
// produces the same value.Value records, making it interchangeable with
// grammar-compiled codecs in input/output tasks.
//
// Scope covers real HTTP/1.1 origins: Content-Length framing, chunked
// transfer-encoding (decoded with a zero-copy fast path for single-chunk
// bodies), status-aware bodiless responses (1xx/204/304), and the
// request-aware framing contract the shared upstream layer needs (HEAD
// responses carry a Content-Length for an entity that is never sent).
// Responses framed only by connection close have no findable end on a
// shared connection and are refused with ErrUnframeable.
package http

import (
	"errors"
	"fmt"
	"strconv"

	"flick/internal/buffer"
	"flick/internal/grammar"
	"flick/internal/value"
)

// Record fields shared by requests and responses. Requests fill method/uri;
// responses fill status/reason.
var (
	// RequestDesc describes decoded HTTP requests.
	RequestDesc = value.NewRecordDesc("http.request",
		"method", "uri", "version", "headers", "body", "content_length", "keep_alive", "_raw")
	// ResponseDesc describes decoded HTTP responses.
	ResponseDesc = value.NewRecordDesc("http.response",
		"version", "status", "reason", "headers", "body", "content_length", "keep_alive", "_raw")
)

// Field slots, resolved once so the codec and the cache adapter index
// records instead of looking fields up by name. Requests and responses
// share every slot from "headers" on.
var (
	SlotMethod      = RequestDesc.FieldIndex("method")
	SlotURI         = RequestDesc.FieldIndex("uri")
	slotReqVersion  = RequestDesc.FieldIndex("version")
	slotRespVersion = ResponseDesc.FieldIndex("version")
	SlotStatus      = ResponseDesc.FieldIndex("status")
	slotReason      = ResponseDesc.FieldIndex("reason")
	SlotHeaders     = RequestDesc.FieldIndex("headers")
	SlotBody        = RequestDesc.FieldIndex("body")
	SlotKeepAlive   = RequestDesc.FieldIndex("keep_alive")
	SlotRaw         = RequestDesc.FieldIndex("_raw")
)

// Errors.
var (
	ErrMalformed = errors.New("http: malformed message")
	ErrTooLarge  = errors.New("http: message too large")
	// ErrUnframeable marks a response whose end cannot be found on a
	// shared connection: framed only by connection close (no
	// Content-Length, no chunked encoding) or by a protocol switch (101
	// Switching Protocols). Delivering it would silently truncate, so the
	// demultiplexer fails the shared socket loudly instead.
	ErrUnframeable = errors.New("http: response not length-delimited (unframeable on a shared connection)")
)

// MaxHeaderBytes bounds the header block.
const MaxHeaderBytes = 64 << 10

// MaxBodyBytes bounds message bodies.
const MaxBodyBytes = 16 << 20

// RequestFormat decodes/encodes HTTP requests.
type RequestFormat struct{}

// ResponseFormat decodes/encodes HTTP responses.
type ResponseFormat struct{}

// FormatName implements grammar.WireFormat.
func (RequestFormat) FormatName() string { return "http.request" }

// Desc implements grammar.WireFormat.
func (RequestFormat) Desc() *value.RecordDesc { return RequestDesc }

// NewDecoder implements grammar.WireFormat.
func (RequestFormat) NewDecoder() grammar.StreamDecoder {
	return &decoder{isRequest: true}
}

// FormatName implements grammar.WireFormat.
func (ResponseFormat) FormatName() string { return "http.response" }

// Desc implements grammar.WireFormat.
func (ResponseFormat) Desc() *value.RecordDesc { return ResponseDesc }

// NewDecoder implements grammar.WireFormat.
func (ResponseFormat) NewDecoder() grammar.StreamDecoder {
	return &decoder{isRequest: false}
}

var (
	_ grammar.WireFormat = RequestFormat{}
	_ grammar.WireFormat = ResponseFormat{}
)

// decoder incrementally assembles one message at a time.
//
// Decoding is zero-copy: the header terminator is located by peeking (no
// consumption), framing is parsed from a view of the buffered header block,
// and once the full message is buffered it is consumed as one contiguous
// refcounted view drawn from the queue's pooled chunks. Every byte field of
// the record (method, uri, headers, body, _raw) is a sub-slice of that
// view; the pooled region is released when the last task drops the record.
type decoder struct {
	isRequest bool
	// header phase
	scanned   int // resume offset for the \r\n\r\n scan
	headerEnd int // bytes of the header block incl. terminator; 0 = unknown
	// body phase
	bodyLen   int
	chunked   bool // body uses chunked transfer-encoding
	keepAlive bool
	// framebuf is reusable scratch for parsing framing of header blocks
	// that straddle queue chunks (the non-contiguous slow path).
	framebuf []byte
}

func (d *decoder) reset() {
	d.scanned = 0
	d.headerEnd = 0
	d.bodyLen = 0
	d.chunked = false
	d.keepAlive = false
}

// Decode implements grammar.StreamDecoder.
func (d *decoder) Decode(q *buffer.Queue) (value.Value, bool, error) {
	if d.headerEnd == 0 {
		end, found := scanCRLFCRLF(q, &d.scanned)
		if !found {
			if q.Len() > MaxHeaderBytes {
				d.reset()
				return value.Null, false, fmt.Errorf("%w: headers exceed %d bytes", ErrTooLarge, MaxHeaderBytes)
			}
			return value.Null, false, nil
		}
		d.headerEnd = end + 4
		head := q.Contig(d.headerEnd)
		if head == nil {
			if cap(d.framebuf) < d.headerEnd {
				d.framebuf = make([]byte, d.headerEnd)
			}
			head = d.framebuf[:d.headerEnd]
			q.PeekAt(head, 0)
		}
		f, err := parseFraming(head, d.isRequest)
		if err != nil {
			d.reset()
			return value.Null, false, err
		}
		if f.bodyLen > MaxBodyBytes {
			d.reset()
			return value.Null, false, fmt.Errorf("%w: body of %d bytes", ErrTooLarge, f.bodyLen)
		}
		if !d.isRequest {
			if err := unframeable(f); err != nil {
				d.reset()
				return value.Null, false, err
			}
		}
		d.keepAlive = f.keepAlive
		switch {
		case !d.isRequest && bodilessStatus(f.status):
			// 1xx/204/304: bodiless by rule — any Content-Length
			// describes an entity the server never sends.
		case f.chunked:
			d.chunked = true
		default:
			d.bodyLen = f.bodyLen
		}
	}
	if d.chunked {
		return d.decodeChunked(q)
	}
	total := d.headerEnd + d.bodyLen
	if q.Len() < total {
		return value.Null, false, nil
	}
	raw, ref := q.TakeRef(total)
	head := raw[:d.headerEnd]
	body := raw[d.headerEnd:]

	msg, err := buildRecord(head, body, d.isRequest, d.keepAlive, raw, ref)
	d.reset()
	if err != nil {
		ref.Release()
		return value.Null, false, err
	}
	return msg, true, nil
}

// decodeChunked completes a chunked-transfer message: the whole wire image
// (header block + chunked section through the final CRLF) is consumed as
// one view. A body of at most one data chunk stays zero-copy — the body
// field sub-slices the view between the chunk-size line and its trailing
// CRLF. A multi-chunk body is discontiguous on the wire, so the wire image
// and the stitched-together payload are copied once into a fresh region
// from the queue's own pool; the record still carries the verbatim
// chunked wire in _raw, so proxy forwarding stays byte-exact.
func (d *decoder) decodeChunked(q *buffer.Queue) (value.Value, bool, error) {
	n, dataLen, chunks, err := frameChunked(q, d.headerEnd)
	if err != nil {
		d.reset()
		return value.Null, false, err
	}
	total := d.headerEnd + n
	if n == 0 || q.Len() < total {
		return value.Null, false, nil
	}
	raw, ref := q.TakeRef(total)
	head := raw[:d.headerEnd]
	var body []byte
	switch {
	case chunks > 1:
		nref := q.Pool().GetRef(total + dataLen)
		nb := nref.Bytes()
		copy(nb, raw)
		dechunkInto(nb[total:total+dataLen], raw[d.headerEnd:])
		ref.Release()
		ref = nref
		raw = nb[:total]
		head = raw[:d.headerEnd]
		body = nb[total : total+dataLen]
	case chunks == 1:
		_, rest := splitLine(raw[d.headerEnd:])
		body = rest[:dataLen]
	}
	msg, err := buildRecord(head, body, d.isRequest, d.keepAlive, raw, ref)
	d.reset()
	if err != nil {
		ref.Release()
		return value.Null, false, err
	}
	return msg, true, nil
}

// dechunkInto stitches the payloads of a complete, already-validated
// chunked section src into dst (len(dst) must equal the payload total).
func dechunkInto(dst, src []byte) {
	for {
		line, rest := splitLine(src)
		size := chunkSizeOf(line)
		if size == 0 {
			return
		}
		n := copy(dst, rest[:size])
		dst = dst[n:]
		src = rest[size+2:]
	}
}

// chunkSizeOf parses the leading hex digits of a chunk-size line that
// frameChunked has already validated.
func chunkSizeOf(line []byte) int {
	n := 0
	for _, b := range line {
		switch {
		case b >= '0' && b <= '9':
			n = n<<4 | int(b-'0')
		case b >= 'a' && b <= 'f':
			n = n<<4 | int(b-'a'+10)
		case b >= 'A' && b <= 'F':
			n = n<<4 | int(b-'A'+10)
		default:
			return n
		}
	}
	return n
}

// bodilessStatus reports the response statuses RFC 7230 §3.3.3 defines as
// never carrying a body, whatever their headers declare.
func bodilessStatus(status int) bool {
	return (status >= 100 && status < 200) || status == 204 || status == 304
}

// unframeable reports why a response with framing f has no findable end —
// a 101 protocol switch, or a body-bearing status with neither
// Content-Length nor chunked encoding, framed by connection close — or nil
// when it has one. The decoder and FrameResponseLen refuse the same
// responses through it.
func unframeable(f framing) error {
	switch {
	case f.status == 101:
		return fmt.Errorf("%w: 101 switching protocols", ErrUnframeable)
	case bodilessStatus(f.status) || f.chunked || f.hasCL:
		return nil
	}
	return fmt.Errorf("%w: status %d with neither Content-Length nor chunked encoding", ErrUnframeable, f.status)
}

// scanCRLFCRLF looks for the header terminator, resuming from *scanned.
func scanCRLFCRLF(q *buffer.Queue, scanned *int) (int, bool) {
	from := *scanned
	for {
		i := q.IndexByte('\r', from)
		if i < 0 || i+3 >= q.Len() {
			if i < 0 {
				*scanned = maxInt(0, q.Len()-3)
			} else {
				*scanned = i
			}
			return 0, false
		}
		b1, _ := q.PeekByte(i + 1)
		b2, _ := q.PeekByte(i + 2)
		b3, _ := q.PeekByte(i + 3)
		if b1 == '\n' && b2 == '\r' && b3 == '\n' {
			return i, true
		}
		from = i + 1
	}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// framing is the message-framing summary parseFraming extracts from one
// header block.
type framing struct {
	status    int  // response status code (0 for requests or unparsable lines)
	bodyLen   int  // declared Content-Length (0 when absent)
	hasCL     bool // an explicit Content-Length header was present
	chunked   bool // Transfer-Encoding: chunked
	keepAlive bool
}

// parseFraming extracts body framing and keep-alive from a header block.
// Duplicate Content-Length headers — and Content-Length combined with
// chunked transfer-encoding — are rejected with ErrMalformed per RFC 7230
// §3.3.3: forwarding either is a request-smuggling vector, so a proxy must
// refuse the message rather than pick a winner.
func parseFraming(head []byte, isRequest bool) (framing, error) {
	var f framing
	// Default keep-alive per HTTP/1.1; HTTP/1.0 defaults to close.
	line, rest := splitLine(head)
	f.keepAlive = !containsToken(line, []byte("HTTP/1.0"))
	if !isRequest {
		f.status = parseStatus(line)
	}
	for len(rest) > 0 {
		line, rest = splitLine(rest)
		if len(line) == 0 {
			break
		}
		name, val := splitHeader(line)
		switch {
		case asciiEqualFold(name, []byte("content-length")):
			n, perr := strconv.Atoi(string(trimSpace(val)))
			if perr != nil || n < 0 {
				return framing{}, fmt.Errorf("%w: bad content-length %q", ErrMalformed, val)
			}
			if f.hasCL {
				return framing{}, fmt.Errorf("%w: duplicate content-length", ErrMalformed)
			}
			f.hasCL, f.bodyLen = true, n
		case asciiEqualFold(name, []byte("connection")):
			// Connection is a token list ("close, TE"): match tokens, not
			// the whole folded value, or a close marker travelling with
			// other options fails to disable keep-alive.
			if containsToken(val, []byte("close")) {
				f.keepAlive = false
			} else if containsToken(val, []byte("keep-alive")) {
				f.keepAlive = true
			}
		case asciiEqualFold(name, []byte("transfer-encoding")):
			if containsToken(val, []byte("chunked")) {
				f.chunked = true
			}
		}
	}
	if f.chunked && f.hasCL {
		return framing{}, fmt.Errorf("%w: content-length with chunked transfer-encoding", ErrMalformed)
	}
	return f, nil
}

// parseStatus parses the status code from a response start line (0 when
// the line does not carry one).
func parseStatus(line []byte) int {
	p := indexByte(line, ' ')
	if p < 0 {
		return 0
	}
	n, digits := 0, 0
	for _, b := range line[p+1:] {
		if b == ' ' {
			break
		}
		if b < '0' || b > '9' {
			return 0
		}
		n = n*10 + int(b-'0')
		if digits++; digits > 4 {
			return 0
		}
	}
	if digits == 0 {
		return 0
	}
	return n
}

// buildRecord constructs the value record for a complete message. All byte
// fields alias raw; the record owns the caller's reference to ref and
// releases it (recycling the pooled wire bytes) when the last holder drops
// the message. On error the caller keeps its reference.
func buildRecord(head, body []byte, isRequest, keepAlive bool, raw []byte, ref *buffer.Ref) (value.Value, error) {
	start, rest := splitLine(head)
	p1 := indexByte(start, ' ')
	if p1 < 0 {
		return value.Null, fmt.Errorf("%w: start line %q", ErrMalformed, start)
	}
	p2 := indexByte(start[p1+1:], ' ')
	if p2 < 0 {
		return value.Null, fmt.Errorf("%w: start line %q", ErrMalformed, start)
	}
	p2 += p1 + 1
	a, b, c := start[:p1], start[p1+1:p2], start[p2+1:]

	ka := int64(0)
	if keepAlive {
		ka = 1
	}
	// Headers block excludes the start line and the final CRLF pair.
	headers := rest
	if len(headers) >= 2 {
		headers = headers[:len(headers)-2]
	}

	var region value.Region
	if ref != nil {
		region = ref
	}
	if isRequest {
		rec := RequestDesc.NewOwned(region)
		rec.L[0] = value.Bytes(a) // method
		rec.L[1] = value.Bytes(b) // uri
		rec.L[2] = value.Bytes(c) // version
		rec.L[3] = value.Bytes(headers)
		rec.L[4] = value.Bytes(body)
		rec.L[5] = value.Int(int64(len(body)))
		rec.L[6] = value.Int(ka)
		rec.L[7] = value.Bytes(raw)
		return rec, nil
	}
	status, err := strconv.Atoi(string(b))
	if err != nil {
		return value.Null, fmt.Errorf("%w: status %q", ErrMalformed, b)
	}
	rec := ResponseDesc.NewOwned(region)
	rec.L[0] = value.Bytes(a) // version
	rec.L[1] = value.Int(int64(status))
	rec.L[2] = value.Bytes(c) // reason
	rec.L[3] = value.Bytes(headers)
	rec.L[4] = value.Bytes(body)
	rec.L[5] = value.Int(int64(len(body)))
	rec.L[6] = value.Int(ka)
	rec.L[7] = value.Bytes(raw)
	return rec, nil
}

// Encode implements grammar.WireFormat for requests. When the record carries
// a raw image and has not been rebuilt, the raw bytes are emitted verbatim
// (the paper's "copied in their wire format representation" fast path).
func (RequestFormat) Encode(dst []byte, msg value.Value) ([]byte, error) {
	return encode(dst, msg, RequestDesc)
}

// Encode implements grammar.WireFormat for responses.
func (ResponseFormat) Encode(dst []byte, msg value.Value) ([]byte, error) {
	return encode(dst, msg, ResponseDesc)
}

// EncodeScatter implements grammar.ScatterEncoder for requests: messages
// with an intact raw image are appended by reference into their pooled
// region; rebuilt messages are serialised through scratch and copied.
func (RequestFormat) EncodeScatter(sc *buffer.Scatter, scratch []byte, msg value.Value) ([]byte, error) {
	return encodeScatter(sc, scratch, msg, RequestDesc)
}

// EncodeScatter implements grammar.ScatterEncoder for responses.
func (ResponseFormat) EncodeScatter(sc *buffer.Scatter, scratch []byte, msg value.Value) ([]byte, error) {
	return encodeScatter(sc, scratch, msg, ResponseDesc)
}

func encodeScatter(sc *buffer.Scatter, scratch []byte, msg value.Value, desc *value.RecordDesc) ([]byte, error) {
	if msg.Desc() != desc {
		return scratch, fmt.Errorf("%w: encode of %v with %s codec", ErrMalformed, msg.Kind, desc.Name)
	}
	if raw := &msg.L[SlotRaw]; raw.Kind != value.KindNull {
		sc.AppendRef(raw.B, msg.Region())
		return scratch, nil
	}
	out, err := encode(scratch[:0], msg, desc)
	if err != nil {
		return out, err
	}
	sc.Append(out)
	return out, nil
}

var (
	_ grammar.ScatterEncoder = RequestFormat{}
	_ grammar.ScatterEncoder = ResponseFormat{}
)

func encode(dst []byte, msg value.Value, desc *value.RecordDesc) ([]byte, error) {
	if msg.Desc() != desc {
		return dst, fmt.Errorf("%w: encode of %v with %s codec", ErrMalformed, msg.Kind, desc.Name)
	}
	if raw := &msg.L[SlotRaw]; raw.Kind != value.KindNull {
		return append(dst, raw.B...), nil
	}
	body := msg.BytesAt(SlotBody)
	if desc == RequestDesc {
		dst = append(dst, msg.BytesAt(SlotMethod)...)
		dst = append(dst, ' ')
		dst = append(dst, msg.BytesAt(SlotURI)...)
		dst = append(dst, ' ')
		dst = appendVersion(dst, msg.BytesAt(slotReqVersion))
	} else {
		dst = appendVersion(dst, msg.BytesAt(slotRespVersion))
		dst = append(dst, ' ')
		dst = strconv.AppendInt(dst, msg.IntAt(SlotStatus), 10)
		dst = append(dst, ' ')
		reason := msg.BytesAt(slotReason)
		if len(reason) == 0 {
			reason = statusReason(int(msg.IntAt(SlotStatus)))
		}
		dst = append(dst, reason...)
	}
	dst = append(dst, '\r', '\n')
	// Emit the headers block minus any Content-Length or
	// Transfer-Encoding line: the encoder Content-Length-frames the
	// current body, so a stale Content-Length would duplicate and a stale
	// "chunked" marker would contradict the emitted framing (the decoded
	// body is already de-chunked).
	if h := msg.BytesAt(SlotHeaders); len(h) > 0 {
		block := h
		for len(block) > 0 {
			var line []byte
			line, block = splitLine(block)
			name, _ := splitHeader(line)
			if asciiEqualFold(name, []byte("content-length")) ||
				asciiEqualFold(name, []byte("transfer-encoding")) {
				continue
			}
			dst = append(dst, line...)
			dst = append(dst, '\r', '\n')
		}
	}
	dst = append(dst, []byte("Content-Length: ")...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, '\r', '\n', '\r', '\n')
	dst = append(dst, body...)
	return dst, nil
}

// appendVersion appends a message's protocol version, defaulting to
// HTTP/1.1 for program-built messages that set none.
func appendVersion(dst, version []byte) []byte {
	if len(version) == 0 {
		return append(dst, "HTTP/1.1"...)
	}
	return append(dst, version...)
}

// statusReason supplies a default reason phrase.
func statusReason(status int) []byte {
	switch status {
	case 200:
		return []byte("OK")
	case 404:
		return []byte("Not Found")
	case 500:
		return []byte("Internal Server Error")
	case 502:
		return []byte("Bad Gateway")
	default:
		return []byte("Status")
	}
}

// Header returns the value of the named header within a decoded message's
// headers block ("" when absent). Matching is case-insensitive.
func Header(msg value.Value, name string) string {
	v, ok := HeaderBytes(msg, name)
	if !ok {
		return ""
	}
	return string(v)
}

// HeaderBytes returns the named header's trimmed value as a zero-copy view
// into the decoded message's header block, and whether the header is
// present — the allocation-free counterpart of Header for hot paths. The
// view is valid only while the message is.
func HeaderBytes(msg value.Value, name string) ([]byte, bool) {
	return findHeader(msg.BytesAt(SlotHeaders), name)
}

// findHeader returns the named header's trimmed value within a block of
// header lines, and whether the header is present.
func findHeader(block []byte, name string) ([]byte, bool) {
	for len(block) > 0 {
		var line []byte
		line, block = splitLine(block)
		n, v := splitHeader(line)
		if asciiEqualFoldStr(n, name) {
			return trimSpace(v), true
		}
	}
	return nil, false
}

// --- small byte helpers (kept local to avoid bytes import in hot paths) ---

func splitLine(b []byte) (line, rest []byte) {
	for i := 0; i+1 < len(b); i++ {
		if b[i] == '\r' && b[i+1] == '\n' {
			return b[:i], b[i+2:]
		}
	}
	return b, nil
}

func splitHeader(line []byte) (name, val []byte) {
	i := indexByte(line, ':')
	if i < 0 {
		return line, nil
	}
	return line[:i], line[i+1:]
}

func indexByte(b []byte, c byte) int {
	for i, x := range b {
		if x == c {
			return i
		}
	}
	return -1
}

func trimSpace(b []byte) []byte {
	for len(b) > 0 && (b[0] == ' ' || b[0] == '\t') {
		b = b[1:]
	}
	for len(b) > 0 && (b[len(b)-1] == ' ' || b[len(b)-1] == '\t') {
		b = b[:len(b)-1]
	}
	return b
}

func asciiLower(c byte) byte {
	if 'A' <= c && c <= 'Z' {
		return c + 'a' - 'A'
	}
	return c
}

func asciiEqualFold(a, b []byte) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if asciiLower(a[i]) != asciiLower(b[i]) {
			return false
		}
	}
	return true
}

// asciiEqualFoldStr is asciiEqualFold against a string, so callers with a
// string name (including substrings of a larger rule string) never pay a
// []byte conversion allocation.
func asciiEqualFoldStr(a []byte, s string) bool {
	if len(a) != len(s) {
		return false
	}
	for i := range a {
		if asciiLower(a[i]) != asciiLower(s[i]) {
			return false
		}
	}
	return true
}

// containsToken reports whether the comma- or space-separated list hay
// contains needle as a WHOLE token, ASCII case-insensitively. Substring
// matching would be wrong twice over: "Connection: disclosed" must not
// read as close, and "keep-alive-ish" must not read as keep-alive.
func containsToken(hay, needle []byte) bool {
	if len(needle) == 0 {
		return false
	}
	for i := 0; i < len(hay); {
		for i < len(hay) && (hay[i] == ',' || hay[i] == ' ' || hay[i] == '\t') {
			i++
		}
		start := i
		for i < len(hay) && hay[i] != ',' && hay[i] != ' ' && hay[i] != '\t' {
			i++
		}
		if asciiEqualFold(hay[start:i], needle) {
			return true
		}
	}
	return false
}

// ProbeRequest returns the wire bytes of a body-less `OPTIONS *` request —
// the lightweight liveness probe the shared upstream layer round-trips
// against HTTP backends (upstream.Config.Probe). OPTIONS responses are
// Content-Length framed, so FrameRequestLen/FrameResponseLen handle it
// like any pooled request.
func ProbeRequest() []byte {
	return BuildRequest(nil, "OPTIONS", "*", "probe", true, nil)
}

// BuildRequest appends a complete HTTP/1.1 request (start line, Host,
// Connection and Content-Length headers, body) to dst and returns it —
// the raw-bytes twin of RequestFormat.Encode for clients and tests.
func BuildRequest(dst []byte, method, uri, host string, keepAlive bool, body []byte) []byte {
	dst = append(dst, method...)
	dst = append(dst, ' ')
	dst = append(dst, uri...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, host...)
	dst = append(dst, '\r', '\n')
	if !keepAlive {
		dst = append(dst, "Connection: close\r\n"...)
	}
	if len(body) > 0 {
		dst = append(dst, "Content-Length: "...)
		dst = strconv.AppendInt(dst, int64(len(body)), 10)
		dst = append(dst, '\r', '\n')
	}
	dst = append(dst, '\r', '\n')
	dst = append(dst, body...)
	return dst
}

// BuildNotModified renders a minimal 304 Not Modified carrying the given
// validators (either may be empty) — the response a cache synthesizes for
// a conditional request whose validators match a stored entry. 304 is a
// bodiless status (the decoder's bodilessStatus set), so no framing
// headers are emitted.
func BuildNotModified(dst []byte, etag, lastMod []byte) []byte {
	dst = append(dst, "HTTP/1.1 304 Not Modified\r\n"...)
	if len(etag) > 0 {
		dst = append(dst, "ETag: "...)
		dst = append(dst, etag...)
		dst = append(dst, '\r', '\n')
	}
	if len(lastMod) > 0 {
		dst = append(dst, "Last-Modified: "...)
		dst = append(dst, lastMod...)
		dst = append(dst, '\r', '\n')
	}
	return append(dst, '\r', '\n')
}

// BuildConditionalGet renders the upstream revalidation request for a
// cached entry: a keep-alive GET carrying If-None-Match when an entity tag
// is known (the stronger validator wins), If-Modified-Since otherwise, or
// neither — a plain background refresh — when the entry stored no
// validators.
func BuildConditionalGet(dst []byte, uri, host, etag, lastMod []byte) []byte {
	dst = append(dst, "GET "...)
	dst = append(dst, uri...)
	dst = append(dst, " HTTP/1.1\r\nHost: "...)
	dst = append(dst, host...)
	dst = append(dst, '\r', '\n')
	if len(etag) > 0 {
		dst = append(dst, "If-None-Match: "...)
		dst = append(dst, etag...)
		dst = append(dst, '\r', '\n')
	} else if len(lastMod) > 0 {
		dst = append(dst, "If-Modified-Since: "...)
		dst = append(dst, lastMod...)
		dst = append(dst, '\r', '\n')
	}
	return append(dst, '\r', '\n')
}

// BuildResponse renders a 200 response with the given body (backend helper).
func BuildResponse(dst []byte, status int, reason string, keepAlive bool, body []byte) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(status), 10)
	dst = append(dst, ' ')
	dst = append(dst, reason...)
	dst = append(dst, '\r', '\n')
	if !keepAlive {
		dst = append(dst, "Connection: close\r\n"...)
	}
	dst = append(dst, "Content-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(body)), 10)
	dst = append(dst, "\r\n\r\n"...)
	dst = append(dst, body...)
	return dst
}
