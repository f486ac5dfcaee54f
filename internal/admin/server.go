package admin

import (
	"errors"
	"fmt"
	"io"
	"net"
	"strconv"
	"strings"
	"sync"
	"time"

	"flick/internal/buffer"
	"flick/internal/proto/http"
	"flick/internal/value"
)

// headerTimeout bounds how long a request's header block may take to
// arrive, counted from the accept for a connection's first request and
// from the first byte for a later one. A kept-alive connection waiting for
// its next request has no deadline. A variable so tests can shorten it;
// Start copies it into the server.
var headerTimeout = 5 * time.Second

const (
	// lingerTimeout bounds how long a connection closed on a refusal
	// keeps discarding what the peer still sends, so the refusal reaches
	// the peer instead of being lost to a TCP reset.
	lingerTimeout = time.Second
	// chunkSlack is the chunked-encoding overhead a PUT body's wire form
	// may carry beyond maxBody before it is refused unread.
	chunkSlack = 64 << 10
	// readChunk is the size of one socket read.
	readChunk = 4 << 10
)

// Server is a running admin listener.
type Server struct {
	l      net.Listener
	routes []route
	// pool backs every connection's read queue, so admin traffic never
	// draws from buffer.Global.
	pool          *buffer.Pool
	headerTimeout time.Duration

	mu     sync.Mutex
	conns  map[net.Conn]struct{}
	closed bool
	wg     sync.WaitGroup // the accept loop and every connection
}

// Start listens on addr and serves the admin API in the background. The
// returned server reports its bound address (Addr) and shuts down with
// Close.
func Start(addr string, ctl Controller) (*Server, error) {
	l, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("admin: listen %s: %w", addr, err)
	}
	s := &Server{
		l:             l,
		routes:        routes(ctl),
		pool:          buffer.NewPool(4),
		headerTimeout: headerTimeout,
		conns:         make(map[net.Conn]struct{}),
	}
	s.wg.Add(1)
	go s.accept()
	return s, nil
}

// Addr returns the listener's bound address (useful with ":0").
func (s *Server) Addr() string { return s.l.Addr().String() }

// Close stops the listener, closes open admin connections and returns
// once their goroutines have exited (a request being answered finishes
// first).
func (s *Server) Close() error {
	err := s.l.Close()
	s.mu.Lock()
	s.closed = true
	for c := range s.conns {
		c.Close()
	}
	s.mu.Unlock()
	s.wg.Wait()
	return err
}

func (s *Server) accept() {
	defer s.wg.Done()
	for {
		c, err := s.l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return
			}
			// Transient (e.g. out of file descriptors): back off.
			time.Sleep(10 * time.Millisecond)
			continue
		}
		s.mu.Lock()
		if s.closed {
			s.mu.Unlock()
			c.Close()
			return
		}
		s.conns[c] = struct{}{}
		s.wg.Add(1)
		s.mu.Unlock()
		go s.serve(c)
	}
}

// serve runs one connection. Requests are decoded in arrival order and
// answered in order, so pipelined requests get pipelined answers.
func (s *Server) serve(c net.Conn) {
	defer func() {
		s.mu.Lock()
		delete(s.conns, c)
		s.mu.Unlock()
		c.Close()
		s.wg.Done()
	}()
	q := buffer.NewQueue(s.pool)
	defer q.Reset()
	dec := http.RequestFormat{}.NewDecoder()
	var (
		head      http.Head // the current request's head, once buffered
		continued bool      // 100 Continue sent for the current request
		out       []byte
	)
	c.SetReadDeadline(time.Now().Add(s.headerTimeout))
	armed := true // the header deadline is set
	for {
		if head.Len == 0 {
			h, err := http.PeekRequestHead(q)
			if err != nil {
				status := 400
				if errors.Is(err, http.ErrTooLarge) {
					status = 431
				}
				refuse(c, out, status, err.Error())
				return
			}
			if head = h; head.Len > 0 {
				c.SetReadDeadline(time.Time{})
				armed = false
				if head.ContentLength > maxBody {
					refuse(c, out, 413, "topology body exceeds 1MiB")
					return
				}
			}
		}
		if head.Len > 0 {
			msg, ok, err := dec.Decode(q)
			switch {
			case err != nil:
				status := 400
				if errors.Is(err, http.ErrTooLarge) {
					status = 413
				}
				refuse(c, out, status, err.Error())
				return
			case ok:
				var keep bool
				out, keep = s.answer(out[:0], &msg)
				msg.Release()
				if _, err := c.Write(out); err != nil || !keep {
					return
				}
				head, continued = http.Head{}, false
				if armed = q.Len() > 0; armed {
					c.SetReadDeadline(time.Now().Add(s.headerTimeout))
				}
				continue
			case q.Len()-head.Len > maxBody+chunkSlack:
				refuse(c, out, 413, "topology body exceeds 1MiB")
				return
			case head.ExpectContinue && !continued:
				if _, err := io.WriteString(c, "HTTP/1.1 100 Continue\r\n\r\n"); err != nil {
					return
				}
				continued = true
			}
		}
		r := s.pool.GetRef(readChunk)
		n, err := c.Read(r.Bytes())
		q.AppendRead(r, n)
		if err != nil {
			return
		}
		if !armed && head.Len == 0 {
			c.SetReadDeadline(time.Now().Add(s.headerTimeout))
			armed = true
		}
	}
}

// answer routes one decoded request and appends its response to dst,
// reporting whether the connection stays open.
func (s *Server) answer(dst []byte, msg *value.Value) ([]byte, bool) {
	method := string(msg.BytesAt(http.SlotMethod))
	path, query, _ := strings.Cut(string(msg.BytesAt(http.SlotURI)), "?")
	rep := dispatch(s.routes, method, path, request{query: query, body: msg.BytesAt(http.SlotBody)})
	keep := msg.IntAt(http.SlotKeepAlive) == 1
	return appendReply(dst, rep, method != "HEAD", !keep), keep
}

// refuse answers a request the server will not read to its end, then
// half-closes and discards what the peer still sends for at most
// lingerTimeout: closing with unread input would reset the connection and
// could destroy the refusal before the peer reads it.
func refuse(c net.Conn, dst []byte, status int, msg string) {
	if _, err := c.Write(appendReply(dst[:0], errorReply(status, msg), true, true)); err != nil {
		return
	}
	if tc, ok := c.(*net.TCPConn); ok {
		tc.CloseWrite()
	}
	c.SetReadDeadline(time.Now().Add(lingerTimeout))
	io.Copy(io.Discard, c)
}

// appendReply appends r's wire form: status line, headers, Content-Length
// framing and (unless the request was HEAD) the body.
func appendReply(dst []byte, r reply, withBody, closing bool) []byte {
	dst = append(dst, "HTTP/1.1 "...)
	dst = strconv.AppendInt(dst, int64(r.status), 10)
	dst = append(dst, ' ')
	dst = append(dst, statusText(r.status)...)
	dst = append(dst, "\r\n"...)
	if r.allow != "" {
		dst = append(dst, "Allow: "...)
		dst = append(dst, r.allow...)
		dst = append(dst, "\r\n"...)
	}
	dst = append(dst, "Content-Type: "...)
	dst = append(dst, r.ctype...)
	dst = append(dst, "\r\nContent-Length: "...)
	dst = strconv.AppendInt(dst, int64(len(r.body)), 10)
	dst = append(dst, "\r\n"...)
	if closing {
		dst = append(dst, "Connection: close\r\n"...)
	}
	dst = append(dst, "\r\n"...)
	if withBody {
		dst = append(dst, r.body...)
	}
	return dst
}

// statusText is the reason phrase of every status the server sends.
func statusText(status int) string {
	switch status {
	case 200:
		return "OK"
	case 400:
		return "Bad Request"
	case 404:
		return "Not Found"
	case 405:
		return "Method Not Allowed"
	case 409:
		return "Conflict"
	case 413:
		return "Request Entity Too Large"
	case 431:
		return "Request Header Fields Too Large"
	default:
		return "Internal Server Error"
	}
}
