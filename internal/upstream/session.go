package upstream

import (
	"io"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"flick/internal/buffer"
	"flick/internal/metrics"
	"flick/internal/netstack"
)

// Session is a virtual connection leased from a Manager: net.Conn-shaped so
// instance binding is untouched at the type level, but multiplexed onto a
// shared pipelined socket. Writes are framed into whole requests, counted
// into the socket's FIFO and forwarded without copying; the demultiplexer
// delivers the matching response views into the session's inbound queue,
// still as retained references into the pooled read chunks.
//
// Session implements netstack.Readable (the platform's one input path — no
// goroutine per session — with response views moving into the input
// task's parse queue by reference). Closing a session
// never closes the shared socket; responses to requests the session no
// longer waits for are consumed and dropped to keep FIFO correlation intact
// for its neighbours.
type Session struct {
	c      *conn
	closed atomic.Bool

	// Read side.
	rmu        sync.Mutex
	rcond      *sync.Cond
	rq         *buffer.Queue // delivered response views
	onReadable func()
	eof        bool
	rdl        time.Time

	// Write side — guarded by c.wmu (the shared socket's write lock).
	wq     *buffer.Queue // staging: usually drained to empty per write
	wlens  []int         // per-message lengths of the staged prefix
	wctxs  []Context     // per-message demux contexts, parallel to wlens
	wviews [][]byte      // reusable iovec scratch
	one    [1][]byte     // reusable single-buffer batch for Write
	werr   error         // sticky write-side failure
}

func newSession(c *conn) *Session {
	s := &Session{
		c:  c,
		rq: buffer.NewQueue(c.m.bufs),
		wq: buffer.NewQueue(c.m.bufs),
	}
	s.rcond = sync.NewCond(&s.rmu)
	return s
}

// deliver hands one response view (with its retained region reference) to
// the session. Closed sessions drop the view — the response was consumed
// from the shared stream purely to keep FIFO order for later requests.
func (s *Session) deliver(view []byte, ref *buffer.Ref) {
	s.rmu.Lock()
	if s.closed.Load() {
		s.rmu.Unlock()
		ref.Release()
		return
	}
	s.rq.AppendView(view, ref)
	cb := s.onReadable
	s.rcond.Broadcast()
	s.rmu.Unlock()
	if cb != nil {
		cb()
	}
}

// deliverEOF marks the stream ended (shared socket failed or manager
// closed).
func (s *Session) deliverEOF() {
	s.rmu.Lock()
	if s.closed.Load() || s.eof {
		s.rmu.Unlock()
		return
	}
	s.eof = true
	cb := s.onReadable
	s.rcond.Broadcast()
	s.rmu.Unlock()
	if cb != nil {
		cb()
	}
}

// Write implements net.Conn: p is framed into whole requests which are
// forwarded onto the shared socket in FIFO order. It blocks while the
// socket's in-flight window is full (pipelining backpressure). A trailing
// partial message is retained (copied into pooled memory) until later
// writes complete it.
func (s *Session) Write(p []byte) (int, error) {
	s.c.wmu.Lock()
	defer s.c.wmu.Unlock()
	s.one[0] = p
	n, err := s.writeLocked(s.one[:])
	s.one[0] = nil
	return int(n), err
}

// WriteBatch implements netstack.BatchWriter: a whole scatter list enters
// the FIFO and the socket under one acquisition of the shared write lock.
func (s *Session) WriteBatch(bufs [][]byte) (int64, error) {
	s.c.wmu.Lock()
	defer s.c.wmu.Unlock()
	return s.writeLocked(bufs)
}

// writeLocked stages bufs, frames complete requests, reserves FIFO/window
// slots and forwards the framed bytes. c.wmu must be held.
func (s *Session) writeLocked(bufs [][]byte) (int64, error) {
	c := s.c
	if s.werr != nil {
		return 0, s.werr
	}
	if s.closed.Load() {
		return 0, netstack.ErrClosed
	}
	var total int64
	for _, b := range bufs {
		s.wq.AppendView(b, nil) // staged without copy; resolved before return
		total += int64(len(b))
	}
	// Frame the staged stream into whole requests, capturing each one's
	// demux context (HEAD flag, quiet-batch terminator, ...) for the FIFO.
	s.wlens = s.wlens[:0]
	s.wctxs = s.wctxs[:0]
	framed := 0
	for {
		n, ctx, err := c.m.cfg.RequestFramer(s.wq, framed)
		if err != nil {
			s.werr = err
			s.wq.Reset()
			return 0, err
		}
		if n == 0 || s.wq.Len()-framed < n {
			break
		}
		s.wlens = append(s.wlens, n)
		s.wctxs = append(s.wctxs, ctx)
		framed += n
	}
	// Forward, reserving window slots; a full window forwards in slices.
	sent := 0
	for sent < len(s.wlens) {
		c.mu.Lock()
		for c.fcount >= c.window && !c.broken && !s.closed.Load() {
			c.cond.Wait()
		}
		if c.broken || s.closed.Load() {
			broken := c.broken
			c.mu.Unlock()
			s.wq.Reset()
			if broken {
				s.werr = netstack.ErrClosed
			}
			return total, netstack.ErrClosed
		}
		k, nb := 0, 0
		for sent+k < len(s.wlens) && c.fcount+k < c.window {
			nb += s.wlens[sent+k]
			k++
		}
		// One clock read covers the whole framed batch: its requests leave
		// in one vectored write, so they share a round-trip start stamp.
		now := metrics.Now()
		for i := 0; i < k; i++ {
			c.pushWaiter(s, s.wctxs[sent+i], now)
		}
		c.m.inflight.Add(int64(k)) // under c.mu, so fail() cannot double-count
		c.load.Add(int64(k))
		c.mu.Unlock()
		s.wviews = s.wq.AppendViews(s.wviews[:0], nb)
		// Every Readable a Transport's socket becomes is a BatchWriter:
		// one vectored write per flush.
		_, werr := c.raw.(netstack.BatchWriter).WriteBatch(s.wviews)
		for i := range s.wviews {
			s.wviews[i] = nil
		}
		s.wq.Discard(nb)
		if werr != nil {
			s.werr = werr
			s.wq.Reset()
			c.fail(werr)
			return total, werr
		}
		sent += k
	}
	// A trailing partial request still aliases the caller's memory; own it
	// before returning (cold path — platform flushes are whole messages).
	if s.wq.Len() > 0 {
		s.compactTail()
	}
	return total, nil
}

// compactTail copies the staged partial message into pooled memory the
// session owns across calls.
func (s *Session) compactTail() {
	n := s.wq.Len()
	ref := s.c.m.bufs.GetRef(n)
	s.wq.PeekAt(ref.Bytes(), 0)
	s.wq.Reset()
	s.wq.AppendRef(ref, n)
}

// TryReadRefs implements netstack.Readable: every delivered response view
// moves into q by reference — the zero-copy hand-over into an input task's
// parse queue.
func (s *Session) TryReadRefs(q *buffer.Queue) (int, error) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	if s.closed.Load() {
		return 0, netstack.ErrClosed
	}
	if s.rq.Len() > 0 {
		return s.rq.DrainTo(q), nil
	}
	if s.eof {
		return 0, io.EOF
	}
	return 0, nil
}

// SetReadableCallback implements netstack.Readable. If data or EOF is
// already pending, fn fires immediately.
func (s *Session) SetReadableCallback(fn func()) {
	s.rmu.Lock()
	s.onReadable = fn
	pending := s.eof || s.rq.Len() > 0
	s.rmu.Unlock()
	if fn != nil && pending {
		fn()
	}
}

// Read implements net.Conn: it blocks until data, EOF, deadline or close.
func (s *Session) Read(p []byte) (int, error) {
	s.rmu.Lock()
	defer s.rmu.Unlock()
	for {
		if s.closed.Load() {
			return 0, netstack.ErrClosed
		}
		if s.rq.Len() > 0 {
			n := s.rq.Peek(p)
			s.rq.Discard(n)
			return n, nil
		}
		if s.eof {
			return 0, io.EOF
		}
		if dl := s.rdl; !dl.IsZero() {
			if !time.Now().Before(dl) {
				return 0, netstack.ErrTimeout
			}
			t := time.AfterFunc(time.Until(dl), func() {
				s.rmu.Lock()
				s.rcond.Broadcast()
				s.rmu.Unlock()
			})
			s.rcond.Wait()
			t.Stop()
		} else {
			s.rcond.Wait()
		}
	}
}

// Close implements net.Conn. The shared socket stays up; only this
// session's lease ends. Blocked readers and writers are woken.
func (s *Session) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.rmu.Lock()
	s.rq.Reset()
	s.onReadable = nil
	s.rcond.Broadcast()
	s.rmu.Unlock()
	// Detach (and wake window-blocked writers) before taking the write
	// lock: a blocked writer holds it until it observes the close.
	s.c.removeSession(s)
	s.c.wmu.Lock()
	s.wq.Reset()
	s.c.wmu.Unlock()
	return nil
}

// upAddr is the session's trivial net.Addr.
type upAddr string

func (a upAddr) Network() string { return "upstream" }
func (a upAddr) String() string  { return string(a) }

// LocalAddr implements net.Conn.
func (s *Session) LocalAddr() net.Addr { return upAddr("session!" + s.c.p.addr) }

// RemoteAddr implements net.Conn.
func (s *Session) RemoteAddr() net.Addr { return upAddr(s.c.p.addr) }

// SetDeadline implements net.Conn (read side only; writes to the shared
// socket follow the socket's own deadline discipline).
func (s *Session) SetDeadline(t time.Time) error { return s.SetReadDeadline(t) }

// SetReadDeadline implements net.Conn.
func (s *Session) SetReadDeadline(t time.Time) error {
	s.rmu.Lock()
	s.rdl = t
	s.rcond.Broadcast()
	s.rmu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn (no-op: session writes inherit the
// shared socket's blocking semantics).
func (s *Session) SetWriteDeadline(time.Time) error { return nil }

var (
	_ net.Conn             = (*Session)(nil)
	_ netstack.Readable    = (*Session)(nil)
	_ netstack.BatchWriter = (*Session)(nil)
)
