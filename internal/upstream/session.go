package upstream

import (
	"io"
	"slices"
	"sync"
	"sync/atomic"

	"flick/internal/buffer"
	"flick/internal/metrics"
	"flick/internal/netstack"
)

// Session is a virtual connection leased from a Manager and multiplexed
// onto a shared pipelined socket. Writes are framed into whole requests,
// counted into the socket's FIFO and forwarded without copying; the
// demultiplexer delivers the matching response views into the session's
// inbound queue, still as retained references into the pooled read chunks.
//
// An instance binds a Session like any socket (it is a netstack.Conn), and
// nothing waits in one: a write that meets a full in-flight window is
// staged and reports netstack.ErrBacklogged, and the writable callback
// runs once a response frees window space. Closing a session never closes
// the shared socket; responses to requests the session no longer waits
// for are consumed and dropped to keep FIFO correlation intact for its
// neighbours.
type Session struct {
	c      *conn
	closed atomic.Bool

	// Read side.
	rmu        sync.Mutex
	rq         *buffer.Queue // delivered response views
	onReadable func()
	eof        bool

	onWritable func() // guarded by c.mu

	// Write side — guarded by c.wmu (the shared socket's write lock).
	wq     *buffer.Queue // staging: framed requests the window has not admitted, then a partial one
	wlens  []int         // per-message lengths of the staged prefix
	wctxs  []Context     // per-message demux contexts, parallel to wlens
	wviews [][]byte      // reusable iovec scratch
	werr   error         // sticky write-side failure
}

var _ netstack.Conn = (*Session)(nil)

func newSession(c *conn) *Session {
	return &Session{
		c:  c,
		rq: buffer.NewQueue(c.m.bufs),
		wq: buffer.NewQueue(c.m.bufs),
	}
}

// deliver hands one response view (with its retained region reference) to
// the session, or with a nil ref ends its stream (the shared socket failed
// or the manager closed). Closed sessions drop the view — the response was
// consumed from the shared stream purely to keep FIFO order for later
// requests.
func (s *Session) deliver(view []byte, ref *buffer.Ref) {
	s.rmu.Lock()
	if s.closed.Load() || s.eof {
		s.rmu.Unlock()
		if ref != nil {
			ref.Release()
		}
		return
	}
	if ref == nil {
		s.eof = true
	} else {
		s.rq.AppendView(view, ref)
	}
	cb := s.onReadable
	s.rmu.Unlock()
	if cb != nil {
		cb()
	}
}

// Write is the one-buffer form of WriteBatch.
func (s *Session) Write(p []byte) (int, error) {
	n, err := s.WriteBatch([][]byte{p})
	return int(n), err
}

// WriteBatch implements netstack.Conn: a whole scatter list enters the
// FIFO and the socket under one acquisition of the shared write lock.
// Requests the in-flight window does not admit stay staged, ahead of any
// later write, and WriteBatch reports netstack.ErrBacklogged; it never
// waits. A trailing partial request is staged until later writes complete
// it. Staged bytes are copied into pooled memory, so bufs may be reused.
func (s *Session) WriteBatch(bufs [][]byte) (int64, error) {
	s.c.wmu.Lock()
	defer s.c.wmu.Unlock()
	return s.writeLocked(bufs)
}

// writeLocked stages bufs, frames complete requests, reserves the FIFO
// slots the window has free and forwards those requests. c.wmu must be
// held.
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
	// Reserve what the window admits; the rest waits for a response to
	// free space, queued for the writable callback.
	c.mu.Lock()
	if c.broken || s.closed.Load() {
		c.mu.Unlock()
		s.wq.Reset()
		s.werr = netstack.ErrClosed
		return total, netstack.ErrClosed
	}
	k, nb := 0, 0
	for k < len(s.wlens) && c.fcount+k < c.window {
		nb += s.wlens[k]
		k++
	}
	// One clock read covers the whole framed batch: its requests leave
	// in one vectored write, so they share a round-trip start stamp.
	if k > 0 {
		now := metrics.Now()
		for i := 0; i < k; i++ {
			c.pushWaiter(s, s.wctxs[i], now)
		}
		c.m.inflight.Add(int64(k)) // under c.mu, so fail() cannot double-count
		c.load.Add(int64(k))
	}
	backlogged := k < len(s.wlens)
	if backlogged && !slices.Contains(c.waiting, s) {
		c.waiting = append(c.waiting, s)
	}
	c.mu.Unlock()
	if nb > 0 {
		s.wviews = s.wq.AppendViews(s.wviews[:0], nb)
		_, werr := c.raw.WriteBatch(s.wviews)
		clear(s.wviews)
		s.wq.Discard(nb)
		if werr != nil {
			s.werr = werr
			s.wq.Reset()
			c.fail(werr)
			return total, werr
		}
	}
	// What stays staged ends with this call's bytes, which still alias the
	// caller's memory: own it before returning.
	if s.wq.Len() > 0 && total > 0 {
		s.compactTail()
	}
	if backlogged {
		return total, netstack.ErrBacklogged
	}
	return total, nil
}

// compactTail copies the staged bytes into pooled memory the session owns
// across calls.
func (s *Session) compactTail() {
	n := s.wq.Len()
	ref := s.c.m.bufs.GetRef(n)
	s.wq.PeekAt(ref.Bytes(), 0)
	s.wq.Reset()
	s.wq.AppendRef(ref, n)
}

// TryReadRefs implements netstack.Conn: every delivered response view
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

// SetReadableCallback implements netstack.Conn. If data or EOF is already
// pending, fn fires immediately.
func (s *Session) SetReadableCallback(fn func()) {
	s.rmu.Lock()
	s.onReadable = fn
	pending := s.eof || s.rq.Len() > 0
	s.rmu.Unlock()
	if fn != nil && pending {
		fn()
	}
}

// SetWritableCallback implements netstack.Conn: fn runs when a response
// frees window space for a session whose write returned
// netstack.ErrBacklogged. A failed socket is reported as EOF instead.
func (s *Session) SetWritableCallback(fn func()) {
	s.c.mu.Lock()
	s.onWritable = fn
	s.c.mu.Unlock()
}

// Close implements netstack.Conn. The shared socket stays up; only this
// session's lease ends, and its staged requests are dropped.
func (s *Session) Close() error {
	if !s.closed.CompareAndSwap(false, true) {
		return nil
	}
	s.rmu.Lock()
	s.rq.Reset()
	s.onReadable = nil
	s.rmu.Unlock()
	s.c.removeSession(s)
	s.c.wmu.Lock()
	s.wq.Reset()
	s.c.wmu.Unlock()
	return nil
}
