package netstack

import (
	"io"
	"net"
	"sync"
	"time"

	"flick/internal/buffer"
)

// UserNet is the in-process user-space stack (the mTCP/DPDK substitute). The
// zero value is not usable; call NewUserNet.
//
// Cost model: DialCost and OpCost, when non-zero, burn CPU (busy-wait) per
// connect and per read/write respectively. They default to zero — the stack
// is genuinely cheap — and exist so experiments can dial in intermediate
// points between "kernel" and "free".
type UserNet struct {
	mu        sync.RWMutex
	listeners map[string]*userListener

	// DialCost is CPU burned per connection establishment.
	DialCost time.Duration
	// OpCost is CPU burned per read/write operation.
	OpCost time.Duration
	// ConnBuf is the per-direction ring capacity (default 64 KiB).
	ConnBuf int
	// Backlog is the accept queue depth (default 1024).
	Backlog int
}

// NewUserNet creates an empty user-space network.
func NewUserNet() *UserNet {
	return &UserNet{
		listeners: make(map[string]*userListener),
		ConnBuf:   64 << 10,
		Backlog:   8192,
	}
}

// Name implements Transport.
func (u *UserNet) Name() string { return "unet" }

// Listen implements Transport.
func (u *UserNet) Listen(address string) (net.Listener, error) {
	if address == "" {
		return nil, ErrNoListener
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	if _, ok := u.listeners[address]; ok {
		return nil, ErrAddrInUse
	}
	l := &userListener{
		net:     u,
		address: address,
		backlog: make(chan *userConn, u.Backlog),
	}
	u.listeners[address] = l
	return l, nil
}

// Dial implements Transport.
func (u *UserNet) Dial(address string) (net.Conn, error) {
	u.mu.RLock()
	l := u.listeners[address]
	u.mu.RUnlock()
	if l == nil {
		return nil, ErrNoListener
	}
	Spin(u.DialCost)
	client, server := u.newPair(address)
	l.mu.Lock()
	closed := l.closed
	l.mu.Unlock()
	if closed {
		return nil, ErrNoListener
	}
	select {
	case l.backlog <- server:
		return client, nil
	default:
		client.Close()
		server.Close()
		return nil, ErrBacklogFull
	}
}

// newPair builds the two endpoints of a connection sharing two half-duplex
// byte pipes.
func (u *UserNet) newPair(address string) (client, server *userConn) {
	c2s := newHalf(u.ConnBuf)
	s2c := newHalf(u.ConnBuf)
	client = &userConn{net: u, in: s2c, out: c2s, local: addr("client!" + address), remote: addr(address)}
	server = &userConn{net: u, in: c2s, out: s2c, local: addr(address), remote: addr("client!" + address)}
	return client, server
}

// unregister removes a closed listener.
func (u *UserNet) unregister(address string) {
	u.mu.Lock()
	delete(u.listeners, address)
	u.mu.Unlock()
}

// userListener implements net.Listener.
type userListener struct {
	net     *UserNet
	address string
	backlog chan *userConn

	mu     sync.Mutex
	closed bool
	done   chan struct{} // lazily created close signal
}

func (l *userListener) closeCh() chan struct{} {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.done == nil {
		l.done = make(chan struct{})
		if l.closed {
			close(l.done)
		}
	}
	return l.done
}

// Accept implements net.Listener.
func (l *userListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.backlog:
		return c, nil
	case <-l.closeCh():
		// Drain anything raced into the backlog before closure.
		select {
		case c := <-l.backlog:
			return c, nil
		default:
			return nil, ErrClosed
		}
	}
}

// Close implements net.Listener.
func (l *userListener) Close() error {
	l.mu.Lock()
	if l.closed {
		l.mu.Unlock()
		return nil
	}
	l.closed = true
	if l.done != nil {
		close(l.done)
	} else {
		l.done = make(chan struct{})
		close(l.done)
	}
	l.mu.Unlock()
	l.net.unregister(l.address)
	return nil
}

// Addr implements net.Listener.
func (l *userListener) Addr() net.Addr { return addr(l.address) }

// half is one direction of a connection: a ring buffer with blocking
// semantics and an optional readable callback (the "epoll" hook used by the
// platform's event-driven input tasks).
type half struct {
	mu       sync.Mutex
	canRead  *sync.Cond
	canWrite *sync.Cond
	ring     *buffer.Ring
	wclosed  bool // writer closed: readers see EOF after drain
	rclosed  bool // reader closed: writers get ErrClosed

	onReadable func() // called (without the lock) when bytes or EOF arrive
}

func newHalf(bufSize int) *half {
	h := &half{ring: buffer.NewRingBuf(buffer.Global.Get(ringClass(bufSize)))}
	h.canRead = sync.NewCond(&h.mu)
	h.canWrite = sync.NewCond(&h.mu)
	return h
}

// ringClass rounds a requested buffer size up to a power of two so the
// backing slice comes from (and returns to) an exact pool class.
func ringClass(n int) int {
	c := 64
	for c < n {
		c <<= 1
	}
	return c
}

// maybeRelease returns the ring's backing buffer to the pool once both the
// writer and the reader side have closed. Callers must hold h.mu. All data
// paths check the closed flags before touching the ring, so a nil ring is
// never dereferenced.
func (h *half) maybeRelease() {
	if h.wclosed && h.rclosed && h.ring != nil {
		buffer.Global.Put(h.ring.Buf())
		h.ring = nil
	}
}

// userConn implements net.Conn over two halves.
type userConn struct {
	net    *UserNet
	in     *half // peer writes here; we read
	out    *half // we write here; peer reads
	local  net.Addr
	remote net.Addr

	dlMu          sync.Mutex
	readDeadline  time.Time
	writeDeadline time.Time
	closeOnce     sync.Once
}

// Read implements net.Conn. It blocks until data, EOF, deadline or close.
func (c *userConn) Read(p []byte) (int, error) {
	Spin(c.net.OpCost)
	h := c.in
	var timer *time.Timer
	c.dlMu.Lock()
	dl := c.readDeadline
	c.dlMu.Unlock()
	if !dl.IsZero() {
		d := time.Until(dl)
		if d <= 0 {
			return 0, ErrTimeout
		}
		timer = time.AfterFunc(d, func() {
			h.mu.Lock()
			h.canRead.Broadcast()
			h.mu.Unlock()
		})
		defer timer.Stop()
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	for {
		if h.rclosed {
			return 0, ErrClosed
		}
		if h.ring.Len() > 0 {
			n, _ := h.ring.Read(p)
			h.canWrite.Broadcast()
			return n, nil
		}
		if h.wclosed {
			return 0, io.EOF
		}
		if !dl.IsZero() && !time.Now().Before(dl) {
			return 0, ErrTimeout
		}
		h.canRead.Wait()
	}
}

// TryReadRefs implements Readable: one non-blocking read of up to
// ReadChunk bytes into a chunk from q's pool, appended with AppendRead.
func (c *userConn) TryReadRefs(q *buffer.Queue) (int, error) {
	h := c.in
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.rclosed {
		return 0, ErrClosed
	}
	if h.ring.Len() > 0 {
		ref := q.Pool().GetRef(ReadChunk)
		n, _ := h.ring.Read(ref.Bytes())
		q.AppendRead(ref, n)
		h.canWrite.Broadcast()
		return n, nil
	}
	if h.wclosed {
		return 0, io.EOF
	}
	return 0, nil
}

// armWriteTimer returns the current write deadline and, when one is set, a
// timer that wakes blocked writers at expiry (nil timer when no deadline).
// The expired result reports a deadline already in the past.
func (c *userConn) armWriteTimer(h *half) (dl time.Time, timer *time.Timer, expired bool) {
	c.dlMu.Lock()
	dl = c.writeDeadline
	c.dlMu.Unlock()
	if dl.IsZero() {
		return dl, nil, false
	}
	d := time.Until(dl)
	if d <= 0 {
		return dl, nil, true
	}
	timer = time.AfterFunc(d, func() {
		h.mu.Lock()
		h.canWrite.Broadcast()
		h.mu.Unlock()
	})
	return dl, timer, false
}

// writeLocked copies p into h's ring, blocking on canWrite when full and
// running the readable callback (without the lock) as bytes land. h.mu must
// be held on entry and is held on return.
func writeLocked(h *half, p []byte, dl time.Time) (int, error) {
	written := 0
	for written < len(p) {
		if h.wclosed || h.rclosed {
			return written, ErrClosed
		}
		n, err := h.ring.Write(p[written:])
		written += n
		if n > 0 {
			h.canRead.Broadcast()
			cb := h.onReadable
			if cb != nil {
				h.mu.Unlock()
				cb()
				h.mu.Lock()
				continue
			}
		}
		if written == len(p) {
			break
		}
		if err == buffer.ErrRingFull || n == 0 {
			if !dl.IsZero() && !time.Now().Before(dl) {
				return written, ErrTimeout
			}
			h.canWrite.Wait()
		}
	}
	return written, nil
}

// Write implements net.Conn. It blocks until all of p is accepted, the peer
// stops reading, or the deadline expires.
func (c *userConn) Write(p []byte) (int, error) {
	Spin(c.net.OpCost)
	h := c.out
	dl, timer, expired := c.armWriteTimer(h)
	if expired {
		return 0, ErrTimeout
	}
	if timer != nil {
		defer timer.Stop()
	}
	h.mu.Lock()
	n, err := writeLocked(h, p, dl)
	h.mu.Unlock()
	return n, err
}

// WriteBatch implements BatchWriter: it writes every buffer in
// order while holding the connection lock once for the whole batch — the
// user-space analogue of writev. Semantics match Write (per-op cost burned
// once, blocks until everything is accepted, honours the write deadline).
func (c *userConn) WriteBatch(bufs [][]byte) (int64, error) {
	Spin(c.net.OpCost)
	h := c.out
	dl, timer, expired := c.armWriteTimer(h)
	if expired {
		return 0, ErrTimeout
	}
	if timer != nil {
		defer timer.Stop()
	}
	var total int64
	h.mu.Lock()
	for _, p := range bufs {
		n, err := writeLocked(h, p, dl)
		total += int64(n)
		if err != nil {
			h.mu.Unlock()
			return total, err
		}
	}
	h.mu.Unlock()
	return total, nil
}

// Close implements net.Conn: both directions shut down, peer reads EOF.
func (c *userConn) Close() error {
	c.closeOnce.Do(func() {
		// Our outbound half: mark writer-closed so the peer drains then EOFs.
		c.out.mu.Lock()
		c.out.wclosed = true
		c.out.canRead.Broadcast()
		c.out.canWrite.Broadcast()
		cb := c.out.onReadable
		c.out.maybeRelease()
		c.out.mu.Unlock()
		if cb != nil {
			cb() // deliver the EOF "event"
		}
		// Our inbound half: mark reader-closed so peer writes fail promptly.
		c.in.mu.Lock()
		c.in.rclosed = true
		c.in.canRead.Broadcast()
		c.in.canWrite.Broadcast()
		c.in.maybeRelease()
		c.in.mu.Unlock()
	})
	return nil
}

// SetReadableCallback implements Readable. This is the event-loop hook:
// the platform's input tasks are scheduled from here rather than parking a
// goroutine per connection.
func (c *userConn) SetReadableCallback(fn func()) {
	h := c.in
	h.mu.Lock()
	h.onReadable = fn
	pending := h.wclosed || (h.ring != nil && h.ring.Len() > 0)
	h.mu.Unlock()
	if fn != nil && pending {
		fn()
	}
}

// LocalAddr implements net.Conn.
func (c *userConn) LocalAddr() net.Addr { return c.local }

// RemoteAddr implements net.Conn.
func (c *userConn) RemoteAddr() net.Addr { return c.remote }

// SetDeadline implements net.Conn.
func (c *userConn) SetDeadline(t time.Time) error {
	c.SetReadDeadline(t)
	c.SetWriteDeadline(t)
	return nil
}

// SetReadDeadline implements net.Conn.
func (c *userConn) SetReadDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.readDeadline = t
	c.dlMu.Unlock()
	c.in.mu.Lock()
	c.in.canRead.Broadcast()
	c.in.mu.Unlock()
	return nil
}

// SetWriteDeadline implements net.Conn.
func (c *userConn) SetWriteDeadline(t time.Time) error {
	c.dlMu.Lock()
	c.writeDeadline = t
	c.dlMu.Unlock()
	c.out.mu.Lock()
	c.out.canWrite.Broadcast()
	c.out.mu.Unlock()
	return nil
}

var _ net.Conn = (*userConn)(nil)
var _ Transport = (*UserNet)(nil)
