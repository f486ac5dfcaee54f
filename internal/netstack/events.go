package netstack

import (
	"errors"
	"net"
	"sync"

	"flick/internal/buffer"
)

// ReadChunk is the pooled buffer size of one socket read: a kernel
// connection's pump reads into chunks of this size, and a UserNet
// connection's TryReadRefs moves at most this many bytes per call.
const ReadChunk = 32 << 10

// Readable is a connection the platform reads without blocking: its input
// tasks and the upstream demultiplexer are scheduled from the readable
// callback (the analogue of mTCP's event loop) and take the bytes that
// have arrived by reference. UserNet connections and upstream sessions
// implement it natively; Events adapts any other connection.
type Readable interface {
	net.Conn
	// SetReadableCallback registers fn to run when bytes or EOF arrive.
	// If some are already pending, fn fires at once. nil clears it.
	SetReadableCallback(fn func())
	// TryReadRefs moves bytes that have arrived into q by reference
	// without blocking (a short socket read may be copied instead, to
	// compact) and reports the byte count; (0, nil) means "would block",
	// an error (io.EOF included) ends the stream.
	TryReadRefs(q *buffer.Queue) (int, error)
}

// BatchWriter is implemented by connections that accept a whole scatter
// list in one operation: one vectored write (writev) on a kernel socket
// wrapped by Events, one lock acquisition on a UserNet connection.
type BatchWriter interface {
	// WriteBatch writes every buffer in order, blocking until all bytes
	// are accepted or the connection fails.
	WriteBatch(bufs [][]byte) (int64, error)
}

var (
	_ Readable    = (*userConn)(nil)
	_ BatchWriter = (*userConn)(nil)
	_ BatchWriter = (*pumped)(nil)
)

// Events returns c as a Readable: c itself when it already is one,
// otherwise c behind a pump — one goroutine blocked in Read into a chunk
// from pool, which hands each read over by reference and then fires the
// readable callback. It is the only code that starts a goroutine blocking
// in Read on a connection the platform's tasks or upstream demultiplexer
// read. The pump starts at once and exits when c fails or Close is called;
// Close also returns every chunk not yet taken.
func Events(c net.Conn, pool *buffer.Pool) Readable {
	if r, ok := c.(Readable); ok {
		return r
	}
	p := &pumped{Conn: c, pool: pool}
	go p.pump()
	return p
}

// errPumped fails Read on a pumped connection: the pump owns its reads.
var errPumped = errors.New("netstack: read a pumped connection through TryReadRefs")

// pumped is the Readable Events makes of a blocking connection.
type pumped struct {
	net.Conn
	pool *buffer.Pool

	mu    sync.Mutex
	reads []landed // reads not yet taken, in arrival order
	// err ends the stream once reads are taken: the read error that ended
	// the pump, or ErrClosed from Close.
	err        error
	onReadable func()

	// nb is WriteBatch's iovec list: a local net.Buffers escapes through
	// the io.Writer call and costs one allocation per write.
	nb net.Buffers
}

// landed is one read not yet taken: the first n bytes of ref's chunk.
type landed struct {
	ref *buffer.Ref
	n   int
}

// pump reads until the connection fails or closes. A short read that
// lands behind one not yet taken is copied into that chunk's spare room,
// so a trickling peer cannot pin a near-empty chunk per segment while the
// consumer is busy.
func (p *pumped) pump() {
	for {
		ref := p.pool.GetRef(ReadChunk)
		n, err := p.Conn.Read(ref.Bytes())
		p.mu.Lock()
		if p.err == ErrClosed {
			p.mu.Unlock()
			ref.Release()
			return
		}
		switch k := len(p.reads) - 1; {
		case k >= 0 && n < ReadChunk/8 && ReadChunk-p.reads[k].n >= n:
			p.reads[k].n += copy(p.reads[k].ref.Bytes()[p.reads[k].n:], ref.Bytes()[:n])
			ref.Release()
		case n > 0:
			p.reads = append(p.reads, landed{ref, n})
		default:
			ref.Release()
		}
		p.err = err
		cb := p.onReadable
		p.mu.Unlock()
		if cb != nil {
			cb()
		}
		if err != nil {
			return
		}
	}
}

// TryReadRefs implements Readable.
func (p *pumped) TryReadRefs(q *buffer.Queue) (int, error) {
	p.mu.Lock()
	defer p.mu.Unlock()
	if len(p.reads) == 0 {
		return 0, p.err
	}
	total := 0
	for i, r := range p.reads {
		q.AppendRead(r.ref, r.n)
		total += r.n
		p.reads[i] = landed{}
	}
	p.reads = p.reads[:0]
	return total, nil
}

// SetReadableCallback implements Readable.
func (p *pumped) SetReadableCallback(fn func()) {
	p.mu.Lock()
	p.onReadable = fn
	pending := len(p.reads) > 0 || p.err != nil
	p.mu.Unlock()
	if fn != nil && pending {
		fn()
	}
}

// Read implements net.Conn; it always fails (see errPumped).
func (p *pumped) Read([]byte) (int, error) { return 0, errPumped }

// WriteBatch implements BatchWriter with one vectored write. Callers
// serialise it (nb is shared); Write stays safe for concurrent use.
func (p *pumped) WriteBatch(bufs [][]byte) (int64, error) {
	p.nb = bufs
	n, err := p.nb.WriteTo(p.Conn)
	p.nb = nil
	return n, err
}

// Close implements net.Conn: the socket closes, its untaken chunks return
// to the pool, and the pump releases its in-flight chunk and exits.
func (p *pumped) Close() error {
	p.mu.Lock()
	p.err = ErrClosed
	for _, r := range p.reads {
		r.ref.Release()
	}
	p.reads = nil
	p.mu.Unlock()
	return p.Conn.Close()
}
