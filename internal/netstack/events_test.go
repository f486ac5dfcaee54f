package netstack

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"testing"
	"time"

	"flick/internal/buffer"
)

// tcpPair returns both ends of a loopback KernelTCP connection.
func tcpPair(t *testing.T) (client, server net.Conn) {
	t.Helper()
	l, err := KernelTCP{}.Listen("127.0.0.1:0")
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer l.Close()
	client, err = KernelTCP{}.Dial(l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	server, err = l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { client.Close(); server.Close() })
	return client, server
}

// signal returns a readable callback that reports each firing on the
// returned channel, and a wait that fails the test if none comes.
func signal(t *testing.T) (cb func(), wait func()) {
	fired := make(chan struct{}, 1024)
	return func() { fired <- struct{}{} }, func() {
		t.Helper()
		select {
		case <-fired:
		case <-time.After(5 * time.Second):
			t.Fatal("readable callback did not fire")
		}
	}
}

// outstanding is the number of pooled regions handed out and not back.
func outstanding(p *buffer.Pool) int64 {
	s := p.Stats()
	return int64(s.RefGets) - int64(s.RefPuts)
}

func TestEventsReturnsUserNetConnUnchanged(t *testing.T) {
	u := NewUserNet()
	l, _ := u.Listen("s:1")
	defer l.Close()
	c, err := u.Dial("s:1")
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if r := Events(c, buffer.Global); r != c.(Readable) {
		t.Fatalf("Events wrapped a UserNet connection: %T", r)
	}
}

// TestEventsKernelTCPHandsReadsOverByReference: a read of at least
// ReadChunk/8 bytes enters the consumer's queue as the pump's own chunk,
// so a queue drawing from another pool takes nothing from it.
func TestEventsKernelTCPHandsReadsOverByReference(t *testing.T) {
	client, server := tcpPair(t)
	sock, qpool := buffer.NewPool(8), buffer.NewPool(8)
	r := Events(server, sock)
	defer r.Close()
	cb, wait := signal(t)
	r.SetReadableCallback(cb)
	msg := bytes.Repeat([]byte("0123456789abcdef"), 1024)
	if _, err := client.Write(msg); err != nil {
		t.Fatal(err)
	}
	q := buffer.NewQueue(qpool)
	defer q.Reset()
	for q.Len() < len(msg) {
		wait()
		if _, err := r.TryReadRefs(q); err != nil {
			t.Fatal(err)
		}
	}
	got := make([]byte, q.Len())
	q.Peek(got)
	if !bytes.Equal(got, msg) {
		t.Fatalf("queue holds %d bytes that differ from the %d written", len(got), len(msg))
	}
	if s := qpool.Stats(); s.RefGets != 0 || s.Gets != 0 {
		t.Fatalf("bytes were copied into the consumer's pool: %+v", s)
	}
}

// TestEventsKernelTCPTrickleCompacts: a peer writing one byte per segment
// fires the callback per read, and pins at most the pump's in-flight chunk
// plus one more — whether or not the consumer keeps up — rather than one
// ReadChunk per byte.
func TestEventsKernelTCPTrickleCompacts(t *testing.T) {
	for _, eager := range []bool{true, false} {
		client, server := tcpPair(t)
		sock := buffer.NewPool(8)
		r := Events(server, sock)
		cb, wait := signal(t)
		r.SetReadableCallback(cb)
		q := buffer.NewQueue(sock)
		const n = 64
		for i := 0; i < n; i++ {
			if _, err := client.Write([]byte{byte('a' + i%26)}); err != nil {
				t.Fatal(err)
			}
			wait() // one read per byte: the next write starts a new segment
			if eager {
				if _, err := r.TryReadRefs(q); err != nil {
					t.Fatal(err)
				}
			}
			if o := outstanding(sock); o > 2 {
				t.Fatalf("eager=%v: %d chunks pinned after %d one-byte reads, want <= 2", eager, o, i+1)
			}
		}
		for q.Len() < n {
			if _, err := r.TryReadRefs(q); err != nil {
				t.Fatal(err)
			}
		}
		if o := outstanding(sock); o > 2 {
			t.Fatalf("eager=%v: %d chunks pinned once taken, want <= 2", eager, o)
		}
		q.Reset()
		r.Close()
	}
}

// TestEventsKernelTCPPendingFiresAtOnce: registering a callback while data
// or EOF is pending runs it before SetReadableCallback returns, and EOF
// comes only after the last data.
func TestEventsKernelTCPPendingFiresAtOnce(t *testing.T) {
	client, server := tcpPair(t)
	r := Events(server, buffer.NewPool(8))
	defer r.Close()
	q := buffer.NewQueue(nil)
	defer q.Reset()
	cb, wait := signal(t)
	r.SetReadableCallback(cb)
	fired := false
	atOnce := func() { fired = true }

	if _, err := client.Write([]byte("data")); err != nil {
		t.Fatal(err)
	}
	wait() // landed, not taken
	if r.SetReadableCallback(atOnce); !fired {
		t.Fatal("callback registered with data pending did not fire at once")
	}
	if n, err := r.TryReadRefs(q); n != len("data") || err != nil {
		t.Fatalf("TryReadRefs = %d, %v", n, err)
	}
	r.SetReadableCallback(cb) // nothing pending: no firing
	if _, err := client.Write([]byte("last data")); err != nil {
		t.Fatal(err)
	}
	client.Close()
	wait() // the last data
	wait() // EOF, behind it
	if n, err := r.TryReadRefs(q); n != len("last data") || err != nil {
		t.Fatalf("TryReadRefs = %d, %v; want the last data before EOF", n, err)
	}
	fired = false
	if r.SetReadableCallback(atOnce); !fired {
		t.Fatal("callback registered with EOF pending did not fire at once")
	}
	if n, err := r.TryReadRefs(q); n != 0 || err != io.EOF {
		t.Fatalf("TryReadRefs after the data = %d, %v; want io.EOF", n, err)
	}
}

// TestEventsKernelTCPCloseReturnsChunks: Close hands back every chunk not
// yet taken and the pump's in-flight one, and the pump goroutine exits.
func TestEventsKernelTCPCloseReturnsChunks(t *testing.T) {
	client, server := tcpPair(t)
	base := runtime.NumGoroutine()
	sock := buffer.NewPool(8)
	r := Events(server, sock)
	cb, wait := signal(t)
	r.SetReadableCallback(cb)
	for i := 0; i < 3; i++ {
		if _, err := client.Write(bytes.Repeat([]byte{'x'}, ReadChunk/2)); err != nil {
			t.Fatal(err)
		}
		wait()
	}
	if o := outstanding(sock); o < 2 {
		t.Fatalf("%d chunks out before Close; the test wants untaken reads", o)
	}
	r.Close()
	if n, err := r.TryReadRefs(buffer.NewQueue(sock)); n != 0 || err != ErrClosed {
		t.Fatalf("TryReadRefs after Close = %d, %v; want ErrClosed", n, err)
	}
	for deadline := time.Now().Add(5 * time.Second); outstanding(sock) != 0 || runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("after Close: %d chunks out, %d goroutines (%d before Events)", outstanding(sock), runtime.NumGoroutine(), base)
		}
	}
}

// TestEventsWriteBatchKernelTCPZeroAlloc pins WriteBatch through Events on
// a kernel socket — one writev through the wrapper's net.Buffers field —
// at zero allocations per call. The peer reads only afterwards: every byte
// fits in the loopback socket buffer, and the wrapper's pump stays blocked
// in Read, so nothing else allocates while AllocsPerRun counts.
func TestEventsWriteBatchKernelTCPZeroAlloc(t *testing.T) {
	client, server := tcpPair(t)
	w := Events(client, buffer.NewPool(8))
	defer w.Close()
	bw := w.(BatchWriter)
	const runs = 100
	head, body := []byte("HEAD:"), []byte("body-bytes;")
	bufs := make([][]byte, 2)
	allocs := testing.AllocsPerRun(runs, func() {
		bufs[0], bufs[1] = head, body // a vectored write consumes its list
		if _, err := bw.WriteBatch(bufs); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
	})
	if allocs != 0 {
		t.Fatalf("WriteBatch through Events on kernel TCP allocates %.2f/op, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call to the measured runs.
	want := bytes.Repeat(append(append([]byte(nil), head...), body...), runs+1)
	got := make([]byte, len(want))
	if _, err := io.ReadFull(server, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer read %q, want %q", got, want)
	}
}
