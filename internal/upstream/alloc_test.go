package upstream

import (
	"io"
	"testing"

	"flick/internal/buffer"
	"flick/internal/netstack"
)

// TestLeasedSessionZeroAlloc is the alloc-regression gate for the shared
// upstream hot path: one request/response round trip over a leased session
// — write-side framing + FIFO reservation + vectored forward, event-driven
// demultiplex, zero-copy view delivery, session read — adds zero heap
// allocations per request in steady state. The UserNet transport runs its
// readable callbacks inline, so the whole path executes synchronously on
// this goroutine and the measurement is deterministic.
func TestLeasedSessionZeroAlloc(t *testing.T) {
	u := netstack.NewUserNet()
	pool := buffer.NewPool(64)
	pool.Prime(16)
	l, err := u.Listen("be:alloc")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	m := NewManager(Config{
		Transport:      u,
		Pool:           pool,
		Size:           1,
		RequestFramer:  StatelessRequest(testFramer),
		ResponseFramer: StatelessResponse(testFramer),
	})
	defer m.Close()
	sess, err := m.Lease("be:alloc")
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()
	be, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer be.Close()

	reqWire := frame("get key-000042")
	respWire := frame("VALUE key-000042 hello")
	rbuf := make([]byte, len(reqWire))
	rq := buffer.NewQueue(pool)

	allocs := testing.AllocsPerRun(1000, func() {
		if _, err := sess.Write(reqWire); err != nil {
			t.Fatalf("session write: %v", err)
		}
		if _, err := io.ReadFull(be, rbuf); err != nil {
			t.Fatalf("backend read: %v", err)
		}
		// The backend's write runs the demux callback inline: by the time
		// Write returns, the response view sits in the session's queue.
		if _, err := be.Write(respWire); err != nil {
			t.Fatalf("backend write: %v", err)
		}
		n, err := sess.TryReadRefs(rq)
		if err != nil || n != len(respWire) {
			t.Fatalf("session read: n=%d err=%v", n, err)
		}
		rq.Reset()
	})
	if allocs != 0 {
		t.Fatalf("leased-session round trip allocates %.1f/op, want 0", allocs)
	}
	if s := pool.Stats(); s.Oversized != 0 {
		t.Fatalf("hot path hit the over-MaxClass fallback %d times", s.Oversized)
	}
	// The latency instrumentation is always on: every measured round trip
	// must have been recorded in the live histogram at zero alloc cost.
	if n := m.Latency().Count(); n < 1000 {
		t.Fatalf("upstream latency histogram recorded %d round trips, want >= 1000", n)
	}
}
