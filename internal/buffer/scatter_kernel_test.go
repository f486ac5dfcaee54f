package buffer_test

import (
	"bytes"
	"io"
	"net"
	"testing"

	"flick/internal/buffer"
	"flick/internal/netstack"
)

// TestScatterWriteToKernelTCPZeroAlloc pins an output task's flush onto a
// kernel TCP socket — the scatter's Buffers handed to WriteBatch of the
// netstack.Events wrapper (one writev), then Reset — at zero allocations
// per flush. The peer reads only after the measurement: every flushed byte
// fits in the loopback socket buffer, and a connection that is only
// written starts no pump, so nothing else allocates while AllocsPerRun
// counts.
func TestScatterWriteToKernelTCPZeroAlloc(t *testing.T) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	raw, err := net.Dial("tcp", l.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	c := netstack.Events(raw, buffer.NewPool(8))
	defer c.Close()
	peer, err := l.Accept()
	if err != nil {
		t.Fatal(err)
	}
	defer peer.Close()

	const runs = 100
	head, body := []byte("HEAD:"), []byte("body-bytes;")
	sc := buffer.NewScatter(buffer.NewPool(8))
	allocs := testing.AllocsPerRun(runs, func() {
		sc.AppendRef(head, nil)
		sc.AppendRef(body, nil)
		if _, err := c.WriteBatch(sc.Buffers()); err != nil {
			t.Fatalf("WriteBatch: %v", err)
		}
		sc.Reset()
	})
	if allocs != 0 {
		t.Fatalf("a scatter flush on kernel TCP allocates %.2f/op, want 0", allocs)
	}
	// AllocsPerRun adds one warm-up call to the measured runs.
	want := bytes.Repeat(append(append([]byte(nil), head...), body...), runs+1)
	got := make([]byte, len(want))
	if _, err := io.ReadFull(peer, got); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("peer read %q, want %q", got, want)
	}
}
