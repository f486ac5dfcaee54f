package core

import (
	"net"
	"strings"
	"sync"
	"testing"
	"time"

	"flick/internal/buffer"
	"flick/internal/netstack"
)

// backlogConn is a write-only netstack.Conn that, while backlog is set,
// takes every write as staged (netstack.ErrBacklogged), as an upstream
// session at a full window does.
type backlogConn struct {
	mu       sync.Mutex
	backlog  bool
	written  []string // the bytes of each non-empty WriteBatch
	retries  int      // WriteBatch calls with no buffers
	writable func()
}

func (c *backlogConn) SetReadableCallback(func())             {}
func (c *backlogConn) TryReadRefs(*buffer.Queue) (int, error) { return 0, nil }
func (c *backlogConn) Close() error                           { return nil }

func (c *backlogConn) SetWritableCallback(fn func()) {
	c.mu.Lock()
	c.writable = fn
	c.mu.Unlock()
}

func (c *backlogConn) WriteBatch(bufs [][]byte) (int64, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var sb strings.Builder
	for _, b := range bufs {
		sb.Write(b)
	}
	if sb.Len() > 0 {
		c.written = append(c.written, sb.String())
	} else {
		c.retries++
	}
	if c.backlog {
		return int64(sb.Len()), netstack.ErrBacklogged
	}
	return int64(sb.Len()), nil
}

// state reads the written batches and the retry count.
func (c *backlogConn) state() ([]string, int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return append([]string(nil), c.written...), c.retries
}

// TestBackloggedOutputStopsPopping: once a write is staged the output task
// pops nothing more — later messages wait in its channel, and each
// activation only retries the staged bytes — until the writable callback
// runs and a retry goes through.
func TestBackloggedOutputStopsPopping(t *testing.T) {
	tmpl := NewTemplate("backlog")
	in := tmpl.AddInput("in", lineCodec)
	comp := tmpl.AddCompute("id", passthrough)
	out := tmpl.AddOutput("out", lineCodec)
	tmpl.Connect(in, comp)
	tmpl.Connect(comp, out)
	tmpl.AddPort("client", in, nil, true)
	tmpl.AddPort("sink", nil, out, false)
	if err := tmpl.Validate(); err != nil {
		t.Fatal(err)
	}
	u := netstack.NewUserNet()
	p := startPlatform(t, u)
	l, err := u.Listen("backlog:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	client, err := u.Dial("backlog:1")
	if err != nil {
		t.Fatal(err)
	}
	sink := &backlogConn{backlog: true}
	inst := NewInstance(tmpl, p.Scheduler())
	inst.Bind(0, netstack.Events(<-accepted, buffer.Global))
	inst.Bind(1, sink)
	inst.Start()
	defer func() {
		client.Close()
		if !waitPhase(inst, phaseFinished, 2*time.Second) {
			t.Errorf("instance not finished after the client closed:\n%s", inst.DebugString())
		}
	}()
	await := func(what string, ok func(written []string, retries int) bool) {
		t.Helper()
		for deadline := time.Now().Add(2 * time.Second); ; time.Sleep(time.Millisecond) {
			if w, r := sink.state(); ok(w, r) {
				return
			} else if time.Now().After(deadline) {
				t.Fatalf("%s: written %q, %d retries", what, w, r)
			}
		}
	}

	if _, err := client.Write([]byte("a\n")); err != nil {
		t.Fatal(err)
	}
	await("first write", func(w []string, _ int) bool { return len(w) == 1 })
	if _, err := client.Write([]byte("b\nc\n")); err != nil {
		t.Fatal(err)
	}
	await("retry while backlogged", func(_ []string, r int) bool { return r > 0 })
	time.Sleep(10 * time.Millisecond) // room for a wrongly popped write to land
	if w, _ := sink.state(); len(w) != 1 {
		t.Fatalf("wrote %q while backlogged, want only the first write", w)
	}

	sink.mu.Lock()
	sink.backlog = false
	writable := sink.writable
	sink.mu.Unlock()
	writable()
	await("writes after the backlog clears", func(w []string, _ int) bool {
		return strings.Join(w, "") == "a\nb\nc\n"
	})
}
