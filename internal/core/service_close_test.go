package core

import (
	"bufio"
	"errors"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"flick/internal/buffer"
	"flick/internal/netstack"
)

// Regression (PR 3): Service.Close used to close only the listener and the
// Shared accumulator, leaving every live PerConnection instance running —
// Platform.Close could then stop the scheduler under still-live graphs.
func TestServiceCloseClosesLiveInstances(t *testing.T) {
	u := netstack.NewUserNet()
	p := startPlatform(t, u)
	svc, err := p.Deploy(ServiceConfig{
		Name:       "upper",
		ListenAddr: "close:live",
		Template:   echoTemplate(t),
		Dispatch:   PerConnection,
	})
	if err != nil {
		t.Fatal(err)
	}

	// A client mid-conversation keeps its instance live.
	conn, err := u.Dial("close:live")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLines(t, conn, 1); got[0] != "HELLO" {
		t.Fatalf("got %q", got)
	}

	svc.Close()

	// The live instance must be shut down: its client connection closes
	// (EOF) instead of lingering until the peer hangs up.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	var p1 [16]byte
	if _, err := conn.Read(p1[:]); err != io.EOF && !errors.Is(err, netstack.ErrClosed) {
		t.Fatalf("read after Service.Close = %v, want EOF (instance not closed)", err)
	}
	// And the live set drains.
	deadline := time.Now().Add(2 * time.Second)
	for len(svc.DumpLive()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("instances still live after Close:\n%v", svc.DumpLive())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Regression: the Shared dispatcher built its instance outside the pool
// and, once started, outside the live set, so Service.Close never reached
// it: its connections (and pooled buffers) outlived the service.
func TestServiceCloseClosesRunningSharedInstance(t *testing.T) {
	u := netstack.NewUserNet()
	p := startPlatform(t, u)
	sink, err := u.Listen("close:sink")
	if err != nil {
		t.Fatal(err)
	}
	defer sink.Close()
	got := make(chan string, 1)
	go func() {
		c, err := sink.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		line, _ := bufio.NewReader(c).ReadString('\n')
		got <- line
	}()
	svc, err := p.Deploy(ServiceConfig{
		Name:         "merge",
		ListenAddr:   "close:shared",
		Template:     sharedTemplate(t),
		Dispatch:     Shared,
		SharedPorts:  []int{0, 1},
		BackendAddrs: map[int]string{2: "close:sink"},
	})
	if err != nil {
		t.Fatal(err)
	}

	// Both mappers bound: the instance is running, and stays so while
	// they hold their connections open.
	var mappers [2]net.Conn
	for i := range mappers {
		if mappers[i], err = u.Dial("close:shared"); err != nil {
			t.Fatal(err)
		}
		defer mappers[i].Close()
	}
	mappers[0].Write([]byte("alpha\n"))
	select {
	case line := <-got:
		if line != "alpha\n" {
			t.Fatalf("sink got %q", line)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("running Shared instance forwarded nothing")
	}

	svc.Close()

	for i, c := range mappers {
		c.SetReadDeadline(time.Now().Add(2 * time.Second))
		var b [8]byte
		if _, err := c.Read(b[:]); err != io.EOF && !errors.Is(err, netstack.ErrClosed) {
			t.Fatalf("mapper %d read after Service.Close = %v, want EOF (instance not closed)", i, err)
		}
	}
	deadline := time.Now().Add(2 * time.Second)
	for len(svc.DumpLive()) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("instances still live after Close:\n%v", svc.DumpLive())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// Regression (PR 3): a backend dial failing mid-BackendAddrs left the
// checked-out instance stranded — never started, never finished, never
// returned — leaking it from the graph pool and pinning it in the live
// set. The dispatcher must release it back to the pool cleanly.
func TestDispatchDialFailureReleasesInstance(t *testing.T) {
	u := netstack.NewUserNet()
	p := startPlatform(t, u)
	svc, err := p.Deploy(ServiceConfig{
		Name:         "upper",
		ListenAddr:   "close:dialfail",
		Template:     echoTemplate(t),
		Dispatch:     PerConnection,
		BackendAddrs: map[int]string{0: "nowhere:0"}, // no listener: dial fails
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	for i := 0; i < 3; i++ {
		conn, err := u.Dial("close:dialfail")
		if err != nil {
			t.Fatal(err)
		}
		// Dispatch fails on the backend dial; the client conn is dropped.
		conn.SetReadDeadline(time.Now().Add(2 * time.Second))
		var b [8]byte
		if _, err := conn.Read(b[:]); err == nil {
			t.Fatal("dispatch with a dead backend produced bytes")
		}
		conn.Close()
	}
	deadline := time.Now().Add(2 * time.Second)
	for {
		stats := svc.Pool().Stats()
		live := len(svc.DumpLive())
		// One build for the first dispatch, then pool hits: the instance
		// came back after every failed dispatch.
		if live == 0 && stats.Builds == 1 && stats.Hits == 2 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("instance leaked on dial failure: live=%d stats=%+v", live, stats)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// failWriteConn is a stub connection whose writes always fail: it serves
// one inbound message, then blocks until closed.
type failWriteConn struct {
	mu     sync.Mutex
	served bool
	closed chan struct{}
	once   sync.Once
}

func newFailWriteConn() *failWriteConn {
	return &failWriteConn{closed: make(chan struct{})}
}

func (c *failWriteConn) Read(p []byte) (int, error) {
	c.mu.Lock()
	first := !c.served
	c.served = true
	c.mu.Unlock()
	if first {
		return copy(p, "hello\n"), nil
	}
	<-c.closed
	return 0, io.EOF
}

func (c *failWriteConn) Write(p []byte) (int, error) {
	return 0, errors.New("stub: write refused")
}

func (c *failWriteConn) Close() error {
	c.once.Do(func() { close(c.closed) })
	return nil
}

func (c *failWriteConn) LocalAddr() net.Addr                { return nil }
func (c *failWriteConn) RemoteAddr() net.Addr               { return nil }
func (c *failWriteConn) SetDeadline(t time.Time) error      { return nil }
func (c *failWriteConn) SetReadDeadline(t time.Time) error  { return nil }
func (c *failWriteConn) SetWriteDeadline(t time.Time) error { return nil }

// Regression (PR 3): a write error on a primary-port output used to drop
// the connection silently — the instance learned of the dead client only
// via eventual peer EOF, lingering half-dead (inputs still parsing) until
// then. The flush failure must begin shutdown so the instance recycles
// promptly.
func TestOutputWriteErrorShutsDownInstance(t *testing.T) {
	sched := NewScheduler(2, Cooperative)
	sched.Start()
	defer sched.Stop()

	inst := NewInstance(echoTemplate(t), sched)
	conn := newFailWriteConn()
	inst.Bind(0, netstack.Events(conn, buffer.Global))
	inst.Start()

	// The stub feeds one line; the echoed reply hits the failing write.
	if !waitPhase(inst, phaseFinished, 5*time.Second) {
		t.Fatalf("instance still live %v after output write error:\n%s",
			5*time.Second, inst.DebugString())
	}
}
