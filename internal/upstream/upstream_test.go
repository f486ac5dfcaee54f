package upstream

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"sync"
	"testing"
	"time"

	"flick/internal/buffer"
	"flick/internal/netstack"
)

// The tests speak a minimal 4-byte-length-prefixed frame protocol, so the
// layer's FIFO correlation, windowing and failure behaviour are pinned
// independently of any real codec (the protocol framers have their own
// golden tests, and internal/apps drives the layer end to end).

func testFramer(q *buffer.Queue, from int) (int, error) {
	if q.Len()-from < 4 {
		return 0, nil
	}
	var h [4]byte
	q.PeekAt(h[:], from)
	n := int(binary.BigEndian.Uint32(h[:]))
	if n > 1<<20 {
		return 0, errors.New("testframer: oversized frame")
	}
	return 4 + n, nil
}

func frame(payload string) []byte {
	b := make([]byte, 4+len(payload))
	binary.BigEndian.PutUint32(b, uint32(len(payload)))
	copy(b[4:], payload)
	return b
}

// readFrame reads one complete frame off r.
func readFrame(t testing.TB, r *Reader, timeout time.Duration) string {
	t.Helper()
	p, err := r.Frame(timeout)
	if err != nil {
		t.Fatalf("readFrame: %v", err)
	}
	return p
}

// echoServer answers every frame with its payload, in arrival order.
func echoServer(t testing.TB, u *netstack.UserNet, addr string) net.Listener {
	t.Helper()
	l, err := u.Listen(addr)
	if err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				for {
					var h [4]byte
					if _, err := io.ReadFull(c, h[:]); err != nil {
						return
					}
					p := make([]byte, binary.BigEndian.Uint32(h[:]))
					if _, err := io.ReadFull(c, p); err != nil {
						return
					}
					if _, err := c.Write(frame(string(p))); err != nil {
						return
					}
				}
			}(c)
		}
	}()
	return l
}

func testManager(u *netstack.UserNet, pool *buffer.Pool, size, window int) *Manager {
	return NewManager(Config{
		Transport:      u,
		Pool:           pool,
		Size:           size,
		Window:         window,
		RequestFramer:  StatelessRequest(testFramer),
		ResponseFramer: StatelessResponse(testFramer),
		Backoff:        20 * time.Millisecond,
	})
}

func counter(t *testing.T, m *Manager, name string) uint64 {
	t.Helper()
	v, ok := m.Counters().Get(name)
	if !ok {
		t.Fatalf("counter %q missing from %s", name, m.Counters())
	}
	return v
}

func TestLeaseReuseAndCounters(t *testing.T) {
	u := netstack.NewUserNet()
	defer echoServer(t, u, "be:1").Close()
	m := testManager(u, nil, 2, 0)
	defer m.Close()

	var sessions []*Session
	for i := 0; i < 5; i++ {
		s, err := m.Lease("be:1")
		if err != nil {
			t.Fatalf("lease %d: %v", i, err)
		}
		sessions = append(sessions, s)
	}
	if d := counter(t, m, "dials"); d != 2 {
		t.Fatalf("dials = %d, want 2 (pool size bounds sockets)", d)
	}
	if r := counter(t, m, "reuse"); r != 3 {
		t.Fatalf("reuse = %d, want 3", r)
	}
	if n := m.Conns(); n != 2 {
		t.Fatalf("Conns = %d, want 2", n)
	}
	// Every session works despite sharing two sockets.
	for i, s := range sessions {
		msg := fmt.Sprintf("ping-%d", i)
		if _, err := s.Write(frame(msg)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if got := readFrame(t, NewReader(t, s), 2*time.Second); got != msg {
			t.Fatalf("session %d got %q, want %q", i, got, msg)
		}
	}
	for _, s := range sessions {
		s.Close()
	}
}

// TestFIFOCorrelationInterleaved is the heart of the layer: requests from
// different sessions interleave on one shared socket, and each response
// lands on the session that issued the matching request.
func TestFIFOCorrelationInterleaved(t *testing.T) {
	u := netstack.NewUserNet()
	defer echoServer(t, u, "be:fifo").Close()
	m := testManager(u, nil, 1, 0)
	defer m.Close()

	a, err := m.Lease("be:fifo")
	if err != nil {
		t.Fatal(err)
	}
	b, err := m.Lease("be:fifo")
	if err != nil {
		t.Fatal(err)
	}
	if d := counter(t, m, "dials"); d != 1 {
		t.Fatalf("dials = %d, want 1 (both sessions share the socket)", d)
	}
	ra, rb := NewReader(t, a), NewReader(t, b)
	// Interleave: a1, b1, a2 hit the wire in this order.
	for _, w := range []struct {
		s   *Session
		msg string
	}{{a, "a1"}, {b, "b1"}, {a, "a2"}} {
		if _, err := w.s.Write(frame(w.msg)); err != nil {
			t.Fatal(err)
		}
	}
	if got := readFrame(t, ra, 2*time.Second); got != "a1" {
		t.Fatalf("a first = %q", got)
	}
	if got := readFrame(t, rb, 2*time.Second); got != "b1" {
		t.Fatalf("b = %q", got)
	}
	if got := readFrame(t, ra, 2*time.Second); got != "a2" {
		t.Fatalf("a second = %q", got)
	}
	a.Close()
	b.Close()
}

// TestSplitWritesReassembleFrames pins the request framing of the write
// path: a message split across Write calls (and one write carrying one and
// a half messages) still counts as the right number of FIFO entries.
func TestSplitWritesReassembleFrames(t *testing.T) {
	u := netstack.NewUserNet()
	defer echoServer(t, u, "be:split").Close()
	m := testManager(u, nil, 1, 0)
	defer m.Close()

	s, err := m.Lease("be:split")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	f1, f2, f3 := frame("one"), frame("twotwo"), frame("three")
	// f1 split mid-header and mid-body; f2 and half of f3 in one write.
	blob := append(append([]byte{}, f2...), f3...)
	for _, chunk := range [][]byte{f1[:2], f1[2:5], f1[5:], blob[:len(f2)+3], blob[len(f2)+3:]} {
		if _, err := s.Write(chunk); err != nil {
			t.Fatal(err)
		}
	}
	r := NewReader(t, s)
	for _, want := range []string{"one", "twotwo", "three"} {
		if got := readFrame(t, r, 2*time.Second); got != want {
			t.Fatalf("got %q, want %q", got, want)
		}
	}
}

func TestDialFailureBackoffFailFast(t *testing.T) {
	u := netstack.NewUserNet()
	m := testManager(u, nil, 1, 0)
	defer m.Close()

	if _, err := m.Lease("be:down"); err == nil {
		t.Fatal("lease to a dead backend succeeded")
	} else if errors.Is(err, ErrDown) {
		t.Fatal("first failure must be the dial error, not fail-fast")
	}
	if _, err := m.Lease("be:down"); !errors.Is(err, ErrDown) {
		t.Fatalf("lease during backoff = %v, want ErrDown", err)
	}
	if ff := counter(t, m, "failfast"); ff != 1 {
		t.Fatalf("failfast = %d, want 1", ff)
	}
	// Backend comes up; once the backoff window passes, leases succeed.
	defer echoServer(t, u, "be:down").Close()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s, err := m.Lease("be:down")
		if err == nil {
			s.Close()
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("lease never recovered: %v", err)
		}
		time.Sleep(5 * time.Millisecond)
	}
	if d := counter(t, m, "dials"); d != 1 {
		t.Fatalf("dials = %d, want 1", d)
	}
}

// TestMidStreamFailureEOFsSessions: a backend dying mid-stream must EOF
// every session multiplexed on the socket — with an in-flight request or
// not — release every pooled reference, and redial on the next lease.
func TestMidStreamFailureEOFsSessions(t *testing.T) {
	u := netstack.NewUserNet()
	pool := buffer.NewPool(64)
	l, err := u.Listen("be:die")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conns := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conns <- c
		}
	}()

	m := testManager(u, pool, 1, 0)
	active, err := m.Lease("be:die")
	if err != nil {
		t.Fatal(err)
	}
	idle, err := m.Lease("be:die") // no in-flight request
	if err != nil {
		t.Fatal(err)
	}
	ractive, ridle := NewReader(t, active), NewReader(t, idle)
	if _, err := active.Write(frame("never-answered")); err != nil {
		t.Fatal(err)
	}
	be := <-conns
	// Answer one request, then die with one still pending.
	if _, err := active.Write(frame("pending")); err != nil {
		t.Fatal(err)
	}
	readFrameRaw(t, be)
	be.Write(frame("never-answered"))
	if got := readFrame(t, ractive, 2*time.Second); got != "never-answered" {
		t.Fatalf("pre-failure response = %q", got)
	}
	be.Close()

	for i, r := range []*Reader{ractive, ridle} {
		if err := r.End(2 * time.Second); err != io.EOF {
			t.Fatalf("session %d read after backend death = %v, want EOF", i, err)
		}
	}
	active.Close()
	idle.Close()

	// The next lease re-establishes the socket and counts a redial.
	s2, err := m.Lease("be:die")
	if err != nil {
		t.Fatalf("lease after failure: %v", err)
	}
	if rd := counter(t, m, "redials"); rd != 1 {
		t.Fatalf("redials = %d, want 1", rd)
	}
	s2.Close()
	m.Close()
	(<-conns).Close()

	// Everything pooled came back: gets/puts balance.
	if s := pool.Stats(); s.RefGets != s.RefPuts {
		t.Fatalf("region leak after failure: %d handed out, %d recycled", s.RefGets, s.RefPuts)
	}
	if inf := counter(t, m, "inflight"); inf != 0 {
		t.Fatalf("inflight = %d after teardown, want 0", inf)
	}
}

// readFrameRaw consumes one frame from the backend side of a connection.
func readFrameRaw(t *testing.T, c net.Conn) string {
	t.Helper()
	c.SetReadDeadline(time.Now().Add(2 * time.Second))
	var h [4]byte
	if _, err := io.ReadFull(c, h[:]); err != nil {
		t.Fatalf("backend read header: %v", err)
	}
	p := make([]byte, binary.BigEndian.Uint32(h[:]))
	if _, err := io.ReadFull(c, p); err != nil {
		t.Fatalf("backend read body: %v", err)
	}
	return string(p)
}

// TestBackoffPrefersLiveSlot: while one slot's backend socket is in a
// redial-backoff window, leases that round-robin onto it must fall back to
// a live socket in another slot instead of failing fast — fail-fast is for
// a backend that is down, not for a pool that is half-up.
func TestBackoffPrefersLiveSlot(t *testing.T) {
	u := netstack.NewUserNet()
	l, err := u.Listen("be:half")
	if err != nil {
		t.Fatal(err)
	}
	conns := make(chan net.Conn, 4)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conns <- c
		}
	}()
	m := testManager(u, nil, 2, 0)
	defer m.Close()
	s0, err := m.Lease("be:half") // dials slot 0
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Close()
	s1, err := m.Lease("be:half") // dials slot 1
	if err != nil {
		t.Fatal(err)
	}
	defer s1.Close()
	be0 := <-conns
	defer be0.Close()
	be1 := <-conns

	l.Close()   // further dials to this address fail
	be1.Close() // slot 1 dies mid-stream

	// One lease may hit the broken slot and burn the failed re-dial that
	// opens the backoff window; every other lease must be served by the
	// live slot-0 socket.
	dialErrs, downErrs, served := 0, 0, 0
	for i := 0; i < 10; i++ {
		s, err := m.Lease("be:half")
		switch {
		case err == nil:
			served++
			s.Close()
		case errors.Is(err, ErrDown):
			downErrs++
		default:
			dialErrs++
		}
	}
	if downErrs != 0 {
		t.Fatalf("%d leases failed fast with a live socket in the pool", downErrs)
	}
	if dialErrs > 1 {
		t.Fatalf("%d failed dials, want at most the one that opens backoff", dialErrs)
	}
	if served < 9 {
		t.Fatalf("only %d/10 leases served by the surviving socket", served)
	}
}

// TestWindowBackpressure: a write that meets a full in-flight window is
// staged, not sent — the backend sees it only after a response frees a
// slot — and the writer learns so at once (ErrBacklogged) instead of
// waiting. The freed slot runs the writable callback, and the retry sends
// the staged request.
func TestWindowBackpressure(t *testing.T) {
	u := netstack.NewUserNet()
	l, err := u.Listen("be:win")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conns := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		conns <- c
	}()

	m := testManager(u, nil, 1, 1) // window of exactly one request
	defer m.Close()
	s, err := m.Lease("be:win")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	writable := make(chan struct{}, 1)
	s.SetWritableCallback(func() {
		select {
		case writable <- struct{}{}:
		default:
		}
	})
	if _, err := s.Write(frame("first")); err != nil {
		t.Fatal(err)
	}
	be := <-conns
	defer be.Close()
	readFrameRaw(t, be)

	if _, err := s.Write(frame("second")); err != netstack.ErrBacklogged {
		t.Fatalf("second write with the window full = %v, want ErrBacklogged", err)
	}
	be.SetReadDeadline(time.Now().Add(100 * time.Millisecond))
	var b [1]byte
	if n, err := be.Read(b[:]); n != 0 || !errors.Is(err, netstack.ErrTimeout) {
		t.Fatalf("backend read %d bytes with the window full (err=%v)", n, err)
	}
	select {
	case <-writable:
		t.Fatal("writable callback ran with the window full")
	default:
	}
	// Answer the first request: the window frees and the retry lands.
	if _, err := be.Write(frame("first")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-writable:
	case <-time.After(2 * time.Second):
		t.Fatal("writable callback did not run after the window freed")
	}
	if _, err := s.WriteBatch(nil); err != nil {
		t.Fatalf("second write after window freed: %v", err)
	}
	if got := readFrameRaw(t, be); got != "second" {
		t.Fatalf("backend saw %q, want %q", got, "second")
	}
	if got := readFrame(t, NewReader(t, s), 2*time.Second); got != "first" {
		t.Fatalf("response = %q", got)
	}
}

// TestWindowWaitersWokenInOrder: sessions whose writes meet a full window
// on one socket are woken one per freed slot, the longest-waiting first;
// one that closes instead of retrying passes its slot to the next, and
// closing a session still waiting wakes its own writer.
func TestWindowWaitersWokenInOrder(t *testing.T) {
	u := netstack.NewUserNet()
	l, err := u.Listen("be:order")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conns := make(chan net.Conn, 1)
	go func() {
		if c, err := l.Accept(); err == nil {
			conns <- c
		}
	}()
	m := testManager(u, nil, 1, 1)
	defer m.Close()
	woken := make(chan string, 8)
	lease := func(name string) *Session {
		s, err := m.Lease("be:order")
		if err != nil {
			t.Fatal(err)
		}
		s.SetWritableCallback(func() { woken <- name })
		return s
	}
	a, b, c, d := lease("a"), lease("b"), lease("c"), lease("d")
	defer a.Close()
	defer c.Close()
	if _, err := a.Write(frame("a")); err != nil {
		t.Fatal(err)
	}
	for _, s := range []*Session{b, c, d} {
		if _, err := s.Write(frame("staged")); err != netstack.ErrBacklogged {
			t.Fatalf("write behind a full window = %v, want ErrBacklogged", err)
		}
	}
	expect := func(want string) {
		t.Helper()
		select {
		case got := <-woken:
			if got != want {
				t.Fatalf("woke %s, want %s", got, want)
			}
		case <-time.After(2 * time.Second):
			t.Fatalf("%s was not woken", want)
		}
	}
	d.Close() // still waiting: its own writer learns of the close
	expect("d")
	be := <-conns
	defer be.Close()
	readFrameRaw(t, be)
	if _, err := be.Write(frame("a")); err != nil {
		t.Fatal(err)
	}
	expect("b")
	b.Close() // woken, but closes instead of retrying: c gets the slot
	expect("c")
	if _, err := c.WriteBatch(nil); err != nil {
		t.Fatalf("c's retry with the slot free: %v", err)
	}
	if got := readFrameRaw(t, be); got != "staged" {
		t.Fatalf("backend saw %q, want c's staged request", got)
	}
	select {
	case got := <-woken:
		t.Fatalf("%s woken with no slot free", got)
	default:
	}
}

// TestUnsolicitedResponseBreaksConn: a response with no matching request
// makes FIFO correlation impossible; the only safe recovery is failing the
// socket (every session EOFs).
func TestUnsolicitedResponseBreaksConn(t *testing.T) {
	u := netstack.NewUserNet()
	l, err := u.Listen("be:rogue")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conns := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err == nil {
			conns <- c
		}
	}()
	m := testManager(u, nil, 1, 0)
	defer m.Close()
	s, err := m.Lease("be:rogue")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	be := <-conns
	defer be.Close()
	if _, err := be.Write(frame("nobody asked")); err != nil {
		t.Fatal(err)
	}
	if err := NewReader(t, s).End(2 * time.Second); err != io.EOF {
		t.Fatalf("read after unsolicited response = %v, want EOF", err)
	}
}

// TestSessionCloseDropsPendingResponse: closing a session with a response
// still in flight must consume that response silently (keeping FIFO order
// for neighbours) and leak nothing.
func TestSessionCloseDropsPendingResponse(t *testing.T) {
	u := netstack.NewUserNet()
	pool := buffer.NewPool(64)
	defer echoServer(t, u, "be:drop").Close()
	m := testManager(u, pool, 1, 0)

	quitter, err := m.Lease("be:drop")
	if err != nil {
		t.Fatal(err)
	}
	stayer, err := m.Lease("be:drop")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := quitter.Write(frame("goodbye")); err != nil {
		t.Fatal(err)
	}
	if _, err := stayer.Write(frame("hello")); err != nil {
		t.Fatal(err)
	}
	quitter.Close() // response to "goodbye" is still in flight
	if got := readFrame(t, NewReader(t, stayer), 2*time.Second); got != "hello" {
		t.Fatalf("stayer got %q, want %q (FIFO skew after close?)", got, "hello")
	}
	stayer.Close()
	m.Close()
	waitBalanced(t, pool)
}

// waitBalanced polls until the pool's region gets/puts balance (deliveries
// race shutdown by a callback's length).
func waitBalanced(t *testing.T, pool *buffer.Pool) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for {
		s := pool.Stats()
		if s.RefGets == s.RefPuts {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("region leak: %d handed out, %d recycled", s.RefGets, s.RefPuts)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestConcurrentSessionsStress hammers one shared socket from many
// goroutines to give -race a fair shot at the correlation machinery.
func TestConcurrentSessionsStress(t *testing.T) {
	u := netstack.NewUserNet()
	defer echoServer(t, u, "be:stress").Close()
	m := testManager(u, nil, 2, 8)
	defer m.Close()

	const goroutines, rounds = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			s, err := m.Lease("be:stress")
			if err != nil {
				errs <- err
				return
			}
			defer s.Close()
			r := NewReader(t, s)
			for i := 0; i < rounds; i++ {
				msg := fmt.Sprintf("g%d-%d", g, i)
				if _, err := s.Write(frame(msg)); err != nil {
					errs <- fmt.Errorf("write %s: %w", msg, err)
					return
				}
				p, err := r.Frame(5 * time.Second)
				if err != nil {
					errs <- fmt.Errorf("read %s: %w", msg, err)
					return
				}
				if p != msg {
					errs <- fmt.Errorf("cross-delivery: got %q, want %q", p, msg)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
}

// TestInflightForAndHealth pins the per-address in-flight gauge (the feed
// for bounded-load routing) and the HealthFor verdicts: the gauge rises on
// framed writes, falls on delivered responses, and drains fully when the
// shared socket fails with requests outstanding; health is idle before any
// socket, up with a live socket, down inside a fail-fast window.
func TestInflightForAndHealth(t *testing.T) {
	u := netstack.NewUserNet()
	defer echoServer(t, u, "be:echo").Close()
	m := testManager(u, nil, 1, 0)
	defer m.Close()

	if h := m.HealthFor("be:echo"); h != HealthIdle {
		t.Fatalf("health before first lease = %q, want %q", h, HealthIdle)
	}
	if v := m.InflightFor("be:echo"); v != 0 {
		t.Fatalf("inflight before first lease = %d, want 0", v)
	}

	// A backend that accepts and reads but never answers keeps its request
	// in flight indefinitely.
	l, err := u.Listen("be:silent")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	connCh := make(chan net.Conn, 1)
	go func() {
		c, err := l.Accept()
		if err != nil {
			return
		}
		connCh <- c
		io.Copy(io.Discard, c)
	}()
	s, err := m.Lease("be:silent")
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Write(frame("stuck")); err != nil {
		t.Fatal(err)
	}
	if v := m.InflightFor("be:silent"); v != 1 {
		t.Fatalf("inflight with one unanswered request = %d, want 1", v)
	}
	if h := m.HealthFor("be:silent"); h != HealthUp {
		t.Fatalf("health with live socket = %q, want %q", h, HealthUp)
	}

	// A completed round trip returns the gauge to zero: deliver decrements
	// before handing the response over, so after readFrame it is settled.
	s2, err := m.Lease("be:echo")
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if _, err := s2.Write(frame("ping")); err != nil {
		t.Fatal(err)
	}
	if got := readFrame(t, NewReader(t, s2), 2*time.Second); got != "ping" {
		t.Fatalf("echo got %q", got)
	}
	if v := m.InflightFor("be:echo"); v != 0 {
		t.Fatalf("inflight after round trip = %d, want 0", v)
	}

	// Socket failure with a request outstanding drains the gauge (fail
	// subtracts the whole FIFO count), asynchronously via the pump.
	(<-connCh).Close()
	deadline := time.Now().Add(2 * time.Second)
	for m.InflightFor("be:silent") != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("inflight stuck at %d after socket failure", m.InflightFor("be:silent"))
		}
		time.Sleep(time.Millisecond)
	}

	// A dead backend's failed dial opens the fail-fast window: down.
	if _, err := m.Lease("be:dead"); err == nil {
		t.Fatal("lease to unlistened address succeeded")
	}
	if h := m.HealthFor("be:dead"); h != HealthDown {
		t.Fatalf("health inside backoff window = %q, want %q", h, HealthDown)
	}
}
