package upstream

import (
	"errors"
	"testing"
	"time"

	"flick/internal/netstack"
)

// probeManager builds a manager with background probing over the test
// frame protocol (probe = one "ping" frame; the echo server answers it
// like any other frame).
func probeManager(u *netstack.UserNet, interval time.Duration) *Manager {
	return NewManager(Config{
		Transport:      u,
		Size:           2,
		RequestFramer:  StatelessRequest(testFramer),
		ResponseFramer: StatelessResponse(testFramer),
		// A backoff far longer than the test: without probes, a failed
		// dial would gate leases until the window expires on its own.
		Backoff:       30 * time.Second,
		MaxBackoff:    30 * time.Second,
		Probe:         frame("ping"),
		ProbeInterval: interval,
		ProbeTimeout:  2 * time.Second,
	})
}

// waitCounter polls one manager counter until it reaches at least want.
func waitCounter(t *testing.T, m *Manager, name string, want uint64) uint64 {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		got, _ := m.Counters().Get(name)
		if got >= want {
			return got
		}
		if time.Now().After(deadline) {
			t.Fatalf("counter %s stuck at %d, want ≥ %d (counters: %s)", name, got, want, m.Counters())
		}
		time.Sleep(2 * time.Millisecond)
	}
}

// TestProbeClosesFailFastWindow is the probe layer's headline property: a
// backend that comes back while its backoff window is still open is
// rediscovered by the background probe, so the first client lease after
// recovery succeeds instead of failing fast — the client never pays for
// the discovery.
func TestProbeClosesFailFastWindow(t *testing.T) {
	u := netstack.NewUserNet()
	m := probeManager(u, 5*time.Millisecond)
	defer m.Close()

	// No listener yet: the first lease fails and opens a 30s backoff
	// window. Without probes every lease inside it would fail fast.
	if _, err := m.Lease("probe:1"); err == nil {
		t.Fatal("lease against a dead backend should fail")
	}
	if _, err := m.Lease("probe:1"); !errors.Is(err, ErrDown) {
		t.Fatalf("second lease should fail fast inside the backoff window, got %v", err)
	}
	ffBefore, _ := m.Counters().Get("failfast")

	// The backend comes back. The probe loop must re-dial the slot and
	// close the window in the background.
	l := echoServer(t, u, "probe:1")
	defer l.Close()
	waitCounter(t, m, "probes", 1)

	s, err := m.Lease("probe:1")
	if err != nil {
		t.Fatalf("lease after probe recovery: %v (counters: %s)", err, m.Counters())
	}
	defer s.Close()
	if _, err := s.Write(frame("hello")); err != nil {
		t.Fatalf("write after recovery: %v", err)
	}
	if got := readFrame(t, NewReader(t, s), 2*time.Second); got != "hello" {
		t.Fatalf("echo after recovery = %q", got)
	}
	ffAfter, _ := m.Counters().Get("failfast")
	if ffAfter != ffBefore {
		t.Fatalf("client lease failed fast after recovery: failfast %d → %d", ffBefore, ffAfter)
	}
}

// TestProbePrewarmsNewBackends: SetBackends makes an address a probe
// target immediately, so its sockets exist before the first lease.
func TestProbePrewarmsNewBackends(t *testing.T) {
	u := netstack.NewUserNet()
	l := echoServer(t, u, "warm:1")
	defer l.Close()
	m := probeManager(u, 5*time.Millisecond)
	defer m.Close()

	m.SetBackends([]string{"warm:1"})
	waitCounter(t, m, "probes", 1)
	if m.Conns() == 0 {
		t.Fatal("probing should have pre-established pool sockets")
	}
	dials, _ := m.Counters().Get("dials")
	s, err := m.Lease("warm:1")
	if err != nil {
		t.Fatalf("lease: %v", err)
	}
	defer s.Close()
	if d2, _ := m.Counters().Get("dials"); d2 != dials {
		t.Fatalf("lease dialled (%d → %d) although probes pre-warmed the pool", dials, d2)
	}
}

// TestSetBackendsDrainsRemovedPools pins the drain contract: a removed
// backend's sessions finish on their original socket, new leases are
// refused, and the socket closes (counted) when the last session detaches.
func TestSetBackendsDrainsRemovedPools(t *testing.T) {
	u := netstack.NewUserNet()
	la := echoServer(t, u, "drain:a")
	defer la.Close()
	lb := echoServer(t, u, "drain:b")
	defer lb.Close()
	m := NewManager(Config{
		Transport:      u,
		Size:           1,
		RequestFramer:  StatelessRequest(testFramer),
		ResponseFramer: StatelessResponse(testFramer),
	})
	defer m.Close()
	m.SetBackends([]string{"drain:a", "drain:b"})

	sa, err := m.Lease("drain:a")
	if err != nil {
		t.Fatal(err)
	}
	ra := NewReader(t, sa)
	if _, err := sa.Write(frame("one")); err != nil {
		t.Fatal(err)
	}
	if got := readFrame(t, ra, 2*time.Second); got != "one" {
		t.Fatalf("echo = %q", got)
	}

	// Remove a while sa is still leased.
	m.SetBackends([]string{"drain:b"})

	// The in-flight lease keeps working on its original socket.
	if _, err := sa.Write(frame("two")); err != nil {
		t.Fatalf("write on draining socket: %v", err)
	}
	if got := readFrame(t, ra, 2*time.Second); got != "two" {
		t.Fatalf("echo on draining socket = %q", got)
	}
	if d, _ := m.Counters().Get("drained"); d != 0 {
		t.Fatalf("socket drained while a session still held it (drained=%d)", d)
	}

	// New leases to the removed backend are refused — including via the
	// lazy-creation path (the pool is already gone from the map).
	if _, err := m.Lease("drain:a"); !errors.Is(err, ErrRetired) {
		t.Fatalf("lease to removed backend = %v, want ErrRetired", err)
	}

	// Last session detaches → socket closes, counted once.
	sa.Close()
	waitCounter(t, m, "drained", 1)

	// The surviving backend is untouched.
	sb, err := m.Lease("drain:b")
	if err != nil {
		t.Fatalf("lease to surviving backend: %v", err)
	}
	sb.Close()

	// Re-adding the address builds a fresh pool.
	m.SetBackends([]string{"drain:a", "drain:b"})
	sa2, err := m.Lease("drain:a")
	if err != nil {
		t.Fatalf("lease after re-add: %v", err)
	}
	defer sa2.Close()
	if _, err := sa2.Write(frame("back")); err != nil {
		t.Fatal(err)
	}
	if got := readFrame(t, NewReader(t, sa2), 2*time.Second); got != "back" {
		t.Fatalf("echo after re-add = %q", got)
	}
}

// TestCloseSweepsDrainingPools: a retired pool's sockets — gone from the
// address map but kept alive by a leased session — must still be failed
// by Manager.Close (a socket never outlives a closed manager).
func TestCloseSweepsDrainingPools(t *testing.T) {
	u := netstack.NewUserNet()
	l := echoServer(t, u, "sweep:a")
	defer l.Close()
	m := NewManager(Config{
		Transport:      u,
		Size:           1,
		RequestFramer:  StatelessRequest(testFramer),
		ResponseFramer: StatelessResponse(testFramer),
	})
	sa, err := m.Lease("sweep:a")
	if err != nil {
		t.Fatal(err)
	}
	defer sa.Close()
	if _, err := sa.Write(frame("up")); err != nil {
		t.Fatal(err)
	}
	ra := NewReader(t, sa)
	if got := readFrame(t, ra, 2*time.Second); got != "up" {
		t.Fatalf("echo = %q", got)
	}

	// Retire the pool while the session still holds its socket, then
	// close the manager: the session must observe EOF promptly.
	m.SetBackends(nil)
	m.Close()
	if err := ra.Wait(2 * time.Second); err == nil {
		t.Fatal("read on a closed manager's draining socket returned data, want EOF")
	} else if errors.Is(err, netstack.ErrTimeout) {
		t.Fatal("draining socket survived Manager.Close (read timed out instead of EOF)")
	}
}

// TestProbeMarksUnresponsiveBackendBroken: a backend that accepts the
// dial but never answers is broken by the probe timeout instead of
// serving leases.
func TestProbeMarksUnresponsiveBackendBroken(t *testing.T) {
	u := netstack.NewUserNet()
	// A listener that accepts and then ignores everything.
	l, err := u.Listen("mute:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	go func() {
		for {
			if _, err := l.Accept(); err != nil {
				return
			}
		}
	}()
	m := NewManager(Config{
		Transport:      u,
		Size:           1,
		RequestFramer:  StatelessRequest(testFramer),
		ResponseFramer: StatelessResponse(testFramer),
		Probe:          frame("ping"),
		ProbeInterval:  5 * time.Millisecond,
		ProbeTimeout:   20 * time.Millisecond,
	})
	defer m.Close()
	m.SetBackends([]string{"mute:1"})

	// Each probe cycle dials, times out, and breaks the socket: redials
	// keep climbing while no probe ever succeeds. (Conns may sample 1
	// mid-cycle — the socket sits in its slot during the round trip.)
	waitCounter(t, m, "redials", 3)
	if p, _ := m.Counters().Get("probes"); p != 0 {
		t.Fatalf("a probe against a mute backend succeeded (probes=%d)", p)
	}
}
