package upstream

import (
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flick/internal/buffer"
	"flick/internal/netstack"
)

// shardManager builds a sharded manager over the test frame protocol.
func shardManager(u *netstack.UserNet, pool *buffer.Pool, shards, size int) *Manager {
	return NewManager(Config{
		Transport:      u,
		Pool:           pool,
		Size:           size,
		Shards:         shards,
		RequestFramer:  StatelessRequest(testFramer),
		ResponseFramer: StatelessResponse(testFramer),
		Backoff:        20 * time.Millisecond,
	})
}

// TestLeaseOnRoutesToOwnShard: leases for distinct workers land in
// distinct shards — each dials its own socket — and a repeat lease on the
// same worker reuses its shard's socket instead of crossing shards.
func TestLeaseOnRoutesToOwnShard(t *testing.T) {
	u := netstack.NewUserNet()
	defer echoServer(t, u, "sh:own").Close()
	m := shardManager(u, nil, 4, 1)
	defer m.Close()

	var sessions []*Session
	for w := 0; w < 4; w++ {
		s, err := m.LeaseOn("sh:own", w)
		if err != nil {
			t.Fatalf("LeaseOn worker %d: %v", w, err)
		}
		sessions = append(sessions, s)
	}
	if d := counter(t, m, "dials"); d != 4 {
		t.Fatalf("dials = %d, want 4 (one socket per shard)", d)
	}
	if h := counter(t, m, "shardhits"); h != 4 {
		t.Fatalf("shardhits = %d, want 4", h)
	}
	if st := counter(t, m, "shardsteals"); st != 0 {
		t.Fatalf("shardsteals = %d, want 0", st)
	}
	// Same worker again: the shard's own socket serves (reuse, no dial).
	s, err := m.LeaseOn("sh:own", 2)
	if err != nil {
		t.Fatal(err)
	}
	sessions = append(sessions, s)
	if d := counter(t, m, "dials"); d != 4 {
		t.Fatalf("dials after reuse = %d, want 4", d)
	}
	if r := counter(t, m, "reuse"); r != 1 {
		t.Fatalf("reuse = %d, want 1", r)
	}
	// Worker ids beyond the shard count wrap (worker 6 → shard 2).
	s6, err := m.LeaseOn("sh:own", 6)
	if err != nil {
		t.Fatal(err)
	}
	sessions = append(sessions, s6)
	if d := counter(t, m, "dials"); d != 4 {
		t.Fatalf("dials after wrapped worker = %d, want 4", d)
	}
	// Every session round-trips despite living on four distinct sockets.
	for i, s := range sessions {
		msg := fmt.Sprintf("own-%d", i)
		if _, err := s.Write(frame(msg)); err != nil {
			t.Fatalf("write %d: %v", i, err)
		}
		if got := readFrame(t, NewReader(t, s), 2*time.Second); got != msg {
			t.Fatalf("session %d got %q, want %q", i, got, msg)
		}
		s.Close()
	}
}

// TestShardStealFallsBackToLiveSibling: a shard whose dial fails borrows
// a live socket from a sibling shard instead of failing the lease — and
// counts the cross-shard hop as a shardsteal.
func TestShardStealFallsBackToLiveSibling(t *testing.T) {
	u := netstack.NewUserNet()
	l := echoServer(t, u, "sh:steal")
	m := shardManager(u, nil, 2, 1)
	defer m.Close()

	s0, err := m.LeaseOn("sh:steal", 0) // dials shard 0's socket
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Close()
	l.Close() // no further dials can succeed

	// Shard 1 has no socket and cannot dial one; the lease must be served
	// by shard 0's live socket.
	s1, err := m.LeaseOn("sh:steal", 1)
	if err != nil {
		t.Fatalf("LeaseOn with a live sibling socket failed: %v", err)
	}
	defer s1.Close()
	if st := counter(t, m, "shardsteals"); st != 1 {
		t.Fatalf("shardsteals = %d, want 1", st)
	}
	if _, err := s1.Write(frame("borrowed")); err != nil {
		t.Fatal(err)
	}
	if got := readFrame(t, NewReader(t, s1), 2*time.Second); got != "borrowed" {
		t.Fatalf("stolen-session echo = %q", got)
	}
	// Shard 1's failed dial opened its backoff window; the next lease on
	// it steals again (fail-fast path) rather than failing with ErrDown.
	s2, err := m.LeaseOn("sh:steal", 1)
	if err != nil {
		t.Fatalf("LeaseOn during sibling backoff failed: %v", err)
	}
	s2.Close()
	if st := counter(t, m, "shardsteals"); st != 2 {
		t.Fatalf("shardsteals = %d, want 2", st)
	}
	// A lease a sibling absorbed was never refused: failfast counts only
	// leases that actually fail, not backoff hits rescued by a steal.
	if ff := counter(t, m, "failfast"); ff != 0 {
		t.Fatalf("failfast = %d for leases served by a sibling, want 0", ff)
	}
}

// TestSetBackendsDrainsEveryShard: a topology removal retires the
// address's pool in every shard — sessions finish on their sockets, new
// leases are refused on every shard, and each shard's socket closes
// (counted) as its last session detaches.
func TestSetBackendsDrainsEveryShard(t *testing.T) {
	const shards = 3
	u := netstack.NewUserNet()
	defer echoServer(t, u, "sh:drain").Close()
	defer echoServer(t, u, "sh:keep").Close()
	m := shardManager(u, nil, shards, 1)
	defer m.Close()
	m.SetBackends([]string{"sh:drain", "sh:keep"})

	var sessions []*Session
	for w := 0; w < shards; w++ {
		s, err := m.LeaseOn("sh:drain", w)
		if err != nil {
			t.Fatalf("LeaseOn worker %d: %v", w, err)
		}
		sessions = append(sessions, s)
	}
	if n := m.Conns(); n != shards {
		t.Fatalf("Conns = %d, want %d", n, shards)
	}

	m.SetBackends([]string{"sh:keep"})

	// In-flight sessions keep working on their original shard sockets.
	for i, s := range sessions {
		msg := fmt.Sprintf("drain-%d", i)
		if _, err := s.Write(frame(msg)); err != nil {
			t.Fatalf("write on draining shard %d: %v", i, err)
		}
		if got := readFrame(t, NewReader(t, s), 2*time.Second); got != msg {
			t.Fatalf("draining shard %d echo = %q", i, got)
		}
	}
	if d := counter(t, m, "drained"); d != 0 {
		t.Fatalf("drained = %d while sessions still hold sockets", d)
	}
	// Every shard refuses new leases to the removed address.
	for w := 0; w < shards; w++ {
		if _, err := m.LeaseOn("sh:drain", w); !errors.Is(err, ErrRetired) {
			t.Fatalf("shard %d lease to removed backend = %v, want ErrRetired", w, err)
		}
	}
	// Each shard's socket closes as its session detaches.
	for _, s := range sessions {
		s.Close()
	}
	waitCounter(t, m, "drained", shards)
	if n := m.Conns(); n != 0 {
		t.Fatalf("Conns = %d after drain, want 0", n)
	}
}

// drainingPools counts retired pools still tracked across all shards
// (white-box: the set Manager.Close must sweep).
func drainingPools(m *Manager) int {
	n := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		n += len(sh.draining)
		sh.mu.Unlock()
	}
	return n
}

// TestRetiredPoolReapedWhenSocketBreaksMidDrain: a retired pool whose
// socket dies before its last session detaches (backend crash during a
// drain) must still leave the shard's draining set — the broken socket
// ends the pool's life exactly as a counted drain does. Before the reap
// re-check in maybeDrain, each such pool was pinned until Manager.Close
// (unbounded growth under topology churn with failing backends).
func TestRetiredPoolReapedWhenSocketBreaksMidDrain(t *testing.T) {
	u := netstack.NewUserNet()
	l, err := u.Listen("sh:reap")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	conns := make(chan net.Conn, 2)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			conns <- c
		}
	}()
	m := shardManager(u, nil, 1, 1)
	defer m.Close()
	m.SetBackends([]string{"sh:reap"})

	s, err := m.Lease("sh:reap")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := s.Write(frame("up")); err != nil {
		t.Fatal(err)
	}
	be := <-conns
	if got := readFrameRaw(t, be); got != "up" {
		t.Fatalf("backend saw %q", got)
	}
	if _, err := be.Write(frame("up")); err != nil {
		t.Fatal(err)
	}
	r := NewReader(t, s)
	if got := readFrame(t, r, 2*time.Second); got != "up" {
		t.Fatalf("echo = %q", got)
	}

	// Retire while the session still holds the socket, then break the
	// socket out from under the drain (backend dies mid-drain).
	m.SetBackends(nil)
	if n := drainingPools(m); n != 1 {
		t.Fatalf("draining pools = %d mid-drain, want 1", n)
	}
	be.Close() // backend dies; the shared socket fails
	if err := r.Wait(2 * time.Second); err != io.EOF {
		t.Fatalf("read after backend death = %v, want EOF", err)
	}
	s.Close() // last detach: the broken socket must still reap the pool

	deadline := time.Now().Add(2 * time.Second)
	for drainingPools(m) != 0 {
		if time.Now().After(deadline) {
			t.Fatalf("retired pool stranded in the draining set after its socket broke")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The socket broke on its own — it was never drained by the topology.
	if d := counter(t, m, "drained"); d != 0 {
		t.Fatalf("drained = %d for a socket that failed mid-drain, want 0", d)
	}
}

// TestConnsCountsDrainingSockets: a retired pool's sockets stay open
// until their sessions detach — Conns must keep reporting them (open OS
// sockets) instead of dropping them the moment SetBackends runs.
func TestConnsCountsDrainingSockets(t *testing.T) {
	u := netstack.NewUserNet()
	defer echoServer(t, u, "sh:conns").Close()
	m := shardManager(u, nil, 1, 1)
	defer m.Close()
	m.SetBackends([]string{"sh:conns"})

	s, err := m.Lease("sh:conns")
	if err != nil {
		t.Fatal(err)
	}
	if n := m.Conns(); n != 1 {
		t.Fatalf("Conns = %d, want 1", n)
	}
	m.SetBackends(nil) // retire while the session holds the socket
	if n := m.Conns(); n != 1 {
		t.Fatalf("Conns = %d during drain, want 1 (socket still open)", n)
	}
	s.Close()
	waitCounter(t, m, "drained", 1)
	if n := m.Conns(); n != 0 {
		t.Fatalf("Conns = %d after drain, want 0", n)
	}
}

// TestLeaseRacingRetireNeverBornAtEOF: a lease that succeeds must hand out
// a working session, even when a topology removal retires the backend in
// the same instant. The lease used to pick a live socket under the pool
// lock and attach its session only after releasing it; a retire landing
// in that gap saw a socket with no sessions, drained it, and the lease
// returned a session already at EOF instead of ErrRetired — the caller's
// retry never fired and the request routed to it vanished.
func TestLeaseRacingRetireNeverBornAtEOF(t *testing.T) {
	u := netstack.NewUserNet()
	defer echoServer(t, u, "sh:race").Close()
	m := shardManager(u, nil, 1, 1)
	defer m.Close()

	// The lessee spins on gate until the main loop releases it, so Lease
	// and SetBackends(nil) start together instead of a goroutine start
	// apart; a gate past iters stops it.
	const iters = 20000
	var (
		gate   atomic.Int64
		leased = make(chan *Session, 1)
	)
	defer gate.Store(iters + 1)
	go func() {
		for i := int64(1); i <= iters; i++ {
			for g := gate.Load(); g != i; g = gate.Load() {
				if g > iters {
					return
				}
				runtime.Gosched()
			}
			s, err := m.Lease("sh:race")
			if err != nil {
				s = nil // refused as retired: the caller retries
			}
			leased <- s
		}
	}()
	bornAtEOF := 0
	q := buffer.NewQueue(nil)
	for i := int64(1); i <= iters; i++ {
		m.SetBackends([]string{"sh:race"})
		warm, err := m.Lease("sh:race") // dial the socket the race leases
		if err != nil {
			t.Fatal(err)
		}
		warm.Close()
		gate.Store(i)
		m.SetBackends(nil)
		if s := <-leased; s != nil {
			if _, err := s.TryReadRefs(q); err == io.EOF {
				bornAtEOF++
			}
			s.Close()
			q.Reset()
		}
	}
	if bornAtEOF > 0 {
		t.Fatalf("%d of %d leases returned a session already at EOF", bornAtEOF, iters)
	}
}

// TestProbeVerdictBroadcastClosesAllShardWindows: a dead backend opens a
// fail-fast window in every shard that tried it; one successful probe —
// run once per backend, on shard 0 — must close every shard's window, so
// the first post-recovery lease on any shard succeeds.
func TestProbeVerdictBroadcastClosesAllShardWindows(t *testing.T) {
	const shards = 3
	u := netstack.NewUserNet()
	m := NewManager(Config{
		Transport:      u,
		Size:           1,
		Shards:         shards,
		RequestFramer:  StatelessRequest(testFramer),
		ResponseFramer: StatelessResponse(testFramer),
		// A backoff far longer than the test: only the probe broadcast can
		// close the windows in time.
		Backoff:       30 * time.Second,
		MaxBackoff:    30 * time.Second,
		Probe:         frame("ping"),
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
	})
	defer m.Close()

	// Every shard burns its own dial and opens its own 30s window. With
	// all shards down there is nothing to steal, so the second round
	// fails fast on every shard.
	for w := 0; w < shards; w++ {
		if _, err := m.LeaseOn("sh:probe", w); err == nil {
			t.Fatalf("shard %d lease against a dead backend succeeded", w)
		}
	}
	for w := 0; w < shards; w++ {
		if _, err := m.LeaseOn("sh:probe", w); !errors.Is(err, ErrDown) {
			t.Fatalf("shard %d lease = %v, want ErrDown (own window open, no live sibling)", w, err)
		}
	}
	ffBefore := counter(t, m, "failfast")

	// Backend recovers; one probe (shard 0) broadcasts the verdict.
	defer echoServer(t, u, "sh:probe").Close()
	waitCounter(t, m, "probes", 1)

	for w := 0; w < shards; w++ {
		s, err := m.LeaseOn("sh:probe", w)
		if err != nil {
			t.Fatalf("shard %d lease after probe recovery: %v (counters: %s)", w, err, m.Counters())
		}
		if _, err := s.Write(frame("hi")); err != nil {
			t.Fatalf("shard %d write after recovery: %v", w, err)
		}
		if got := readFrame(t, NewReader(t, s), 2*time.Second); got != "hi" {
			t.Fatalf("shard %d echo = %q", w, got)
		}
		s.Close()
	}
	if ff := counter(t, m, "failfast"); ff != ffBefore {
		t.Fatalf("leases failed fast after the probe broadcast: failfast %d → %d", ffBefore, ff)
	}
}

// TestProbeRepairsSiblingWindowWhileProbingShardHealthy: a fail-fast
// window armed by a non-probing shard's own failed dial (a backend blip
// the probing shard's live sockets never noticed) must still be closed
// by the probe layer — via a round trip on the probing shard's live
// socket and a success broadcast — not ridden out for its full duration
// while every lease on the degraded shard cross-core-steals.
func TestProbeRepairsSiblingWindowWhileProbingShardHealthy(t *testing.T) {
	u := netstack.NewUserNet()
	defer echoServer(t, u, "sh:blip").Close()
	m := NewManager(Config{
		Transport:      u,
		Size:           1,
		Shards:         2,
		RequestFramer:  StatelessRequest(testFramer),
		ResponseFramer: StatelessResponse(testFramer),
		// A window only a probe verdict can close within the test.
		Backoff:       30 * time.Second,
		MaxBackoff:    30 * time.Second,
		Probe:         frame("ping"),
		ProbeInterval: 5 * time.Millisecond,
		ProbeTimeout:  2 * time.Second,
	})
	defer m.Close()
	m.SetBackends([]string{"sh:blip"})

	// Shard 0 (the probing shard) holds a live, healthy socket.
	s0, err := m.LeaseOn("sh:blip", 0)
	if err != nil {
		t.Fatal(err)
	}
	defer s0.Close()

	// Shard 1 armed its window during a blip shard 0 never saw
	// (white-box: equivalent to its own dial failing).
	m.shards[1].mu.Lock()
	p1 := m.shards[1].pools["sh:blip"]
	m.shards[1].mu.Unlock()
	p1.mu.Lock()
	p1.backoff = 30 * time.Second
	p1.downUntil = time.Now().Add(30 * time.Second)
	p1.mu.Unlock()

	probesBefore := counter(t, m, "probes")
	// The sibling-verify probe must round-trip on shard 0's live socket
	// and broadcast success, closing shard 1's window.
	waitCounter(t, m, "probes", probesBefore+1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		p1.mu.Lock()
		open := time.Now().Before(p1.downUntil)
		p1.mu.Unlock()
		if !open {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("sibling shard's fail-fast window never closed by the probe broadcast")
		}
		time.Sleep(2 * time.Millisecond)
	}
	// The repaired shard serves its own lease: a fresh dial, not a steal.
	s1, err := m.LeaseOn("sh:blip", 1)
	if err != nil {
		t.Fatalf("lease on repaired shard: %v", err)
	}
	defer s1.Close()
	if st := counter(t, m, "shardsteals"); st != 0 {
		t.Fatalf("repaired shard's lease stole (%d), want its own dial", st)
	}
	if _, err := s1.Write(frame("back")); err != nil {
		t.Fatal(err)
	}
	if got := readFrame(t, NewReader(t, s1), 2*time.Second); got != "back" {
		t.Fatalf("echo after repair = %q", got)
	}
}

// TestProbeFailureBroadcastArmsAllShardWindows: a failed probe dial arms
// the fail-fast window in every shard, so no shard re-pays the dead
// backend's connect cost once the probe has discovered it.
func TestProbeFailureBroadcastArmsAllShardWindows(t *testing.T) {
	const shards = 3
	u := netstack.NewUserNet()
	m := NewManager(Config{
		Transport:      u,
		Size:           1,
		Shards:         shards,
		RequestFramer:  StatelessRequest(testFramer),
		ResponseFramer: StatelessResponse(testFramer),
		Backoff:        30 * time.Second,
		MaxBackoff:     30 * time.Second,
		Probe:          frame("ping"),
		ProbeInterval:  time.Hour, // swept by hand below
		ProbeTimeout:   2 * time.Second,
	})
	defer m.Close()

	// Topology-managed: the probe sweep targets the address without any
	// lease having touched it. Run one sweep synchronously (white-box;
	// the background loop's timing would race the assertions below — a
	// lease's own failed dial also arms its shard's window, which is not
	// what this test is about).
	m.SetBackends([]string{"sh:dead"})
	p := m.probePool("sh:dead")
	p.probeSlot(0) // dial fails; the verdict broadcast arms every shard

	// Every shard now fails fast without ever having dialled: a dial
	// attempt of its own would surface as a dial error, not ErrDown.
	for w := 0; w < shards; w++ {
		if _, err := m.LeaseOn("sh:dead", w); !errors.Is(err, ErrDown) {
			t.Fatalf("shard %d lease = %v, want ErrDown", w, err)
		}
	}
	if ff := counter(t, m, "failfast"); ff != shards {
		t.Fatalf("failfast = %d, want %d (one per shard)", ff, shards)
	}
}

// TestShardedMidStreamFailureBalancesRefs: backends dying under sessions
// spread across shards EOF every session and recycle every pooled region
// (refgets == refputs) — the sharded variant of the PR 3 failure gate.
func TestShardedMidStreamFailureBalancesRefs(t *testing.T) {
	const shards = 2
	u := netstack.NewUserNet()
	pool := buffer.NewPool(64)
	l, err := u.Listen("sh:die")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	var (
		bmu      sync.Mutex
		backends []interface{ Close() error }
	)
	go func() {
		for {
			c, err := l.Accept()
			if err != nil {
				return
			}
			bmu.Lock()
			backends = append(backends, c)
			bmu.Unlock()
			go func() {
				// Echo until killed.
				for {
					var h [4]byte
					if _, err := io.ReadFull(c, h[:]); err != nil {
						return
					}
					p := make([]byte, int(uint32(h[0])<<24|uint32(h[1])<<16|uint32(h[2])<<8|uint32(h[3])))
					if _, err := io.ReadFull(c, p); err != nil {
						return
					}
					if _, err := c.Write(frame(string(p))); err != nil {
						return
					}
				}
			}()
		}
	}()

	m := shardManager(u, pool, shards, 1)
	var sessions []*Session
	var readers []*Reader
	for w := 0; w < shards; w++ {
		s, err := m.LeaseOn("sh:die", w)
		if err != nil {
			t.Fatal(err)
		}
		sessions = append(sessions, s)
		readers = append(readers, NewReader(t, s))
		msg := fmt.Sprintf("pre-%d", w)
		if _, err := s.Write(frame(msg)); err != nil {
			t.Fatal(err)
		}
		if got := readFrame(t, readers[w], 2*time.Second); got != msg {
			t.Fatalf("shard %d echo = %q", w, got)
		}
	}
	// Leave one request in flight on each shard's socket, then kill every
	// backend connection.
	for w, s := range sessions {
		if _, err := s.Write(frame(fmt.Sprintf("doomed-%d", w))); err != nil {
			t.Fatal(err)
		}
	}
	bmu.Lock()
	for _, b := range backends {
		b.Close()
	}
	bmu.Unlock()

	for w, s := range sessions {
		// The backend may have echoed the doomed request before it died:
		// drain whatever arrived, the stream must still end in EOF.
		if err := readers[w].End(2 * time.Second); err != io.EOF {
			t.Fatalf("shard %d session read after backend death = %v, want EOF", w, err)
		}
		readers[w].Q.Reset()
		s.Close()
	}
	m.Close()
	waitBalanced(t, pool)
}

// TestConcurrentShardLeaseStress hammers a sharded manager from many
// goroutines across all shards (worker ids wrap past the shard count) to
// give -race a fair shot at the shard map, steal path and per-shard
// drain/probe bookkeeping.
func TestConcurrentShardLeaseStress(t *testing.T) {
	u := netstack.NewUserNet()
	defer echoServer(t, u, "sh:stress").Close()
	m := shardManager(u, nil, 4, 2)
	defer m.Close()

	const goroutines, rounds = 16, 40
	var wg sync.WaitGroup
	errs := make(chan error, goroutines)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s, err := m.LeaseOn("sh:stress", g%8)
				if err != nil {
					errs <- fmt.Errorf("lease g%d-%d: %w", g, i, err)
					return
				}
				msg := fmt.Sprintf("g%d-%d", g, i)
				if _, err := s.Write(frame(msg)); err != nil {
					s.Close()
					errs <- fmt.Errorf("write %s: %w", msg, err)
					return
				}
				p, err := NewReader(t, s).Frame(5 * time.Second)
				if err != nil {
					s.Close()
					errs <- fmt.Errorf("read %s: %w", msg, err)
					return
				}
				if p != msg {
					s.Close()
					errs <- fmt.Errorf("cross-delivery: got %q, want %q", p, msg)
					return
				}
				s.Close()
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	if hits := counter(t, m, "shardhits"); hits == 0 {
		t.Fatal("stress recorded no shardhits")
	}
}
