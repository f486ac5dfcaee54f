package upstream

import (
	"errors"
	"fmt"
	"net"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"flick/internal/buffer"
	"flick/internal/metrics"
	"flick/internal/netstack"
)

// Framer computes the wire length of the protocol message beginning at
// buffered offset from in q, without consuming any byte. It returns 0 when
// more bytes are needed and an error when the bytes cannot begin a message.
// Framers must be stateless (the layer calls them at arbitrary offsets on
// both directions of a stream). Protocols whose response framing is
// independent of the request (the test protocols, memcache.FrameLen) wrap
// one with StatelessRequest / StatelessResponse; protocols where it is not
// (HTTP: HEAD, 204/304; memcached quiet batches) implement RequestFramer /
// ResponseFramer directly.
type Framer func(q *buffer.Queue, from int) (int, error)

// Context is the per-request demultiplexing context a RequestFramer
// captures at write time and the layer carries through the FIFO to the
// ResponseFramer: whatever the protocol needs to frame the response that
// only the request knows (HTTP method, memcached quiet-batch terminator).
// The layer never interprets it; 0 is the neutral "nothing special" value
// every stateless protocol uses.
type Context uint64

// RequestFramer frames the outgoing request stream of a shared socket: it
// reports the wire length of the request (or request batch) starting at
// buffered offset from in q — 0 when more bytes are needed — plus the
// Context the demultiplexer must use to frame its response. One framed
// unit occupies one FIFO slot and one window unit and yields exactly one
// delivered response view.
type RequestFramer func(q *buffer.Queue, from int) (int, Context, error)

// ResponseFramer frames the inbound response stream: it reports the wire
// length of the response owed to the FIFO-head request whose Context is
// ctx, starting at buffered offset from in q, without consuming any byte.
// It returns 0 when more bytes are needed and an error when the buffered
// bytes cannot be that response (the shared socket is then failed: every
// session on it observes EOF rather than a misframed or truncated view).
type ResponseFramer func(q *buffer.Queue, from int, ctx Context) (int, error)

// StatelessRequest adapts a request-blind Framer to the request side of a
// Config: every framed request carries the zero Context.
func StatelessRequest(f Framer) RequestFramer {
	return func(q *buffer.Queue, from int) (int, Context, error) {
		n, err := f(q, from)
		return n, 0, err
	}
}

// StatelessResponse adapts a request-blind Framer to the response side of
// a Config: the FIFO head's Context is ignored.
func StatelessResponse(f Framer) ResponseFramer {
	return func(q *buffer.Queue, from int, _ Context) (int, error) {
		return f(q, from)
	}
}

// Errors.
var (
	// ErrDown fails a lease fast while the backend's redial backoff window
	// is open.
	ErrDown = errors.New("upstream: backend down (failing fast in backoff)")
	// ErrUnsolicited breaks a shared connection whose backend produced a
	// response with no matching request (FIFO correlation impossible).
	ErrUnsolicited = errors.New("upstream: response without matching request")
	// ErrRetired fails a lease to a backend address that a topology
	// update removed: its pool is draining (or gone) and must not pick up
	// new work.
	ErrRetired = errors.New("upstream: backend removed from topology")
	// errManagerClosed fails the sessions of a closed manager.
	errManagerClosed = errors.New("upstream: manager closed")
)

// Config parameterises a Manager.
type Config struct {
	// Transport dials backend sockets.
	Transport netstack.Transport
	// Pool supplies data-path buffers (buffer.Global when nil).
	Pool *buffer.Pool
	// Size is the shared-socket count per backend address per shard
	// (default 2).
	Size int
	// Shards is the number of independent pool shards (default 1). With
	// Shards = N every backend address has N disjoint socket sets, one per
	// scheduler worker: LeaseOn(addr, w) leases from shard w mod N, so the
	// write path of a task graph pinned to one worker — framing, FIFO
	// reservation, vectored write — never takes a lock contended by
	// another core. Health probes still run once per backend (against
	// shard 0) and broadcast their verdict to every shard, so probe
	// traffic does not multiply with the core count. Shards = 1 is the
	// single shared pool (the `flickbench churn` ablation).
	Shards int
	// Window bounds in-flight (unanswered) requests per shared socket
	// (default 128); a write that meets a full window is staged.
	Window int
	// RequestFramer frames outgoing requests (FIFO accounting) and
	// captures each request's demux Context.
	RequestFramer RequestFramer
	// ResponseFramer frames the inbound response stream (demultiplexing),
	// consulting the FIFO head's Context.
	ResponseFramer ResponseFramer
	// Backoff is the initial redial backoff after a failed dial (default
	// 50ms); it doubles per consecutive failure up to MaxBackoff (default
	// 2s) and resets on success.
	Backoff    time.Duration
	MaxBackoff time.Duration
	// Probe, when non-empty, holds the wire bytes of one protocol-level
	// no-op request (memcache.ProbeRequest, http.ProbeRequest) and turns
	// on proactive health probing: every ProbeInterval the manager dials
	// empty or broken pool slots in the background and round-trips the
	// probe, so dead sockets re-establish — and fail-fast backoff windows
	// close — before any client lease pays for the discovery. The probe
	// request must satisfy RequestFramer (exactly one framed request with
	// exactly one response).
	Probe []byte
	// ProbeInterval is the probe timer period (default 250ms).
	ProbeInterval time.Duration
	// ProbeTimeout bounds one probe round trip (default 1s); a backend
	// that accepts the dial but does not answer is marked broken.
	ProbeTimeout time.Duration
}

// Manager is the shared upstream connection layer for one service: per
// shard, a pool of pipelined sockets per backend address, leased out as
// Sessions. Shard count and socket count per pool come from Config.
type Manager struct {
	cfg    Config
	bufs   *buffer.Pool
	shards []*shard
	closed atomic.Bool
	done   chan struct{} // stops the probe loop

	dials       metrics.Counter // sockets established
	reuse       metrics.Counter // leases served by an already-live socket
	redials     metrics.Counter // sockets re-established after a failure
	failfast    metrics.Counter // leases rejected during backoff
	probes      metrics.Counter // successful background probe round trips
	drained     metrics.Counter // sockets closed by topology drain
	shardhits   metrics.Counter // leases served by the caller's own shard
	shardsteals metrics.Counter // leases served by a sibling shard's socket
	inflight    atomic.Int64    // current unanswered requests (gauge)

	// lat is the upstream round-trip histogram: lease write (FIFO entry
	// push under c.mu, stamped once per framed batch) → FIFO delivery.
	// Sharded by the socket's home shard, so recording stays core-local
	// with the rest of the write path.
	lat *metrics.ShardedHistogram

	// loads holds one in-flight gauge per backend address, shared by every
	// shard's sockets to that address: the global per-backend view that
	// bounded-load routing (backend.BoundedRing via InflightFor) consumes.
	// Gauges are created on first use and never removed — a retired
	// address's gauge drains to zero and costs one map entry.
	loadMu sync.Mutex
	loads  map[string]*atomic.Int64
}

// shard is one independent slice of the manager's pool state: its own
// address→pool map, topology want-set and draining set, guarded by its own
// lock. A lease routed to its home shard touches no other shard's state,
// which is the whole point — per-worker shards keep the backend write path
// core-local.
type shard struct {
	m  *Manager
	id int

	mu    sync.Mutex
	pools map[string]*pool
	// want is the topology-managed address set (nil until SetBackends is
	// first called): with it set, leases to addresses outside the set are
	// refused instead of lazily resurrecting a drained pool.
	want map[string]bool
	// draining holds retired pools that may still own live sockets
	// (sessions finishing on them): Close must sweep these too — a socket
	// must never outlive a closed manager. Pools leave the set once every
	// socket is gone (reapDrained).
	draining map[*pool]struct{}
}

// NewManager creates a manager. RequestFramer and ResponseFramer are
// required; the zero values of the remaining fields select defaults.
func NewManager(cfg Config) *Manager {
	if cfg.Transport == nil {
		cfg.Transport = netstack.KernelTCP{}
	}
	if cfg.Pool == nil {
		cfg.Pool = buffer.Global
	}
	if cfg.Size <= 0 {
		cfg.Size = 2
	}
	if cfg.Shards <= 0 {
		cfg.Shards = 1
	}
	if cfg.Window <= 0 {
		cfg.Window = 128
	}
	if cfg.Backoff <= 0 {
		cfg.Backoff = 50 * time.Millisecond
	}
	if cfg.MaxBackoff <= 0 {
		cfg.MaxBackoff = 2 * time.Second
	}
	if cfg.ProbeInterval <= 0 {
		cfg.ProbeInterval = 250 * time.Millisecond
	}
	if cfg.ProbeTimeout <= 0 {
		cfg.ProbeTimeout = time.Second
	}
	if cfg.RequestFramer == nil || cfg.ResponseFramer == nil {
		panic("upstream: NewManager requires request and response framers")
	}
	m := &Manager{cfg: cfg, bufs: cfg.Pool, done: make(chan struct{}),
		loads: map[string]*atomic.Int64{},
		lat:   metrics.NewShardedHistogram(cfg.Shards)}
	m.shards = make([]*shard, cfg.Shards)
	for i := range m.shards {
		m.shards[i] = &shard{m: m, id: i, pools: map[string]*pool{},
			draining: map[*pool]struct{}{}}
	}
	if len(cfg.Probe) > 0 {
		go m.probeLoop()
	}
	return m
}

// Shards returns the configured shard count.
func (m *Manager) Shards() int { return len(m.shards) }

// Latency returns the manager's round-trip histogram: time from a
// request's FIFO entry (stamped as its framed batch is reserved, just
// before the vectored write) to its response's FIFO delivery. Requests
// dropped by a socket failure record nothing.
func (m *Manager) Latency() *metrics.ShardedHistogram { return m.lat }

// Lease returns a virtual connection to addr from shard 0. Callers that
// know which scheduler worker will write the session should use LeaseOn.
func (m *Manager) Lease(addr string) (*Session, error) { return m.LeaseOn(addr, 0) }

// LeaseOn returns a virtual connection to addr, multiplexed onto one of
// the shared sockets of worker's shard (worker mod Shards; sockets are
// established lazily). While the home shard cannot serve — its backend
// sockets are down and the redial backoff window is open — the lease
// falls back to a live socket in a sibling shard (counted as a
// shardsteal) before failing fast.
func (m *Manager) LeaseOn(addr string, worker int) (*Session, error) {
	if m.closed.Load() {
		return nil, errManagerClosed
	}
	if worker < 0 {
		worker = 0
	}
	sh := m.shards[worker%len(m.shards)]
	s, err := sh.lease(addr)
	if err == nil {
		m.shardhits.Inc()
		return s, nil
	}
	// Own shard down (open backoff window or a failed dial): a live socket
	// in a sibling shard still reaches the backend — correctness prefers a
	// cross-core lock over a refused lease. Retirement and manager close
	// are global verdicts, never stolen around.
	if len(m.shards) > 1 && !errors.Is(err, ErrRetired) && !errors.Is(err, errManagerClosed) {
		if s := m.stealLive(addr, sh.id); s != nil {
			m.shardsteals.Inc()
			return s, nil
		}
	}
	// Only now is the lease actually refused; a backoff-window refusal no
	// sibling could absorb is the fail-fast the counter documents.
	if errors.Is(err, ErrDown) {
		m.failfast.Inc()
	}
	return nil, err
}

// lease resolves addr to this shard's pool (creating it when the topology
// allows) and leases from it.
func (sh *shard) lease(addr string) (*Session, error) {
	sh.mu.Lock()
	p := sh.pools[addr]
	if p == nil {
		// Under topology management, an address outside the current set
		// must not lazily resurrect a drained pool: the lease raced an
		// UpdateBackends that removed its backend.
		if sh.want != nil && !sh.want[addr] {
			sh.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrRetired, addr)
		}
		p = newPool(sh, addr)
		sh.pools[addr] = p
	}
	sh.mu.Unlock()
	return p.lease()
}

// stealLive finds a live socket for addr in any shard but exclude and
// attaches a session to it (nil when no shard has one).
func (m *Manager) stealLive(addr string, exclude int) *Session {
	for off := 1; off < len(m.shards); off++ {
		sh := m.shards[(exclude+off)%len(m.shards)]
		sh.mu.Lock()
		p := sh.pools[addr]
		sh.mu.Unlock()
		if p == nil {
			continue
		}
		p.mu.Lock()
		if c := p.anyLive(); c != nil && !p.retired {
			return p.reuse(c) // attached under p.mu: see pool.lease
		}
		p.mu.Unlock()
	}
	return nil
}

// Counters snapshots the layer's counters: dials, reuse, inflight (gauge),
// redials, failfast, probes, drained, shardhits, shardsteals.
func (m *Manager) Counters() metrics.CounterSet {
	inflight := m.inflight.Load()
	if inflight < 0 {
		inflight = 0
	}
	return metrics.NewCounterSet(
		"dials", m.dials.Value(),
		"reuse", m.reuse.Value(),
		"inflight", uint64(inflight),
		"redials", m.redials.Value(),
		"failfast", m.failfast.Value(),
		"probes", m.probes.Value(),
		"drained", m.drained.Value(),
		"shardhits", m.shardhits.Value(),
		"shardsteals", m.shardsteals.Value(),
	)
}

// loadFor returns the per-address in-flight gauge, creating it on first
// use.
func (m *Manager) loadFor(addr string) *atomic.Int64 {
	m.loadMu.Lock()
	defer m.loadMu.Unlock()
	g := m.loads[addr]
	if g == nil {
		g = new(atomic.Int64)
		m.loads[addr] = g
	}
	return g
}

// InflightFor reports the current number of unanswered requests in flight
// to addr across every shard (never negative). It satisfies
// backend.LoadFunc: wiring it into a backend.BoundedRing gives the router
// the live per-backend load the bounded-load bound is computed over.
func (m *Manager) InflightFor(addr string) int64 {
	m.loadMu.Lock()
	g := m.loads[addr]
	m.loadMu.Unlock()
	if g == nil {
		return 0
	}
	if v := g.Load(); v > 0 {
		return v
	}
	return 0
}

// Health verdicts reported by HealthFor.
const (
	// HealthUp: at least one live shared socket to the backend exists.
	HealthUp = "up"
	// HealthDown: no live socket and at least one shard's fail-fast
	// backoff window is open — leases are being refused.
	HealthDown = "down"
	// HealthIdle: no socket yet and no failure recorded (a freshly added
	// backend before its first lease or probe).
	HealthIdle = "idle"
)

// HealthFor reports the manager's verdict on addr: HealthUp, HealthDown
// or HealthIdle. This is the per-backend health column the admin API's
// /topology endpoint serves.
func (m *Manager) HealthFor(addr string) string {
	now := time.Now()
	down := false
	for _, sh := range m.shards {
		sh.mu.Lock()
		p := sh.pools[addr]
		sh.mu.Unlock()
		if p == nil {
			continue
		}
		p.mu.Lock()
		if !p.retired && p.anyLive() != nil {
			p.mu.Unlock()
			return HealthUp
		}
		if now.Before(p.downUntil) {
			down = true
		}
		p.mu.Unlock()
	}
	if down {
		return HealthDown
	}
	return HealthIdle
}

// Conns reports the number of live shared sockets across all shards and
// pools — including the sockets of retired pools still draining (open OS
// sockets are open OS sockets) — the quantity the connection-churn
// benchmark bounds at pool×shards×B, where per-client dialling would
// hold C×B.
func (m *Manager) Conns() int {
	live := 0
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, p := range sh.allPools() {
			p.mu.Lock()
			for _, c := range p.slots {
				if c != nil && !c.isBroken() {
					live++
				}
			}
			p.mu.Unlock()
		}
		sh.mu.Unlock()
	}
	return live
}

// allPools lists the shard's pools, the retired ones still draining
// included (they may hold live sockets). sh.mu must be held.
func (sh *shard) allPools() []*pool {
	all := make([]*pool, 0, len(sh.pools)+len(sh.draining))
	for _, p := range sh.pools {
		all = append(all, p)
	}
	for p := range sh.draining {
		all = append(all, p)
	}
	return all
}

// Close tears the layer down: every shared socket in every shard is closed
// and every live session observes EOF. Subsequent leases fail.
func (m *Manager) Close() {
	if !m.closed.CompareAndSwap(false, true) {
		return
	}
	close(m.done)
	var conns []*conn
	for _, sh := range m.shards {
		sh.mu.Lock()
		for _, p := range sh.allPools() {
			p.mu.Lock()
			for _, c := range p.slots {
				if c != nil {
					conns = append(conns, c)
				}
			}
			p.mu.Unlock()
		}
		sh.mu.Unlock()
	}
	for _, c := range conns {
		c.fail(errManagerClosed)
	}
}

// pool is the shared-socket set for one backend address within one shard.
type pool struct {
	m    *Manager
	sh   *shard
	addr string

	mu        sync.Mutex
	cond      *sync.Cond // wakes leases waiting out another lease's dial
	slots     []*conn
	dialing   []bool        // a lease is dialling this slot (outside p.mu)
	slotUp    []bool        // slot ever held a socket: its next dial is a redial
	rr        int           // round-robin lease cursor
	backoff   time.Duration // current redial backoff (0: healthy)
	downUntil time.Time     // fail-fast gate
	retired   bool          // topology removed this backend: drain, no new leases
	probing   bool          // a probe sweep of this pool is in flight
}

func newPool(sh *shard, addr string) *pool {
	p := &pool{
		m:       sh.m,
		sh:      sh,
		addr:    addr,
		slots:   make([]*conn, sh.m.cfg.Size),
		dialing: make([]bool, sh.m.cfg.Size),
		slotUp:  make([]bool, sh.m.cfg.Size),
	}
	p.cond = sync.NewCond(&p.mu)
	return p
}

// lease binds a fresh session to the next slot's socket, dialling it if the
// slot is empty or its previous socket died. The dial runs OUTSIDE p.mu — a
// blackholed backend must not block leases that can reuse a live socket in
// another slot, nor Manager.Conns/Close; concurrent leases needing the same
// slot fall back to any live socket or wait out the in-flight dial. Sessions
// attach under p.mu, so a retire (which takes p.mu) either precedes the
// lease and refuses it with ErrRetired or finds the session and leaves the
// socket to drain with it: a lease never returns a session born at EOF.
func (p *pool) lease() (*Session, error) {
	p.mu.Lock()
	for {
		if p.retired {
			p.mu.Unlock()
			return nil, fmt.Errorf("%w: %s", ErrRetired, p.addr)
		}
		slot := p.rr % len(p.slots)
		p.rr++
		c := p.slots[slot]
		if c != nil && !c.isBroken() {
			return p.reuse(c), nil
		}
		if !p.dialing[slot] {
			if time.Now().Before(p.downUntil) {
				// Backoff window open: any live socket in another slot
				// still serves leases; fail fast only with none at all.
				if alt := p.anyLive(); alt != nil {
					return p.reuse(alt), nil
				}
				p.mu.Unlock()
				// The caller (LeaseOn) counts failfast: a lease that a
				// sibling shard's socket ends up serving was never
				// actually refused.
				return nil, fmt.Errorf("%w: %s for %v", ErrDown, p.addr, time.Until(p.downUntil).Round(time.Millisecond))
			}
			return p.dialSlot(slot)
		}
		// Another lease is dialling this slot: any live socket will do.
		if alt := p.anyLive(); alt != nil {
			return p.reuse(alt), nil
		}
		p.cond.Wait() // no socket anywhere: wait for the dial, re-evaluate
	}
}

// reuse attaches a session to live socket c, then releases p.mu (held).
func (p *pool) reuse(c *conn) *Session {
	s := c.newSession()
	p.mu.Unlock()
	p.m.reuse.Inc()
	return s
}

// anyLive returns a live socket from any slot (nil when none). p.mu held.
func (p *pool) anyLive() *conn {
	for _, c := range p.slots {
		if c != nil && !c.isBroken() {
			return c
		}
	}
	return nil
}

// dialSlot establishes slot's socket (the caller checked the backoff
// gate). p.mu must be held; it is released across the dial and the
// function returns with it released.
func (p *pool) dialSlot(slot int) (*Session, error) {
	p.dialing[slot] = true
	p.mu.Unlock()
	raw, err := p.m.cfg.Transport.Dial(p.addr)
	p.mu.Lock()
	p.dialing[slot] = false
	p.cond.Broadcast()
	if err != nil {
		if p.backoff == 0 {
			p.backoff = p.m.cfg.Backoff
		} else if p.backoff *= 2; p.backoff > p.m.cfg.MaxBackoff {
			p.backoff = p.m.cfg.MaxBackoff
		}
		p.downUntil = time.Now().Add(p.backoff)
		retired := p.retired
		p.mu.Unlock()
		if retired {
			// A retire that ran during the dial skipped this pool in its
			// reap (the in-flight dial counted as potentially-live);
			// nothing was installed, so re-check now or the pool sits in
			// the shard's draining set until Manager.Close.
			p.sh.reapDrained(p)
		}
		return nil, fmt.Errorf("upstream: dial %s: %w", p.addr, err)
	}
	p.backoff = 0
	p.downUntil = time.Time{}
	p.m.dials.Inc()
	if p.slotUp[slot] {
		p.m.redials.Inc()
	}
	p.slotUp[slot] = true
	c := newConn(p, raw)
	p.slots[slot] = c
	// Publish-then-check: Manager.Close sets the flag before sweeping the
	// slots, so either its sweep sees this conn or this check sees the
	// flag — a socket can never outlive a closed manager. Retirement gets
	// the same treatment: a SetBackends that raced this dial (retire ran
	// while p.mu was released) must not receive a live socket on a pool
	// nothing tracks any more. The session attaches under p.mu (see lease);
	// on the failure paths below it dies with the socket, never returned.
	closed, retired := p.m.closed.Load(), p.retired
	s := c.newSession()
	p.mu.Unlock()
	// Arm the demultiplexer: on a kernel socket, Events' one pump goroutine
	// runs ingest — per shared socket, not per client, which is the point.
	c.raw.SetReadableCallback(c.ingest)
	if closed {
		c.fail(errManagerClosed)
		return nil, errManagerClosed
	}
	if retired {
		c.fail(ErrRetired)
		p.sh.reapDrained(p)
		return nil, fmt.Errorf("%w: %s", ErrRetired, p.addr)
	}
	return s, nil
}

// conn is one shared pipelined socket plus its FIFO correlation state.
type conn struct {
	p    *pool
	m    *Manager
	raw  netstack.Conn // netstack.Events of the dialled socket
	load *atomic.Int64 // the per-address in-flight gauge (Manager.loads)

	// wmu serialises socket writes. It is held across FIFO reservation AND
	// the write itself, so FIFO order always matches socket byte order.
	wmu sync.Mutex

	mu       sync.Mutex // fifo ring, window accounting, session set, broken
	fifo     []waiter   // ring: one entry per in-flight request (+ its demux context)
	fhead    int
	fcount   int
	window   int
	sessions map[*Session]struct{}
	waiting  []*Session // sessions with requests staged behind a full window, oldest first
	broken   bool
	draining bool // topology drain claimed this socket's close

	dmu sync.Mutex    // demux ingest (event callback vs EOF callback races)
	rq  *buffer.Queue // inbound byte stream awaiting framing
}

func newConn(p *pool, raw net.Conn) *conn {
	return &conn{
		p:        p,
		m:        p.m,
		raw:      netstack.Events(raw, p.m.bufs),
		load:     p.m.loadFor(p.addr),
		window:   p.m.cfg.Window,
		sessions: map[*Session]struct{}{},
		rq:       buffer.NewQueue(p.m.bufs),
	}
}

func (c *conn) isBroken() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.broken
}

// ingest is the demux step: take the bytes that have arrived into the
// inbound stream and deliver every complete response.
func (c *conn) ingest() {
	c.dmu.Lock()
	if c.isBroken() {
		c.dmu.Unlock()
		return
	}
	n, err := 1, error(nil)
	for n > 0 && err == nil {
		if n, err = c.raw.TryReadRefs(c.rq); n > 0 {
			err = c.deliver()
		}
	}
	c.dmu.Unlock()
	if err != nil {
		c.fail(err)
	}
}

// waiter is one FIFO entry: the session owed the next response plus the
// demux context its request's framing captured at write time and the
// round-trip start stamp (metrics.Now, read once per framed batch).
type waiter struct {
	s     *Session
	ctx   Context
	start int64
}

// deliver frames complete responses off the inbound stream — consulting
// the FIFO head's request context, since the wire alone cannot frame a
// HEAD response or a quiet-batch reply — and hands each one, as a retained
// zero-copy view, to the session at the FIFO head. Each response frees one
// window slot, which goes to the session that has waited longest for one:
// its writable callback schedules its writer. c.dmu must be held.
func (c *conn) deliver() error {
	for {
		if c.rq.Len() == 0 {
			return nil
		}
		c.mu.Lock()
		ctx, armed := c.peekWaiter()
		c.mu.Unlock()
		if !armed {
			// Bytes with no request in flight: the writer pushes its FIFO
			// entry before the request reaches the socket, so a response
			// can never legitimately precede its entry. (A concurrent
			// fail() draining the FIFO also lands here; fail is
			// idempotent, so the redundant verdict is harmless.)
			return ErrUnsolicited
		}
		n, err := c.m.cfg.ResponseFramer(c.rq, 0, ctx)
		if err != nil {
			return err
		}
		if n == 0 || c.rq.Len() < n {
			return nil
		}
		view, ref := c.rq.TakeRef(n)
		c.mu.Lock()
		s, start := c.popWaiter()
		if s != nil {
			c.m.inflight.Add(-1) // under c.mu: fail() subtracts fcount here too
			c.load.Add(-1)
		}
		wake := c.nextWaiting()
		c.mu.Unlock()
		wake()
		if s == nil {
			ref.Release()
			return ErrUnsolicited
		}
		c.m.lat.Record(c.p.sh.id, time.Duration(metrics.Now()-start))
		s.deliver(view, ref)
	}
}

// pushWaiter appends one in-flight entry stamped with its round-trip
// start. c.mu must be held.
func (c *conn) pushWaiter(s *Session, ctx Context, start int64) {
	if c.fcount == len(c.fifo) {
		grown := make([]waiter, max(16, 2*len(c.fifo)))
		for i := 0; i < c.fcount; i++ {
			grown[i] = c.fifo[(c.fhead+i)%len(c.fifo)]
		}
		c.fifo = grown
		c.fhead = 0
	}
	c.fifo[(c.fhead+c.fcount)%len(c.fifo)] = waiter{s: s, ctx: ctx, start: start}
	c.fcount++
}

// peekWaiter reports the FIFO head's demux context without removing the
// entry (false when the FIFO is empty). c.mu must be held.
func (c *conn) peekWaiter() (Context, bool) {
	if c.fcount == 0 {
		return 0, false
	}
	return c.fifo[c.fhead].ctx, true
}

// nextWaiting takes the session that has waited longest for window space
// off the wait queue and returns its writable callback (a no-op when none
// waits, or it has none). c.mu must be held.
func (c *conn) nextWaiting() func() {
	if len(c.waiting) > 0 {
		s := c.waiting[0]
		c.waiting = slices.Delete(c.waiting, 0, 1)
		if s.onWritable != nil {
			return s.onWritable
		}
	}
	return func() {}
}

// popWaiter removes the FIFO head, returning its session and round-trip
// start stamp (nil session when empty). c.mu must be held.
func (c *conn) popWaiter() (*Session, int64) {
	if c.fcount == 0 {
		return nil, 0
	}
	w := c.fifo[c.fhead]
	c.fifo[c.fhead] = waiter{}
	c.fhead = (c.fhead + 1) % len(c.fifo)
	c.fcount--
	return w.s, w.start
}

// fail breaks the shared socket: in-flight FIFO entries are dropped, every
// session multiplexed on the socket observes EOF, buffered bytes recycle,
// and the pool slot is left for the next lease to re-dial (with backoff
// bookkeeping handled at dial time).
func (c *conn) fail(err error) {
	c.mu.Lock()
	if c.broken {
		c.mu.Unlock()
		return
	}
	c.broken = true
	sessions := make([]*Session, 0, len(c.sessions))
	for s := range c.sessions {
		sessions = append(sessions, s)
	}
	if c.fcount > 0 {
		c.m.inflight.Add(-int64(c.fcount))
		c.load.Add(-int64(c.fcount))
	}
	for c.fcount > 0 {
		c.popWaiter()
	}
	c.mu.Unlock()
	c.raw.SetReadableCallback(nil)
	c.raw.Close()
	c.dmu.Lock()
	c.rq.Reset()
	c.dmu.Unlock()
	for _, s := range sessions {
		s.deliver(nil, nil)
	}
	_ = err // the failure surfaces to sessions as EOF; err is for debuggers
}

// newSession attaches a fresh virtual connection to the socket.
func (c *conn) newSession() *Session {
	s := newSession(c)
	c.mu.Lock()
	broken := c.broken
	if !broken {
		c.sessions[s] = struct{}{}
	}
	c.mu.Unlock()
	if broken {
		// The socket died between lease and attach: the session is born at
		// EOF, exactly as if its dedicated backend connection had dropped.
		s.deliver(nil, nil)
	}
	return s
}

// removeSession detaches a closed session. Its writer, if still waiting
// for window space, is woken to find the close; space it was woken for and
// will not use passes to the next waiting session. On a retired pool the
// socket drains: the last session's detach closes it.
func (c *conn) removeSession(s *Session) {
	c.mu.Lock()
	delete(c.sessions, s)
	wake := func() {}
	if slices.Contains(c.waiting, s) && s.onWritable != nil {
		wake = s.onWritable
	} else if c.fcount < c.window {
		wake = c.nextWaiting()
	}
	c.waiting = slices.DeleteFunc(c.waiting, func(w *Session) bool { return w == s })
	s.onWritable = nil
	c.mu.Unlock()
	wake()
	c.maybeDrain()
}

// maybeDrain closes the socket of a retired pool once no session is
// multiplexed on it — the drain endpoint of a topology removal: in-flight
// leases completed on their original socket, nothing new can attach
// (lease refuses retired pools), so the socket's life is over.
func (c *conn) maybeDrain() {
	c.p.mu.Lock()
	retired := c.p.retired
	c.p.mu.Unlock()
	if !retired {
		return
	}
	c.mu.Lock()
	broken := c.broken
	drain := !broken && !c.draining && len(c.sessions) == 0
	if drain {
		c.draining = true // claim the close: concurrent detaches count once
	}
	c.mu.Unlock()
	if drain {
		c.m.drained.Inc()
		c.fail(ErrRetired)
	}
	if drain || broken {
		// A socket that broke on its own mid-drain (backend died before
		// the last session detached) ends the pool's life just as a
		// counted drain does: without this re-check the pool would sit in
		// the shard's draining set until Manager.Close.
		c.p.sh.reapDrained(c.p)
	}
}
