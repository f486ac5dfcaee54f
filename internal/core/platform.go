package core

import (
	"errors"
	"fmt"
	"net"
	"sync"
	"sync/atomic"

	rcache "flick/internal/cache"
	"flick/internal/netstack"
	"flick/internal/upstream"
)

// Platform hosts FLICK programs: it owns the shared scheduler and the
// application dispatcher, which maps incoming connections to program
// instances by listening address (§5, Figure 2).
type Platform struct {
	sched     *Scheduler
	transport netstack.Transport

	mu       sync.Mutex
	services []*Service
	closed   bool
}

// Config configures a platform.
type Config struct {
	// Workers is the worker-thread count (<=0: GOMAXPROCS).
	Workers int
	// Policy is the scheduling discipline (zero value: Cooperative).
	Policy Policy
	// Transport carries all service traffic (nil: kernel TCP).
	Transport netstack.Transport
}

// NewPlatform creates and starts a platform.
func NewPlatform(cfg Config) *Platform {
	pol := cfg.Policy
	if pol.Name == "" {
		pol = Cooperative
	}
	tr := cfg.Transport
	if tr == nil {
		tr = netstack.KernelTCP{}
	}
	p := &Platform{
		sched:     NewScheduler(cfg.Workers, pol),
		transport: tr,
	}
	p.sched.Start()
	return p
}

// Scheduler returns the platform's shared scheduler.
func (p *Platform) Scheduler() *Scheduler { return p.sched }

// Transport returns the platform's network stack.
func (p *Platform) Transport() netstack.Transport { return p.transport }

// Close shuts down every service and the scheduler.
func (p *Platform) Close() {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return
	}
	p.closed = true
	svcs := append([]*Service{}, p.services...)
	p.mu.Unlock()
	for _, s := range svcs {
		s.Close()
	}
	p.sched.Stop()
}

// Dispatch is how a service turns an accepted connection into running task
// graphs. PerConnection takes one pooled instance per connection; Shared
// attaches successive connections to one pooled instance's ports in order.
type Dispatch int

// Dispatch modes.
const (
	// PerConnection gives every accepted connection its own task graph
	// ("Giving each client connection a new task graph ensures that
	// responses are routed back to the correct client", §4.1).
	PerConnection Dispatch = iota
	// Shared binds accepted connections to the next unbound port of a
	// single long-lived instance (the Hadoop aggregator's mappers).
	Shared
)

// ServiceConfig describes one deployed FLICK program.
type ServiceConfig struct {
	// Name identifies the service.
	Name string
	// ListenAddr is where the application dispatcher accepts clients.
	ListenAddr string
	// Template is the compiled task graph blueprint.
	Template *Template
	// Dispatch selects the instance-per-connection policy.
	Dispatch Dispatch
	// ClientPort is the port index bound to accepted connections
	// (PerConnection mode).
	ClientPort int
	// BackendAddrs maps port index → address to dial when an instance is
	// activated. Ports absent from the map (and != ClientPort) stay
	// unbound unless Shared dispatch assigns them.
	BackendAddrs map[int]string
	// BackendPorts lists, in channel-array element order, the port
	// indices available to a live Topology (PerConnection mode). Its
	// length is the compiled capacity: the topology may hold at most this
	// many backends, and ports beyond the current backend count stay
	// unbound until a scale-out.
	BackendPorts []int
	// Topology, when set, replaces the fixed BackendAddrs map with a live
	// backend set: each dispatch binds the current address list to
	// BackendPorts in order and routes keys through Topology.Route (see
	// Service.UpdateBackends for changing it while serving).
	Topology Topology
	// SharedPorts lists, for Shared dispatch, the port indices assigned
	// to successive accepted connections (in order).
	SharedPorts []int
	// Upstreams, when set, replaces per-connection backend dials with
	// leases from the shared upstream connection layer: every BackendAddrs
	// port binds a multiplexed virtual connection instead of a fresh
	// socket, so the service holds O(pool×shards×backends) upstream
	// sockets instead of O(clients×backends). With a sharded manager
	// (upstream.Config.Shards > 1) each port's lease comes from the shard
	// of the scheduler worker that will write it — the home worker of the
	// port's output task (Instance.PortHomeWorker) — so the backend write
	// path never takes a lock contended by another core. The service owns
	// the manager and closes it on Service.Close. Nil keeps one dedicated
	// backend socket per instance port: services without a request/response
	// framing (facade-compiled programs, the Hadoop aggregator's streaming
	// reducer feed) have no FIFO to multiplex on.
	Upstreams *upstream.Manager
	// Cache, when set, interposes the in-network response cache between
	// client decode and backend dispatch on every PerConnection instance:
	// hits are served from the executing worker's shard as retained
	// zero-copy views, concurrent misses for one key coalesce into a
	// single upstream round trip (see internal/cache). The service owns
	// the cache and closes it on Service.Close.
	Cache *rcache.Cache
}

// Service is a deployed program: a listener plus the graph dispatcher.
type Service struct {
	cfg      ServiceConfig
	platform *Platform
	listener net.Listener
	pool     *GraphPool

	// topo holds the live backend Topology (as a topoBox; see
	// topology.go). Dispatches snapshot it once; UpdateBackends swaps it
	// under topoMu so the upstream SetBackends + Store pair is atomic.
	topo   atomic.Value
	topoMu sync.Mutex

	// lat is the service's live latency signal, recorded by every
	// PerConnection instance (see ServiceLatency).
	lat *ServiceLatency

	mu      sync.Mutex
	shared  *Instance // Shared dispatch accumulator
	nextIdx int       // next SharedPorts slot
	closed  bool
	live    map[*Instance]struct{}
}

// Deploy starts serving cfg on the platform.
func (p *Platform) Deploy(cfg ServiceConfig) (*Service, error) {
	if err := cfg.Template.Validate(); err != nil {
		return nil, err
	}
	l, err := p.transport.Listen(cfg.ListenAddr)
	if err != nil {
		return nil, err
	}
	s := &Service{
		cfg:      cfg,
		platform: p,
		listener: l,
		pool:     NewGraphPool(cfg.Template, p.sched),
		live:     map[*Instance]struct{}{},
		lat:      NewServiceLatency(cfg.Name, p.sched.Workers()),
	}
	s.pool.owner = s
	if err := s.installTopology(&cfg); err != nil {
		l.Close()
		return nil, err
	}
	p.mu.Lock()
	p.services = append(p.services, s)
	p.mu.Unlock()
	go s.acceptLoop()
	return s, nil
}

// Addr returns the service's bound listen address.
func (s *Service) Addr() string { return s.listener.Addr().String() }

// Pool returns the service's graph pool (stats, priming).
func (s *Service) Pool() *GraphPool { return s.pool }

// Close stops accepting and aborts live instances: the Shared accumulator
// still taking connections and every running graph of either dispatch
// mode are shut down, so a subsequent Platform.Close never stops the
// scheduler under live graphs.
// The service's upstream layer (when bound) closes with it.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	live := make([]*Instance, 0, len(s.live)+1)
	for inst := range s.live {
		live = append(live, inst)
	}
	if s.shared != nil {
		live = append(live, s.shared)
		s.shared = nil
	}
	s.mu.Unlock()
	s.listener.Close()
	for _, inst := range live {
		inst.Close()
	}
	if s.cfg.Upstreams != nil {
		s.cfg.Upstreams.Close()
	}
	if s.cfg.Cache != nil {
		s.cfg.Cache.Close()
	}
}

// Upstreams returns the service's shared upstream connection layer (nil
// when the service dials backends per connection).
func (s *Service) Upstreams() *upstream.Manager { return s.cfg.Upstreams }

// ResponseCache returns the service's in-network response cache (nil when
// caching is disabled).
func (s *Service) ResponseCache() *rcache.Cache { return s.cfg.Cache }

// Latency returns the service's live request-latency signal (always
// non-nil; it only populates for PerConnection graphs with a primary
// in/out port pair).
func (s *Service) Latency() *ServiceLatency { return s.lat }

// BackendCapacity returns the compiled channel-array capacity: the
// maximum backend count a topology update can install
// (len(ServiceConfig.BackendPorts)). Updates beyond it fail with
// ErrCapacity.
func (s *Service) BackendCapacity() int { return len(s.cfg.BackendPorts) }

// DumpLive renders every unfinished instance's runtime state (diagnostics).
func (s *Service) DumpLive() []string {
	s.mu.Lock()
	insts := make([]*Instance, 0, len(s.live))
	for i := range s.live {
		insts = append(insts, i)
	}
	s.mu.Unlock()
	out := make([]string, len(insts))
	for i, inst := range insts {
		out[i] = inst.DebugString()
	}
	return out
}

// acceptLoop is the application dispatcher: it hands each accepted
// connection to the graph dispatcher. PerConnection dispatch (pool
// checkout, backend dials, instance start) runs concurrently so connection
// setup cost never serialises accepts; Shared dispatch stays in accept
// order, since mapper→port assignment is positional.
func (s *Service) acceptLoop() {
	for {
		conn, err := s.listener.Accept()
		if err != nil {
			return
		}
		if s.cfg.Dispatch == PerConnection {
			go s.dispatchPerConn(conn)
		} else if err := s.dispatchShared(conn); err != nil {
			conn.Close()
		}
	}
}

// dispatchPerConn is the graph dispatcher (§5: "assigns incoming
// connections to task graphs, instantiating a new one if none suitable
// exists"). A failed dispatch hands the instance to GraphPool.Put, which
// closes conn.
func (s *Service) dispatchPerConn(conn net.Conn) {
	inst := s.pool.Get()
	inst.Bind(s.cfg.ClientPort, conn)
	// Connect backends ("The graph dispatcher also creates new output
	// channel connections to forward processed traffic") — by leasing a
	// multiplexed session from the shared upstream layer when bound, by
	// dialling a dedicated socket otherwise; with a live Topology the
	// current snapshot picks the addresses and the routing function.
	err := s.bindBackends(inst)
	if errors.Is(err, upstream.ErrRetired) {
		// Scale-in race: this dispatch snapshotted a topology just as
		// UpdateBackends retired one of its backends. Serialise with that
		// update — its SetBackends runs before its topology Store, both
		// under topoMu — then rebind against the fresh snapshot instead of
		// dropping the client.
		s.topoMu.Lock()
		//nolint:staticcheck // empty section: a memory barrier, not a region
		s.topoMu.Unlock()
		err = s.bindBackends(inst)
	}
	// Publish into the live set only once fully bound: Service.Close reads
	// inst.conns (via Instance.Close) for everything it finds in s.live.
	s.mu.Lock()
	published := err == nil && !s.closed
	if published {
		s.live[inst] = struct{}{}
	}
	s.mu.Unlock()
	if !published {
		s.pool.Put(inst)
		return
	}
	inst.Start()
}

// forget drops inst from the live set (GraphPool.Put) and reports whether
// it may be recycled: not by a closing service, whose Close may still hold
// it in its teardown snapshot — a Reset must never race that teardown.
func (s *Service) forget(inst *Instance) bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	delete(s.live, inst)
	return !s.closed
}

// dispatchShared binds conn to the accumulator's next SharedPorts slot,
// taking the accumulator from the pool (and binding its backends) on a
// wave's first connection. The wave's last connection starts it, published
// in the live set like a PerConnection instance, so Service.Close reaches
// it and GraphPool.Put takes it back when it finishes.
func (s *Service) dispatchShared(conn net.Conn) error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return fmt.Errorf("core: service closed")
	}
	if s.shared == nil {
		inst := s.pool.Get()
		if err := s.bindBackends(inst); err != nil {
			s.mu.Unlock()
			s.pool.Put(inst)
			return err
		}
		s.shared = inst
		s.nextIdx = 0
	}
	defer s.mu.Unlock()
	if s.nextIdx >= len(s.cfg.SharedPorts) {
		return fmt.Errorf("core: all %d shared ports bound", len(s.cfg.SharedPorts))
	}
	port := s.cfg.SharedPorts[s.nextIdx]
	s.nextIdx++
	s.shared.Bind(port, conn)
	if s.nextIdx == len(s.cfg.SharedPorts) {
		inst := s.shared
		// Allow a fresh accumulator for the next wave of connections.
		s.shared = nil
		s.live[inst] = struct{}{}
		inst.Start()
	}
	return nil
}
