package core

import (
	"errors"
	"fmt"
	"net"
)

// ErrCapacity rejects a topology update holding more backends than the
// compiled graph's channel-array capacity (len(ServiceConfig.BackendPorts)).
// Scaling beyond the capacity requires recompiling the service with a
// larger array; control surfaces (the admin API) match this sentinel with
// errors.Is to distinguish "resize your deployment" (HTTP 409) from
// malformed input (400).
var ErrCapacity = errors.New("core: topology exceeds compiled backend capacity")

// Topology is a live backend set for a PerConnection service: an ordered
// address list plus a stable key→index mapping over it. backend.Ring (a
// consistent-hash ring with virtual nodes) and backend.BoundedRing are
// the implementations. A Topology value is immutable — changing the
// backend set builds a new Topology and applies it with
// Service.UpdateBackends, so every task graph routes against exactly the
// backend set it was bound to.
type Topology interface {
	// Backends returns the ordered backend address list. Element i is
	// bound to ServiceConfig.BackendPorts[i] at dispatch.
	Backends() []string
	// Route maps a key hash (the language's hash builtin) to an index
	// into Backends().
	Route(hash int64) int
}

// topoBox wraps a Topology for atomic.Value (which requires one concrete
// stored type across Stores).
type topoBox struct{ t Topology }

// Topology returns the service's current backend topology (nil for
// services deployed with a fixed BackendAddrs map).
func (s *Service) Topology() Topology {
	if b, ok := s.topo.Load().(topoBox); ok {
		return b.t
	}
	return nil
}

// UpdateBackends applies a new backend topology to a live service without
// restarting it:
//
//   - Dispatches from now on bind t.Backends() (in order, to
//     ServiceConfig.BackendPorts) and route keys through t.Route.
//   - Running instances are untouched: they keep the topology snapshot,
//     connections and leased upstream sessions they were bound with, so
//     every in-flight request completes on its original socket.
//   - The shared upstream layer (when bound) learns the new list: pools
//     for added addresses become probe targets immediately, pools for
//     removed addresses drain — no new leases, sockets close as their
//     last session detaches.
//
// The new backend count must fit the compiled channel-array capacity
// (len(BackendPorts)); scaling beyond it requires recompiling the service
// with a larger array. Growing the set never disturbs traffic; a dispatch
// whose lease a shrinking update refuses waits for the update to land and
// rebinds against the new topology — served, never refused or misrouted.
func (s *Service) UpdateBackends(t Topology) error {
	if t == nil {
		return fmt.Errorf("core: UpdateBackends requires a topology")
	}
	if s.Topology() == nil {
		return fmt.Errorf("core: service %q was not deployed with a live topology", s.cfg.Name)
	}
	addrs := t.Backends()
	if len(addrs) == 0 {
		// An empty ring routes every key to port 0, which is unbound —
		// requests would vanish without a diagnostic. Scale-to-zero is a
		// shutdown, not a topology.
		return fmt.Errorf("core: topology must hold at least one backend")
	}
	if len(addrs) > len(s.cfg.BackendPorts) {
		return fmt.Errorf("%w: topology holds %d backends but the compiled graph has %d backend ports",
			ErrCapacity, len(addrs), len(s.cfg.BackendPorts))
	}
	// Order matters twice over. The upstream layer must know the new
	// address set BEFORE any dispatch can snapshot the new topology — a
	// grown topology's first lease to an added backend must not race the
	// manager's want-set and be refused as retired. And concurrent
	// updates must not interleave their SetBackends+Store pairs, or the
	// losing Store could leave the active topology routing to a backend
	// the winning SetBackends already retired — permanently, not as a
	// one-shot race; topoMu makes the pair atomic.
	s.topoMu.Lock()
	defer s.topoMu.Unlock()
	if s.cfg.Upstreams != nil {
		s.cfg.Upstreams.SetBackends(addrs)
	}
	s.topo.Store(topoBox{t})
	return nil
}

// installTopology validates and publishes the deploy-time topology.
func (s *Service) installTopology(cfg *ServiceConfig) error {
	if cfg.Topology == nil {
		return nil
	}
	if len(cfg.BackendPorts) == 0 {
		return fmt.Errorf("core: ServiceConfig.Topology requires BackendPorts")
	}
	n := len(cfg.Topology.Backends())
	if n == 0 {
		return fmt.Errorf("core: topology must hold at least one backend")
	}
	if n > len(cfg.BackendPorts) {
		return fmt.Errorf("core: topology holds %d backends but the compiled graph has %d backend ports",
			n, len(cfg.BackendPorts))
	}
	if cfg.Upstreams != nil {
		cfg.Upstreams.SetBackends(cfg.Topology.Backends())
	}
	s.topo.Store(topoBox{cfg.Topology})
	return nil
}

// bindBackends connects an instance's backend ports for one dispatch:
// against the current topology snapshot when the service has one (the
// addresses bind BackendPorts in order, spare ports are left unbound, and
// the instance routes through the snapshot), against the fixed
// BackendAddrs map otherwise. Every port is (re)bound, so a retry replaces
// — and Bind closes — whatever an earlier attempt left.
func (s *Service) bindBackends(inst *Instance) error {
	t := s.Topology()
	if t == nil {
		for port, addr := range s.cfg.BackendAddrs {
			if err := s.bindBackend(inst, port, addr); err != nil {
				return err
			}
		}
		return nil
	}
	addrs := t.Backends()
	for i, port := range s.cfg.BackendPorts {
		addr := ""
		if i < len(addrs) {
			addr = addrs[i]
		}
		if err := s.bindBackend(inst, port, addr); err != nil {
			return err
		}
	}
	inst.SetRouter(t.Route)
	return nil
}

// bindBackend binds port to addr ("": unbound): a session leased for the
// worker that will write the port (Instance.PortHomeWorker), so a sharded
// upstream layer keeps its write lock on that core, or a dialled socket.
func (s *Service) bindBackend(inst *Instance, port int, addr string) (err error) {
	var bc net.Conn
	switch {
	case addr == "":
	case s.cfg.Upstreams != nil:
		bc, err = s.cfg.Upstreams.LeaseOn(addr, inst.PortHomeWorker(port))
	default:
		bc, err = s.platform.transport.Dial(addr)
	}
	if err != nil {
		return fmt.Errorf("core: dial backend %s: %w", addr, err)
	}
	inst.Bind(port, bc)
	return nil
}
