package apps

import (
	"context"
	"sync"

	"flick/internal/admin"
	"flick/internal/backend"
	"flick/internal/buffer"
	"flick/internal/core"
	"flick/internal/metrics"
	"flick/internal/topology"
)

// Control is a deployed service's control plane: the one object every
// topology-update path converges on. The admin API's PUT /topology, a
// topology.Source feed (file re-read on SIGHUP, HTTP poll) and direct
// calls all land in Apply, which serialises updates and drives the
// drain-correct Service.UpdateBackends transition; View and Counters
// snapshot the live state the admin API serves.
type Control struct {
	svc      *Service
	deployed *core.Service
	reg      *metrics.Registry
	hists    *metrics.HistogramSet

	mu       sync.Mutex // serialises Apply (topology transitions are ordered)
	applied  metrics.Counter
	rejected metrics.Counter
}

// NewControl builds the control plane for a deployed service, registering
// the platform's counter sets — scheduler, buffer pool, upstream layer
// (when the service has one) and the control plane's own — in the
// registry /counters serves, and the live latency dimensions — service
// total, upstream round trip, cache hit/miss/coalesced — in the histogram
// set /latency serves.
func NewControl(svc *Service, deployed *core.Service, p *core.Platform) *Control {
	c := &Control{svc: svc, deployed: deployed,
		reg: metrics.NewRegistry(), hists: metrics.NewHistogramSet()}
	c.reg.Register("sched", func() metrics.CounterSet {
		return p.Scheduler().Stats().Metrics()
	})
	c.reg.Register("pool", buffer.Global.Counters)
	if m := deployed.Upstreams(); m != nil {
		c.reg.Register("upstream", m.Counters)
	}
	if cc := deployed.ResponseCache(); cc != nil {
		c.reg.Register("cache", cc.Counters)
	}
	c.reg.Register("control", func() metrics.CounterSet {
		return metrics.NewCounterSet(
			"applied", c.applied.Value(),
			"rejected", c.rejected.Value(),
		)
	})
	c.hists.Register("total", deployed.Latency().Total().Snapshot)
	if m := deployed.Upstreams(); m != nil {
		c.hists.Register("upstream", m.Latency().Snapshot)
	}
	if cc := deployed.ResponseCache(); cc != nil {
		c.hists.Register("cache_hit", cc.HitLatency().Snapshot)
		c.hists.Register("cache_miss", cc.MissLatency().Snapshot)
		c.hists.Register("cache_coalesced", cc.CoalescedLatency().Snapshot)
	}
	return c
}

// Registry exposes the counter registry (e.g. to register service-specific
// sets before serving the admin API).
func (c *Control) Registry() *metrics.Registry { return c.reg }

// Apply implements admin.Controller: it validates and installs a weighted
// backend topology through Service.UpdateWeighted, serialising concurrent
// updates so topology transitions are totally ordered.
func (c *Control) Apply(list []topology.Backend) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if err := c.svc.UpdateWeighted(c.deployed, list); err != nil {
		c.rejected.Inc()
		return err
	}
	c.applied.Inc()
	return nil
}

// Counters implements admin.Controller: every registered counter set in
// registration order.
func (c *Control) Counters() []metrics.Named { return c.reg.Snapshot() }

// Latency implements admin.Controller: every registered latency dimension
// in registration order.
func (c *Control) Latency() []metrics.NamedHist { return c.hists.Snapshot() }

// Histograms exposes the latency-dimension set (e.g. to register
// service-specific dimensions before serving the admin API).
func (c *Control) Histograms() *metrics.HistogramSet { return c.hists }

// View implements admin.Controller: a snapshot of the installed routing
// topology — addresses, weights, ring shares — joined with the upstream
// layer's live per-backend health verdicts and in-flight gauges.
func (c *Control) View() admin.TopologyView {
	v := admin.TopologyView{Capacity: c.deployed.BackendCapacity()}
	if total := c.deployed.Latency().Total().Snapshot(); total.Count > 0 {
		v.Latency = &total
	}
	if cc := c.deployed.ResponseCache(); cc != nil {
		cs := cc.Counters()
		hits, _ := cs.Get("hits")
		misses, _ := cs.Get("misses")
		coalesced, _ := cs.Get("coalesced")
		revalidated, _ := cs.Get("revalidated")
		staleServed, _ := cs.Get("stale_served")
		v.Cache = &admin.CacheView{
			HitRatio:      cc.HitRatio(),
			BytesResident: cc.BytesResident(),
			Hits:          hits,
			Misses:        misses,
			Coalesced:     coalesced,
			Revalidated:   revalidated,
			StaleServed:   staleServed,
		}
	}
	t := c.deployed.Topology()
	var (
		addrs   []string
		weights []int
		shares  []float64
	)
	switch r := t.(type) {
	case *backend.BoundedRing:
		v.Router = "bounded-ring"
		v.BoundedLoadC = r.C()
		addrs, weights, shares = r.Backends(), r.Ring().Weights(), r.Shares()
	case *backend.Ring:
		v.Router = "ring"
		addrs, weights, shares = r.Backends(), r.Weights(), r.Shares()
	case nil:
		v.Router = "static"
		return v
	}
	m := c.deployed.Upstreams()
	for i, a := range addrs {
		v.Backends = append(v.Backends, admin.BackendView{
			Addr: a, Weight: weights[i], Share: shares[i],
			Health: m.HealthFor(a), Inflight: m.InflightFor(a),
		})
	}
	return v
}

// Follow applies every topology a Source emits until the source closes or
// ctx is cancelled. Apply failures do not stop the feed (the last good
// topology stays installed); notify — when non-nil — observes every
// emission with the outcome of its application.
func (c *Control) Follow(ctx context.Context, src topology.Source, notify func([]topology.Backend, error)) error {
	ch, err := src.Watch(ctx)
	if err != nil {
		return err
	}
	for list := range ch {
		err := c.Apply(list)
		if notify != nil {
			notify(list, err)
		}
	}
	return nil
}

// ServeAdmin starts the admin HTTP listener on addr, fronting this
// control plane. The caller owns the returned server's lifetime.
func (c *Control) ServeAdmin(addr string) (*admin.Server, error) {
	return admin.Start(addr, c)
}

var _ admin.Controller = (*Control)(nil)
