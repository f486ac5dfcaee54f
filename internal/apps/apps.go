package apps

import (
	"fmt"
	"sort"
	"time"

	"flick/internal/backend"
	"flick/internal/cache"
	"flick/internal/compiler"
	"flick/internal/core"
	"flick/internal/lang"
	"flick/internal/proto/hadoop"
	phttp "flick/internal/proto/http"
	"flick/internal/proto/memcache"
	"flick/internal/topology"
	"flick/internal/upstream"
	"flick/internal/value"
)

// MemcachedRouterSource is the cache-router program of Listing 1, with the
// cmd record laid out to match the real Memcached binary protocol (the
// paper's Listing 2 grammar) so the service interoperates with the
// repository's Memcached backends and clients. See lang.Listing1 for the
// paper-verbatim layout.
const MemcachedRouterSource = `
type cmd: record
    magic : integer {size=1}
    opcode : integer {size=1}
    keylen : integer {signed=false, size=2}
    extraslen : integer {signed=false, size=1}
    _ : string {size=3}
    bodylen : integer {signed=false, size=4}
    _ : string {size=12}
    _ : string {size=extraslen}
    key : string {size=keylen}
    _ : string {size=bodylen-extraslen-keylen}

proc memcached: (cmd/cmd client, [cmd/cmd] backends)
    global cache := empty_dict
    | backends => update_cache(cache) => client
    | client => test_cache(client, backends, cache)

fun update_cache: (cache: ref dict<string*cmd>, resp: cmd) -> (cmd)
    if resp.opcode = 0x0c:
        cache[resp.key] := resp
    resp

fun test_cache: (-/cmd client, [-/cmd] backends, cache: ref dict<string*cmd>, req: cmd) -> ()
    if cache[req.key] = None or req.opcode <> 0x0c:
        let target = hash(req.key) mod len(backends)
        req => backends[target]
    else:
        cache[req.key] => client
`

// StaticWebSource is the backend-less web server variant: every request is
// answered with a fixed response by the middlebox itself.
const StaticWebSource = `
type request: record
    uri : string
    keep_alive : integer

type response: record
    status : integer
    body : string

proc webserver: (request/response client)
    | client => respond() => client

fun respond: (req: request) -> (response)
    response(200, "Hello from FLICK! This payload is sized to mimic the paper's 137-byte static object for the web-server test.")
`

// UpstreamOptions groups the shared-upstream-layer knobs of a Service.
// The zero value selects upstream.Config sizing with probing off. Every
// request/response service pools its backend connections, with one pool
// shard per platform scheduler worker so the backend write path of a
// task graph never takes a lock contended by another core.
type UpstreamOptions struct {
	// PoolSize overrides the shared-socket count per backend address per
	// shard (0: upstream.Config default).
	PoolSize int
	// ProbeInterval enables proactive upstream health probes at the
	// given period (0: disabled). Probing needs the shared upstream
	// layer and a service protocol with a no-op request (all
	// request/response services here have one).
	ProbeInterval time.Duration
}

// TopologyOptions groups the live-backend-topology knobs of a Service.
// The zero value is the static deployment: fixed backend census,
// hash-mod-B off the compiled array.
type TopologyOptions struct {
	// Live opts the service into a live backend set: keys route
	// through a consistent-hash ring (backend.Ring) instead of
	// hash-mod-B, Deploy accepts fewer backend addresses than the
	// compiled channel-array capacity (spare ports stay unbound until a
	// scale-out), and the deployed service accepts
	// Service.UpdateBackends / apps UpdateBackends while serving. Set
	// before Deploy.
	Live bool
	// BoundedLoadC, when > 0, routes through a bounded-load ring
	// (backend.BoundedRing) with load factor c: a key's hash owner is
	// skipped while its in-flight share exceeds c× its fair share, the
	// walk settling on the next ring successor with headroom. The load
	// signal is the shared upstream layer's per-address in-flight gauge.
	// 1.25 is a good first value (see PERFORMANCE.md).
	BoundedLoadC float64
}

// CacheOptions groups the in-network response cache knobs of a Service
// (internal/cache). The zero value deploys uncached.
type CacheOptions struct {
	// Enable opts the service into the response cache: hits are served
	// from worker-local shards without an upstream round trip, and
	// concurrent misses for one key coalesce into a single one. Only
	// services with a cacheable protocol adapter accept it (the
	// memcached proxy and the HTTP load balancer).
	Enable bool
	// TTL bounds entry staleness (0: cache.DefaultTTL).
	TTL time.Duration
	// MaxBytes bounds resident response bytes (0: cache.DefaultMaxBytes).
	MaxBytes int64
	// StaleTTL extends serving past expiry while a background
	// revalidation runs — stale-while-revalidate (0: disabled).
	StaleTTL time.Duration
	// NegativeTTL bounds negative entries — authoritative key-absence
	// responses (0: cache.DefaultNegativeTTL; <0: disabled).
	NegativeTTL time.Duration
}

// Options parameterise compilation of a FLICK program.
type Options struct {
	// Proc names the process to deploy; empty selects the program's sole
	// process.
	Proc string
	// ArraySizes fixes channel-array lengths (deployment constants).
	ArraySizes map[string]int
	// Codecs binds record type names to wire formats.
	Codecs map[string]compiler.CodecPair
	// Backends names the channel dialled to backend addresses at
	// deployment (defaults to the program's only channel besides the
	// client channel, if any).
	Backends string
	// Primary names the client-facing channel (defaults to the first
	// bidirectional scalar channel).
	Primary string
}

// Service is a ready-to-deploy FLICK application.
type Service struct {
	// Name identifies the service.
	Name string
	// Program is the compiled FLICK program.
	Program *compiler.Program
	// Graph is the compiled process graph.
	Graph *compiler.ProcGraph
	// Upstream configures the shared upstream connection layer.
	Upstream UpstreamOptions
	// Topology configures live backend topology and routing.
	Topology TopologyOptions
	// Cache configures the in-network response cache.
	Cache CacheOptions
	// clientChannel names the channel bound to accepted connections (the
	// compiled primary port; empty when the program has none).
	clientChannel string
	// backendChannel names the channel dialled to backend addresses.
	backendChannel string
	dispatch       core.Dispatch
	sharedChannel  string // Shared dispatch: accepted conns fill this array
	// reqFramer/respFramer frame the service's backend-side protocol; both
	// non-nil opts the service into the shared upstream layer on Deploy.
	// The request framer captures each request's demux context (HTTP
	// method, memcached quiet-batch terminator) for the response framer.
	reqFramer  upstream.RequestFramer
	respFramer upstream.ResponseFramer
	// probe is the protocol's no-op request for upstream health probing.
	probe []byte
	// cacheProto is the service's cache protocol adapter; nil means the
	// service cannot host the response cache.
	cacheProto cache.Protocol
}

// Compile parses, type-checks and compiles FLICK source into a
// PerConnection service named after its process, and infers its channel
// roles: the client channel is the compiled primary port, the backend
// channel is opts.Backends or else the one remaining channel. More than
// one remaining channel is an error naming them.
func Compile(src string, opts Options) (*Service, error) {
	prog, err := compiler.Compile(src, compiler.Config{
		ArraySizes:     opts.ArraySizes,
		Codecs:         opts.Codecs,
		PrimaryChannel: opts.Primary,
	})
	if err != nil {
		return nil, err
	}
	pg, err := prog.Proc(opts.Proc)
	if err != nil {
		return nil, err
	}
	s := &Service{Name: pg.Name, Program: prog, Graph: pg, backendChannel: opts.Backends}
	var rest []string
	for name, ports := range pg.Ports {
		if pg.Template.Ports()[ports[0]].Primary {
			s.clientChannel = name
		} else {
			rest = append(rest, name)
		}
	}
	if s.backendChannel != "" {
		if _, ok := pg.Ports[s.backendChannel]; !ok || s.backendChannel == s.clientChannel {
			return nil, fmt.Errorf("apps: %s has no non-client channel %q to use for backends", s.Name, s.backendChannel)
		}
	} else if len(rest) == 1 {
		s.backendChannel = rest[0]
	} else if len(rest) > 1 {
		sort.Strings(rest)
		return nil, fmt.Errorf("apps: %s has %d candidate backend channels %q; name one in Options.Backends",
			s.Name, len(rest), rest)
	}
	return s, nil
}

// Deploy installs the service on a platform.
//
// backendAddrs supplies one address per element of the backend channel
// (fewer, down to one, with a live topology); it must be empty when the
// service has no backend channel. For Shared services (the Hadoop
// aggregator) that channel is the reducer, so it carries one address.
func (s *Service) Deploy(p *core.Platform, listenAddr string, backendAddrs []string) (*core.Service, error) {
	cfg := core.ServiceConfig{
		Name:       s.Name,
		ListenAddr: listenAddr,
		Template:   s.Graph.Template,
		Dispatch:   s.dispatch,
	}
	if s.dispatch == core.Shared {
		cfg.SharedPorts = s.Graph.Ports[s.sharedChannel]
	} else {
		cp, err := s.Graph.PortIndex(s.clientChannel)
		if err != nil {
			return nil, err
		}
		cfg.ClientPort = cp
	}
	var liveAddrs []string
	ports := s.Graph.Ports[s.backendChannel]
	switch {
	case s.backendChannel == "":
		if len(backendAddrs) > 0 {
			return nil, fmt.Errorf("apps: %s has no backend channel, got %d backend addresses", s.Name, len(backendAddrs))
		}
	case s.Topology.Live:
		// Live topology: the compiled array size is capacity, not census —
		// deploy with any current count from 1 up to it and grow/shrink
		// later with UpdateBackends.
		if len(backendAddrs) == 0 {
			return nil, fmt.Errorf("apps: %s needs at least one backend to start (grow later with UpdateBackends)", s.Name)
		}
		if len(backendAddrs) > len(ports) {
			return nil, fmt.Errorf("apps: %s compiled for at most %d backends, got %d",
				s.Name, len(ports), len(backendAddrs))
		}
		cfg.BackendPorts = ports
		liveAddrs = backendAddrs
	default:
		if len(backendAddrs) != len(ports) {
			return nil, fmt.Errorf("apps: %s needs %d backend addresses, got %d",
				s.Name, len(ports), len(backendAddrs))
		}
		cfg.BackendAddrs = map[int]string{}
		for i, port := range ports {
			cfg.BackendAddrs[port] = backendAddrs[i]
		}
	}
	// Request/response services share pipelined upstream connections:
	// every accepted client leases multiplexed sessions instead of
	// dialling each backend afresh (services without framers — facade
	// programs, the Hadoop aggregator's reducer feed — keep dedicated
	// sockets).
	hasBackends := len(backendAddrs) > 0
	if hasBackends && s.reqFramer != nil && s.respFramer != nil {
		ucfg := upstream.Config{
			Transport: p.Transport(),
			Size:      s.Upstream.PoolSize,
			// One pool shard per scheduler worker, so each graph's
			// backend writes stay on the leasing worker's core.
			Shards:         p.Scheduler().Workers(),
			RequestFramer:  s.reqFramer,
			ResponseFramer: s.respFramer,
		}
		if s.Upstream.ProbeInterval > 0 && len(s.probe) > 0 {
			ucfg.Probe = s.probe
			ucfg.ProbeInterval = s.Upstream.ProbeInterval
		}
		cfg.Upstreams = upstream.NewManager(ucfg)
	}
	// The router is built after the upstream manager so bounded-load
	// routing can consume the manager's per-address in-flight gauge.
	if liveAddrs != nil {
		cfg.Topology = s.router(liveAddrs, nil, cfg.Upstreams)
	}
	if s.Cache.Enable {
		if s.cacheProto == nil {
			return nil, fmt.Errorf("apps: %s has no cacheable protocol adapter", s.Name)
		}
		if !hasBackends {
			return nil, fmt.Errorf("apps: %s has no backends to cache for", s.Name)
		}
		cfg.Cache = cache.New(cache.Config{
			Proto:       s.cacheProto,
			Workers:     p.Scheduler().Workers(),
			TTL:         s.Cache.TTL,
			MaxBytes:    s.Cache.MaxBytes,
			StaleTTL:    s.Cache.StaleTTL,
			NegativeTTL: s.Cache.NegativeTTL,
		})
	}
	svc, err := p.Deploy(cfg)
	if err != nil {
		// Resources built for this deploy must not leak on failure (with
		// probing, the manager's timer goroutine is already running).
		if cfg.Upstreams != nil {
			cfg.Upstreams.Close()
		}
		if cfg.Cache != nil {
			cfg.Cache.Close()
		}
	}
	return svc, err
}

// router builds the service's routing topology over addrs per its
// options: plain ring, weighted ring, or — when BoundedLoadC is set and an
// upstream manager supplies the in-flight gauge — a weighted bounded-load
// ring. weights nil means uniform.
func (s *Service) router(addrs []string, weights []int, m *upstream.Manager) core.Topology {
	ring := backend.NewWeightedRing(addrs, weights, 0)
	if s.Topology.BoundedLoadC > 0 && m != nil {
		return backend.NewBoundedRing(ring, s.Topology.BoundedLoadC, m.InflightFor)
	}
	return ring
}

// UpdateBackends applies a new backend address list (uniform weights) to
// a deployed live-topology service: it builds the router matching the
// service's topology options (plain or bounded-load ring) and swaps it in on
// the live core.Service. Growing the set is a non-event — new connections
// route through the new ring, running graphs finish on the sockets they
// hold; shrinking additionally drains the removed backends' upstream
// pools.
func (s *Service) UpdateBackends(deployed *core.Service, addrs []string) error {
	if !s.Topology.Live {
		return fmt.Errorf("apps: %s was not deployed with a live topology", s.Name)
	}
	return deployed.UpdateBackends(s.router(addrs, nil, deployed.Upstreams()))
}

// UpdateWeighted applies a weighted backend list to a deployed
// live-topology service — the admin API's PUT /topology path and the
// weighted file format land here. Weight 0 keeps a backend listed but
// drains its share of the key space.
func (s *Service) UpdateWeighted(deployed *core.Service, list []topology.Backend) error {
	if !s.Topology.Live {
		return fmt.Errorf("apps: %s was not deployed with a live topology", s.Name)
	}
	if err := topology.Validate(list); err != nil {
		return err
	}
	return deployed.UpdateBackends(s.router(topology.Addrs(list), topology.Weights(list), deployed.Upstreams()))
}

// HTTPLoadBalancer compiles the §6.1 HTTP load balancer for n backends.
func HTTPLoadBalancer(n int) (*Service, error) {
	// Requests encode through PersistentRequestFormat: forwarding a
	// client's "Connection: close" verbatim would let one client tear down
	// a pooled upstream socket under every other client multiplexed onto
	// it, so the hop-by-hop header is rewritten to keep-alive.
	s, err := Compile(lang.ListingHTTPLB, Options{
		ArraySizes: map[string]int{"backends": n},
		Codecs: map[string]compiler.CodecPair{
			"request":  {Decode: phttp.RequestFormat{}, Encode: phttp.PersistentRequestFormat{}},
			"response": {Decode: phttp.ResponseFormat{}, Encode: phttp.ResponseFormat{}},
		},
	})
	if err != nil {
		return nil, err
	}
	s.Name = "http-lb"
	s.reqFramer, s.respFramer = phttp.FrameRequestLen, phttp.FrameResponseLen
	s.probe = phttp.ProbeRequest()
	s.cacheProto = cache.HTTPGet{}
	return s, nil
}

// StaticWebServer compiles the backend-less web server.
func StaticWebServer() (*Service, error) {
	s, err := Compile(StaticWebSource, Options{
		Codecs: map[string]compiler.CodecPair{
			"request":  {Decode: phttp.RequestFormat{}, Encode: phttp.RequestFormat{}},
			"response": {Decode: phttp.ResponseFormat{}, Encode: phttp.ResponseFormat{}},
		},
	})
	if err != nil {
		return nil, err
	}
	s.Name = "static-web"
	return s, nil
}

// MemcachedProxy compiles the Figure 5 proxy (lang.ListingProxy, §4.1:
// pure hash partitioning of the key space, no caching) for n backend
// shards.
func MemcachedProxy(n int) (*Service, error) {
	pair := compiler.CodecPair{Decode: memcache.Codec, Encode: memcache.Codec}
	s, err := Compile(lang.ListingProxy, Options{
		ArraySizes: map[string]int{"backends": n},
		Codecs:     map[string]compiler.CodecPair{"cmd": pair},
	})
	if err != nil {
		return nil, err
	}
	s.Name = "memcached-proxy"
	s.reqFramer, s.respFramer = memcache.FrameRequestLen, memcache.FrameResponseLen
	s.probe = memcache.ProbeRequest()
	s.cacheProto = cache.Memcached{}
	return s, nil
}

// MemcachedRouter compiles the Listing 1 cache router (GETK caching) for n
// backend shards, using the program's own synthesised binary grammar.
func MemcachedRouter(n int) (*Service, error) {
	s, err := Compile(MemcachedRouterSource, Options{
		ArraySizes: map[string]int{"backends": n},
	})
	if err != nil {
		return nil, err
	}
	s.Name = "memcached-router"
	// The router's synthesised cmd grammar shares the Memcached binary
	// header layout (total body length at bytes 8..11), so the same
	// framers serve it.
	s.reqFramer, s.respFramer = memcache.FrameRequestLen, memcache.FrameResponseLen
	s.probe = memcache.ProbeRequest()
	return s, nil
}

// HadoopAggregator compiles the Listing 3 in-network combiner for n mapper
// connections feeding one reducer.
func HadoopAggregator(n int) (*Service, error) {
	pair := compiler.CodecPair{Decode: hadoop.Codec, Encode: hadoop.Codec}
	s, err := Compile(lang.Listing3, Options{
		ArraySizes: map[string]int{"mappers": n},
		Codecs:     map[string]compiler.CodecPair{"kv": pair},
		Backends:   "reducer",
	})
	if err != nil {
		return nil, err
	}
	s.Name = "hadoop-agg"
	s.dispatch, s.sharedChannel = core.Shared, "mappers"
	return s, nil
}

// RouterCmdDesc returns the record descriptor of the router's cmd type
// (clients build requests with it in tests and examples).
func RouterCmdDesc(s *Service) *value.RecordDesc { return s.Program.Desc("cmd") }
