// Package apps packages the paper's three application-specific network
// services (§2.1, §6.1) as deployable units: each bundles the FLICK source,
// the compilation configuration (codec bindings, array sizes) and the
// platform service configuration, so benchmarks and examples deploy them
// with one call.
//
// A fourth service, the static web server (§6.3's first experiment), is the
// HTTP load balancer variant that answers requests itself instead of
// forwarding ("We also implement a variant of the HTTP load balancer that
// does not use backend servers but which returns a fixed response").
//
// # Building a service
//
// Service is the one service descriptor, and this package is the one
// place that compiles and deploys a FLICK program. Compile turns source
// and Options into a Service and infers its channel roles: the client
// channel is the compiled primary port, the backend channel is
// Options.Backends or else the one remaining channel (more candidates
// are an error naming them). The packaged constructors call Compile and
// add only their protocol wiring: upstream framers, probe request, cache
// adapter, and the Hadoop aggregator's Shared dispatch. Service.Deploy
// is the one place a core.ServiceConfig is assembled. The public facade
// (package flick) aliases Service and Options, and deploys through the
// same method.
//
// # Deployment options
//
// A Service carries its deployment knobs in nested option structs whose
// zero values are the defaults. Every request/response service with
// backends pools its backend connections in the shared upstream layer,
// one pool shard per scheduler worker. Upstream (UpstreamOptions) sizes
// that layer: PoolSize, and ProbeInterval (proactive upstream health
// probes using the service protocol's no-op request). Topology
// (TopologyOptions) configures routing: Live (consistent-hash ring
// routing with hot UpdateBackends, where the compiled channel-array size
// is capacity rather than census) and BoundedLoadC (consistent hashing
// with bounded loads over the upstream layer's in-flight gauge). Cache
// (CacheOptions) enables the in-network response cache.
//
// # Control plane
//
// Control wraps a deployed live-topology service in its control plane:
// Apply is the single update path every topology source converges on
// (admin PUT /topology, SIGHUP file re-reads and HTTP polling via
// topology.Source + Follow), View/Counters snapshot the state the admin
// HTTP API (internal/admin, ServeAdmin) serves.
//
// # Ownership
//
// The services themselves run entirely on the platform's zero-copy path;
// nothing in this package holds message views beyond a task activation.
// Test and example clients that call memcache.Conn.RoundTrip/Receive own
// the returned responses and must Release them (see the memcache package
// note on ownership).
//
// # Counters
//
// Deployed services expose their layers' counters: the upstream layer via
// core.Service.Upstreams().Counters() (dials, reuse, inflight, redials,
// failfast, probes, drained), the scheduler via Platform counters, and
// the buffer pool via buffer.Pool.Counters.
package apps
