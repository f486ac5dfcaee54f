// Package backend provides the backend side of the testbed: the origin
// servers behind the middleboxes under test, and the backend-topology
// routers the platform routes keys over.
//
// # Origin servers
//
// HTTPServer (the paper's Apache web servers behind the load balancer) and
// MemcachedServer (the binary-protocol shards behind the proxy) are
// deliberately simple goroutine-per-connection servers — they play the
// role of the paper's dedicated backend machines, not of the system under
// test — and run on either transport. Both count Requests and Accepts;
// Accepts is the quantity the shared upstream connection layer bounds.
//
// # Topology routers
//
// Ring is a consistent-hash ring with virtual nodes (DefaultVNodes per
// backend): adding or removing a backend remaps only ~1/B of the key
// space, where hash-mod-B reshuffles almost all of it. BoundedRing caps
// each backend's in-flight share on top of a Ring. Both implement
// core.Topology and are immutable — a topology change builds a new value
// and swaps it onto the running service (core.Service.UpdateBackends), so
// in-flight task graphs keep routing against the set they were bound to.
// KeyHash is the byte-content FNV-1a hash shared with the language's hash
// builtin, which makes MovedFraction's analysis of a topology change
// agree exactly with what compiled programs do.
//
// # Ownership
//
// Messages received by the servers are zero-copy views over pooled wire
// bytes and are Released as soon as each request is handled; values
// stored into MemcachedServer's table are copied out of the message
// first, so no pooled region outlives its request.
package backend
