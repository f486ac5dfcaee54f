// Package upstream is the sharded upstream connection layer: per-backend
// pools of persistent, pipelined connections that many client task graphs
// multiplex over, replacing the per-client backend dial of the naive graph
// dispatcher ("creates new output channel connections to forward processed
// traffic", §5).
//
// A Manager owns Config.Shards independent shards — one per scheduler
// worker in the platform's default wiring — each holding one pool per
// backend address. Each pool holds up to Size long-lived sockets; LeaseOn
// (addr, worker) hands out a lightweight virtual connection (a Session,
// which an instance binds as a netstack.Conn like any socket) pinned to a
// socket of the worker's shard, so the write path of a task graph never
// takes a lock another core holds. Requests from all sessions
// of a socket are framed, counted into a FIFO, and written through a
// single serialised writer; the demultiplexer frames the pipelined
// response stream and routes each response view to the session at the
// FIFO head. This matches the FIFO request/response discipline of
// memcached-binary and HTTP/1.1 backends, which answer a connection's
// requests in arrival order. A full in-flight window stages a write
// (netstack.ErrBacklogged) until a response frees a slot: nothing in the
// layer waits. A shard whose backend sockets are down borrows a live
// sibling-shard socket before failing fast (shardsteals).
//
// # Request-aware framing
//
// Framing is a per-protocol pair, not a single length function. The
// RequestFramer runs under the write lock and returns, besides the frame
// length, a Context — an opaque word recording whatever the protocol
// needs to frame the matching response (HTTP: the method class, so a
// HEAD's 200-with-Content-Length is known to be header-only; memcached:
// the terminator opcode and opaque of a GetQ/GetKQ quiet run, which
// travels as ONE framed unit and one FIFO slot). Each FIFO entry carries
// its context, and the demultiplexer passes the head entry's context to
// the ResponseFramer, which is how bodiless statuses (204, 304 with an
// entity Content-Length), 1xx interim responses, chunked
// transfer-encoding, and silent quiet-get misses demultiplex correctly.
// Protocols whose framing is request-blind adapt a plain Framer with
// StatelessRequest / StatelessResponse. A response stream the framer
// cannot delimit (connection-close framing, a 101 upgrade) must return an
// error rather than a guess: the socket fails loudly and every session on
// it EOFs, which is always recoverable — a truncated or misattributed
// response is not.
//
// # Zero-copy / ownership invariants
//
// The data path is zero-copy end to end: backend bytes land in pooled
// refcounted chunks (buffer.Ref), each complete response becomes a
// retained sub-view (Queue.TakeRef), and views ride buffer.Queue
// hand-overs (AppendView / DrainTo) into the leasing instance's parse
// queue without a copy. Ownership of a delivered view passes to the
// session's inbound queue and from there, by reference, to the consumer;
// a session closed before delivery drops (Releases) the view itself, so
// every region's refcount balances whether or not its response was read.
// Writes stage caller memory by reference only within the locked write
// call; what stays staged is copied into pooled memory the session owns
// (compactTail) before the lock is released.
//
// # Failure handling and topology
//
// Dialling is lazy (a pool socket is established by the lease that needs
// it), a failed dial opens a doubling backoff window during which leases
// fail fast, and a mid-stream socket failure EOFs every session
// multiplexed on it — exactly what a dedicated backend connection dying
// looks like, so instance teardown is unchanged. Two extensions make the
// backend set dynamic:
//
//   - Health probes (Config.Probe / ProbeInterval): a manager timer
//     re-dials empty or broken slots in the background and round-trips a
//     protocol no-op (memcache.ProbeRequest, http.ProbeRequest), closing
//     fail-fast windows — and pre-warming new backends — before a client
//     lease pays for the discovery. Probes run once per backend (through
//     one shard's pool) and broadcast their verdict to every shard —
//     including a verify round trip on a live socket when only a sibling
//     shard's window is open — so probe traffic does not multiply with
//     the shard count.
//   - Live topology (SetBackends): per shard, pools are created for
//     added addresses and retired for removed ones. A retired pool
//     refuses new leases (ErrRetired) while in-flight sessions finish on
//     their original socket; each drained socket closes as its last
//     session detaches.
//
// # Counters
//
// Manager.Counters exposes the layer as a metrics.CounterSet:
//
//	dials        sockets established (bounded by pool size × shards × backends)
//	reuse        leases served by an already-live socket
//	inflight     unanswered pipelined requests right now (gauge)
//	redials      sockets re-established after a failure
//	failfast     leases rejected during a backoff window
//	probes       successful background probe round trips
//	drained      sockets closed by topology drain
//	shardhits    leases served by the caller's own shard
//	shardsteals  leases borrowed from a sibling shard's live socket
package upstream
