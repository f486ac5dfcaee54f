package core

import (
	"log"
	"sync"
	"sync/atomic"
	"time"

	"flick/internal/metrics"
)

// ServiceLatency is a service's live request-latency signal: every
// PerConnection instance stamps client requests at decode (runInput) and
// records the elapsed time into a per-worker histogram shard when the
// response is encoded for the flush batch (runOutput). Record is wait-free
// and allocation-free, so the zero-copy data path stays 0 allocs/req with
// instrumentation always on; reads aggregate the shards (see
// metrics.ShardedHistogram).
//
// The measured interval is decode→flush inside the platform: it excludes
// kernel/netstack queueing before the decoder saw the bytes, and for cache
// hits it is the in-cache serve time rather than a wire round trip.
type ServiceLatency struct {
	name  string
	total *metrics.ShardedHistogram

	// every is the reqlog sampling interval: every Nth completed request
	// emits one log line. 0 disables logging entirely — the per-request
	// cost is then a single atomic load.
	every atomic.Uint64
	seq   atomic.Uint64
}

// NewServiceLatency creates the latency signal for one service with one
// histogram shard per scheduler worker.
func NewServiceLatency(name string, workers int) *ServiceLatency {
	return &ServiceLatency{name: name, total: metrics.NewShardedHistogram(workers)}
}

// Total returns the service's end-to-end (decode→flush) histogram.
func (sl *ServiceLatency) Total() *metrics.ShardedHistogram { return sl.total }

// SetReqLog enables sampled per-request logging: one line per every Nth
// completed request (0 or negative disables). Unsampled requests cost two
// atomic operations and no allocations.
func (sl *ServiceLatency) SetReqLog(every int) {
	if every < 0 {
		every = 0
	}
	sl.every.Store(uint64(every))
}

// record adds one completed request observation from the given scheduler
// worker. The fast path (logging disabled) is the sharded Record plus one
// atomic load.
func (sl *ServiceLatency) record(worker int, d time.Duration) {
	sl.total.Record(worker, d)
	if n := sl.every.Load(); n != 0 {
		if sl.seq.Add(1)%n == 0 {
			log.Printf("reqlog service=%s worker=%d latency=%v", sl.name, worker, d)
		}
	}
}

// latencyRT is an instance's per-binding latency bookkeeping: a FIFO ring
// of decode timestamps. Proxy-style graphs answer each client in request
// order, so the stamp pushed when request k decodes is popped when response
// k encodes. Known skews, by protocol: memcached quiet gets decode a stamp
// but elicit no response (the leftover stamp inflates the next response's
// reading until the binding resets), and HTTP informational (1xx) responses
// pop one stamp early; pops on an empty ring are skipped. The ring's
// backing array is retained across Reset (only the contents clear), so
// steady-state push/pop allocates nothing.
type latencyRT struct {
	sl *ServiceLatency

	mu     sync.Mutex
	stamps []int64
	head   int
	n      int
}

// push appends one decode timestamp (monotonic ns, metrics.Now).
func (rt *latencyRT) push(stamp int64) {
	rt.mu.Lock()
	if rt.n == len(rt.stamps) {
		grown := make([]int64, max(16, 2*len(rt.stamps)))
		for i := 0; i < rt.n; i++ {
			grown[i] = rt.stamps[(rt.head+i)%len(rt.stamps)]
		}
		rt.stamps = grown
		rt.head = 0
	}
	rt.stamps[(rt.head+rt.n)%len(rt.stamps)] = stamp
	rt.n++
	rt.mu.Unlock()
}

// pop removes the oldest stamp; ok is false when the ring is empty (an
// uncorrelated response: pass-through with no tracked request).
func (rt *latencyRT) pop() (stamp int64, ok bool) {
	rt.mu.Lock()
	if rt.n == 0 {
		rt.mu.Unlock()
		return 0, false
	}
	stamp = rt.stamps[rt.head]
	rt.head = (rt.head + 1) % len(rt.stamps)
	rt.n--
	rt.mu.Unlock()
	return stamp, true
}

// reset clears the ring's contents, keeping its capacity for the next
// binding.
func (rt *latencyRT) reset() {
	rt.mu.Lock()
	rt.head = 0
	rt.n = 0
	rt.mu.Unlock()
}

// installLatency installs the service's latency signal (GraphPool.build).
// Graphs without a primary in/out port pair are left uninstrumented.
func (inst *Instance) installLatency(sl *ServiceLatency) {
	for i := range inst.tmpl.ports {
		p := inst.tmpl.ports[i]
		if p.Primary && p.In >= 0 && p.Out >= 0 {
			inst.lrt = &latencyRT{sl: sl}
			return
		}
	}
}
