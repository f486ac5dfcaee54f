package core

import (
	"log"
	"sync/atomic"
	"time"

	"flick/internal/metrics"
	"flick/internal/value"
)

// ServiceLatency is a service's live request-latency signal: every
// PerConnection instance stamps client requests at decode (runInput) and
// records the elapsed time into a per-worker histogram shard when the
// response's batch is flushed (runOutput; see ledger). Record is wait-free
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

// ledger is a primary port's request ledger. Each client has its own graph
// instance, which answers the client's requests in order (§5), so the
// decode stamp of request k belongs to the k-th response. The port's input
// task is the only writer and its output task the only reader, and three
// counts that only grow index one array of stamps with no lock:
//
//   - decoded: requests decoded; the writer bumps it after storing the
//     request's stamp.
//   - answered: responses encoded, clamped at decoded: a response with no
//     unanswered request left (the final response after an HTTP 1xx
//     interim) neither advances it nor is recorded.
//   - recorded: responses flushed; the flush records decode→flush for each
//     before the write.
//
// The client is owed responses while decoded > answered. A request that
// may go unanswered (a memcached quiet GET) has its stamp's sign bit set;
// a response to any other request first retires the quiet stamps ahead of
// its own, recorded with it: the server answers in order, so those are
// done. When the unrecorded stamps fill the array, the writer alone copies
// them into one twice the size and publishes that; the array is allocated
// on first use and kept across Reset.
type ledger struct {
	sl *ServiceLatency // nil (a bare GraphPool): counts only, nothing recorded
	// in and out are the port's formats when they have requests that may
	// go unanswered (nil otherwise).
	in, out quieter

	stamps   atomic.Pointer[[]int64] // length a power of two
	decoded  atomic.Uint64
	recorded atomic.Uint64
	answered uint64 // reader-owned
}

// quieter is a format in which some requests may go unanswered, such as
// the memcached codec: it tells them, and the responses to them, apart.
type quieter interface {
	MayGoUnanswered(msg value.Value) bool
}

// quiet marks the stamp of a request that may go unanswered.
const quiet = int64(-1) << 63

// push stores the stamp of the next decoded request, req (writer only).
func (l *ledger) push(stamp int64, req value.Value) {
	if l.in != nil && l.in.MayGoUnanswered(req) {
		stamp |= quiet
	}
	d := l.decoded.Load()
	s := l.stamps.Load()
	if s == nil || d-l.recorded.Load() == uint64(len(*s)) {
		s = l.grow(s, d)
	}
	(*s)[d&uint64(len(*s)-1)] = stamp
	l.decoded.Store(d + 1)
}

// grow publishes a copy of old (nil: none yet) twice its size, holding the
// stamps of requests [recorded, d).
func (l *ledger) grow(old *[]int64, d uint64) *[]int64 {
	n := 16
	if old != nil {
		n = 2 * len(*old)
	}
	s := make([]int64, n)
	for i := l.recorded.Load(); i < d; i++ {
		s[i&uint64(n-1)] = (*old)[i&uint64(len(*old)-1)]
	}
	l.stamps.Store(&s)
	return &s
}

// owed reports whether the client is still owed responses (reader only).
func (l *ledger) owed() bool { return l.decoded.Load() > l.answered }

// answer counts one encoded response, resp (reader only). Only a quiet
// oldest stamp needs resp classified.
func (l *ledger) answer(resp value.Value) {
	d := l.decoded.Load()
	if l.answered >= d {
		return
	}
	if s := *l.stamps.Load(); s[l.answered&uint64(len(s)-1)] < 0 && (l.out == nil || !l.out.MayGoUnanswered(resp)) {
		for l.answered < d-1 && s[l.answered&uint64(len(s)-1)] < 0 {
			l.answered++
		}
	}
	l.answered++
}

// flushed records decode→flush, at one clock read, for every response
// answered since the last flush, into worker's histogram shard (reader
// only).
func (l *ledger) flushed(worker int) {
	r := l.recorded.Load()
	if r == l.answered {
		return
	}
	if l.sl != nil {
		s, now := *l.stamps.Load(), metrics.Now()
		for ; r < l.answered; r++ {
			l.sl.record(worker, time.Duration(now-s[r&uint64(len(s)-1)]&^quiet))
		}
	}
	l.recorded.Store(l.answered)
}

// reset zeroes the counts for the next binding, keeping the array.
func (l *ledger) reset() {
	l.decoded.Store(0)
	l.recorded.Store(0)
	l.answered = 0
}

// installLatency hands the service's latency signal to the instance's
// ledgers (GraphPool.build).
func (inst *Instance) installLatency(sl *ServiceLatency) {
	for _, st := range inst.outputRT {
		if st != nil && st.led != nil {
			st.led.sl = sl
		}
	}
}
