// Package metrics provides the measurement primitives used by the FLICK
// benchmark harness: lock-free throughput counters and log-bucketed latency
// histograms with percentile extraction.
package metrics

import (
	"fmt"
	"math"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing, concurrency-safe event counter.
type Counter struct {
	n atomic.Uint64
}

// Add increments the counter by delta.
func (c *Counter) Add(delta uint64) { c.n.Add(delta) }

// Inc increments the counter by one.
func (c *Counter) Inc() { c.n.Add(1) }

// Value returns the current count.
func (c *Counter) Value() uint64 { return c.n.Load() }

// Rate is a windowed throughput meter: it records a start time and computes
// events per second on demand.
type Rate struct {
	Counter
	start time.Time
}

// NewRate starts a throughput meter now.
func NewRate() *Rate { return &Rate{start: time.Now()} }

// PerSecond returns the average events/second since the meter started.
func (r *Rate) PerSecond() float64 {
	el := time.Since(r.start).Seconds()
	if el <= 0 {
		return 0
	}
	return float64(r.Value()) / el
}

// Elapsed returns the time since the meter started.
func (r *Rate) Elapsed() time.Duration { return time.Since(r.start) }

// Histogram buckets and constants. Buckets are logarithmic with sub-decade
// resolution: bucket i covers [lower(i), lower(i+1)) nanoseconds with 16
// buckets per power of two, spanning 1 ns .. ~17 s.
const (
	subBuckets = 16
	numBuckets = 64 * subBuckets
)

// Histogram is a concurrency-safe latency histogram. Record is wait-free
// (single atomic add); quantile extraction walks the bucket array.
type Histogram struct {
	buckets [numBuckets]atomic.Uint64
	count   atomic.Uint64
	sum     atomic.Uint64 // nanoseconds
	maxNs   atomic.Uint64
}

func bucketIndex(ns uint64) int {
	if ns == 0 {
		return 0
	}
	exp := 63 - leadingZeros(ns)
	var sub uint64
	if exp >= 4 {
		sub = (ns >> (uint(exp) - 4)) & (subBuckets - 1)
	} else {
		sub = (ns << (4 - uint(exp))) & (subBuckets - 1)
	}
	idx := exp*subBuckets + int(sub)
	if idx >= numBuckets {
		idx = numBuckets - 1
	}
	return idx
}

func leadingZeros(x uint64) int {
	n := 0
	if x == 0 {
		return 64
	}
	for x&(1<<63) == 0 {
		x <<= 1
		n++
	}
	return n
}

// bucketLower returns the lower bound in ns of bucket i.
func bucketLower(i int) uint64 {
	exp := i / subBuckets
	sub := uint64(i % subBuckets)
	if exp >= 4 {
		return (1 << uint(exp)) + (sub << (uint(exp) - 4))
	}
	return (1 << uint(exp)) + (sub >> (4 - uint(exp)))
}

// Record adds one latency observation.
//
// Ordering invariant: maxNs is raised before the bucket is incremented.
// Readers load the buckets first and Max second, so any observation a
// reader sees in a bucket is already covered by the max it reads next —
// a snapshot never reports a quantile above its max.
func (h *Histogram) Record(d time.Duration) {
	ns := uint64(d.Nanoseconds())
	if d < 0 {
		ns = 0
	}
	for {
		cur := h.maxNs.Load()
		if ns <= cur || h.maxNs.CompareAndSwap(cur, ns) {
			break
		}
	}
	h.buckets[bucketIndex(ns)].Add(1)
	h.count.Add(1)
	h.sum.Add(ns)
}

// Count returns the number of recorded observations.
func (h *Histogram) Count() uint64 { return h.count.Load() }

// Mean returns the mean latency.
func (h *Histogram) Mean() time.Duration {
	c := h.count.Load()
	if c == 0 {
		return 0
	}
	return time.Duration(h.sum.Load() / c)
}

// Max returns the largest recorded latency.
func (h *Histogram) Max() time.Duration {
	return time.Duration(h.maxNs.Load())
}

// loadBuckets copies the bucket counters into dst in one pass and returns
// their sum. Every read of the histogram derives both the rank target and
// the cumulative walk from this single snapshot array: loading the count
// atomic separately would let a racing Record make the target rank exceed
// the walked sum and report a spuriously large quantile.
func (h *Histogram) loadBuckets(dst *[numBuckets]uint64) uint64 {
	var total uint64
	for i := range h.buckets {
		n := h.buckets[i].Load()
		dst[i] = n
		total += n
	}
	return total
}

// quantileFrom extracts the q-th quantile from a one-shot bucket snapshot
// whose counts sum to total. The reported value is the lower bound of the
// bucket holding the target rank, so it under-reports by at most one
// log-bucket's width (lower/16 for values >= 16ns).
func quantileFrom(b *[numBuckets]uint64, total uint64, q float64) time.Duration {
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := uint64(math.Ceil(q * float64(total)))
	if target == 0 {
		target = 1
	}
	if target > total {
		target = total
	}
	var cum uint64
	for i := 0; i < numBuckets; i++ {
		cum += b[i]
		if cum >= target {
			return time.Duration(bucketLower(i))
		}
	}
	// Unreachable: target <= total == sum of b. Kept for safety.
	return time.Duration(bucketLower(numBuckets - 1))
}

// Quantile returns an approximation of the q-th quantile (0 < q <= 1). The
// bucket array is snapshotted once and the rank target derives from that
// same snapshot, so a Quantile racing concurrent Records is internally
// consistent (never past the data it walked).
func (h *Histogram) Quantile(q float64) time.Duration {
	var b [numBuckets]uint64
	total := h.loadBuckets(&b)
	return quantileFrom(&b, total, q)
}

// Snapshot summarises the histogram for reporting.
type Snapshot struct {
	// Count is the number of observations the quantiles are drawn from.
	Count uint64
	// Mean is the arithmetic mean latency.
	Mean time.Duration
	// P50, P95, P99 and P999 are bucket-resolution quantiles.
	P50  time.Duration
	P95  time.Duration
	P99  time.Duration
	P999 time.Duration
	// Max is the exact largest recorded latency.
	Max time.Duration
}

// snapshotFrom summarises one bucket snapshot: every quantile (and the
// count) derives from the same array, so the summary is self-consistent
// even when Records raced the copy.
func snapshotFrom(b *[numBuckets]uint64, total, sumNs uint64, max time.Duration) Snapshot {
	s := Snapshot{Count: total, Max: max}
	if total == 0 {
		return s
	}
	s.Mean = time.Duration(sumNs / total)
	s.P50 = quantileFrom(b, total, 0.50)
	s.P95 = quantileFrom(b, total, 0.95)
	s.P99 = quantileFrom(b, total, 0.99)
	s.P999 = quantileFrom(b, total, 0.999)
	return s
}

// Snapshot extracts a point-in-time summary. The buckets are copied once
// and every quantile (and Count) derives from that copy.
func (h *Histogram) Snapshot() Snapshot {
	var b [numBuckets]uint64
	total := h.loadBuckets(&b)
	return snapshotFrom(&b, total, h.sum.Load(), h.Max())
}

// String renders a snapshot compactly.
func (s Snapshot) String() string {
	return fmt.Sprintf("n=%d mean=%v p50=%v p95=%v p99=%v p999=%v max=%v",
		s.Count, s.Mean, s.P50, s.P95, s.P99, s.P999, s.Max)
}
