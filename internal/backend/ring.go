package backend

import (
	"math"
	"sort"
)

// DefaultVNodes is the virtual-node count per backend used when a Ring is
// built with vnodes <= 0. 128 points per backend keeps the worst observed
// per-backend load within ~±30% of the mean on uniform keys (asserted by
// TestRingSkewBounded) while the ring stays small enough that a lookup is
// one binary search over B×128 points.
const DefaultVNodes = 128

// ringMask keeps ring points in the same non-negative 63-bit space as the
// language's hash builtin (compiler hashValue masks identically), so key
// hashes and vnode points share one circle.
const ringMask = 0x7fffffffffffffff

// KeyHash is the hash the routing layer agrees on: FNV-1a over the key
// bytes, masked non-negative. It matches the FLICK `hash` builtin exactly
// (the compiler cross-checks the two in its test suite), so a topology's
// Route answers precisely where the compiled proxy/router programs will
// send a key.
func KeyHash(key []byte) int64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	for _, b := range key {
		h ^= uint64(b)
		h *= prime
	}
	return int64(h & ringMask)
}

// Ring is a consistent-hash ring over an ordered backend address list: each
// address contributes vnodes points on a 63-bit circle, and a key routes to
// the owner of the first point at or after its hash. Adding or removing one
// backend therefore remaps only ~1/B of the key space (the new node's
// arcs), where hash-mod-B reshuffles almost all of it.
//
// A Ring is immutable after construction — topology changes build a new
// Ring and swap it in (core.Service.UpdateBackends), so routing decisions
// taken by in-flight task graphs stay consistent with the backend set they
// were bound against. Ring implements core.Topology.
type Ring struct {
	addrs   []string
	weights []int       // per-backend vnode multiplier (nil: uniform)
	points  []ringPoint // sorted by point
}

// ringPoint is one virtual node: a position on the circle plus the index
// (into addrs) of the backend that owns it.
type ringPoint struct {
	point uint64
	idx   int
}

// mix64 is the splitmix64 finalizer: a cheap bijective scrambler that turns
// sequential vnode indices into uniformly spread ring points.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// NewRing builds a ring over addrs with the given virtual-node count per
// backend (<=0: DefaultVNodes). Point positions depend only on each
// address string, never on its slot in the list, so the same address set
// always yields the same key→address mapping regardless of order or of
// which other addresses come and go. Vnode points are the address's FNV
// hash mixed per vnode through a splitmix64 finalizer — raw FNV over
// "addr#i" labels clusters (the labels differ in a few trailing digits),
// which skews per-backend load well past 2× the mean.
func NewRing(addrs []string, vnodes int) *Ring {
	return NewWeightedRing(addrs, nil, vnodes)
}

// NewWeightedRing builds a ring where backend i contributes
// weights[i]×vnodes points: a weight-2 backend owns twice the key-space
// share of a weight-1 one. A nil weights slice (or one of the wrong
// length) means uniform weight 1 — NewWeightedRing(addrs, nil, v) is
// point-for-point identical to NewRing(addrs, v), so turning weights on
// later moves no keys for backends whose weight stays 1. Weight 0 is the
// drain weight: the backend stays in Backends() (its port stays bound,
// in-flight traffic completes) but owns no arc, so no new key routes to
// it. Negative weights clamp to 0; if every weight is 0 the ring falls
// back to uniform — an all-drained topology would otherwise route into
// nothing.
func NewWeightedRing(addrs []string, weights []int, vnodes int) *Ring {
	if vnodes <= 0 {
		vnodes = DefaultVNodes
	}
	r := &Ring{addrs: append([]string(nil), addrs...)}
	if len(weights) == len(addrs) && len(addrs) > 0 {
		total := 0
		r.weights = make([]int, len(weights))
		for i, w := range weights {
			if w < 0 {
				w = 0
			}
			r.weights[i] = w
			total += w
		}
		if total == 0 {
			r.weights = nil
		}
	}
	for i, a := range r.addrs {
		base := uint64(KeyHash([]byte(a)))
		n := vnodes
		if r.weights != nil {
			n = r.weights[i] * vnodes
		}
		// The first vnodes points of a weight-w backend are exactly its
		// weight-1 points (same base, same per-vnode mix), so raising a
		// weight only grows that backend's arcs — it never moves keys
		// between two backends whose weights are unchanged.
		for v := 0; v < n; v++ {
			h := mix64(base+uint64(v)*0x9e3779b97f4a7c15) & ringMask
			r.points = append(r.points, ringPoint{point: h, idx: i})
		}
	}
	sort.Slice(r.points, func(a, b int) bool {
		if r.points[a].point != r.points[b].point {
			return r.points[a].point < r.points[b].point
		}
		// Ties break on the address so duplicate points still resolve
		// identically across rings sharing the colliding addresses.
		return r.addrs[r.points[a].idx] < r.addrs[r.points[b].idx]
	})
	return r
}

// Backends returns the ordered backend address list the ring was built
// over. The slice is shared — callers must not mutate it.
func (r *Ring) Backends() []string { return r.addrs }

// Weights returns the per-backend weights the ring was built with: weight
// 1 for every backend of an unweighted ring. The returned slice is fresh.
func (r *Ring) Weights() []int {
	out := make([]int, len(r.addrs))
	for i := range out {
		if r.weights != nil {
			out[i] = r.weights[i]
		} else {
			out[i] = 1
		}
	}
	return out
}

// Shares returns the fraction of the hash circle each backend owns — the
// expected share of a uniform key space it will be routed, which the
// admin API reports per backend. Shares sum to 1; a weight-0 (draining)
// backend's share is 0.
func (r *Ring) Shares() []float64 {
	shares := make([]float64, len(r.addrs))
	if len(r.points) == 0 {
		return shares
	}
	if len(r.points) == 1 {
		// A single point owns the whole circle; the arc arithmetic below
		// would compute its self-wrap as zero.
		shares[r.points[0].idx] = 1
		return shares
	}
	// Route sends hash h to the first point ≥ h (wrapping), so point i
	// owns the arc (points[i-1], points[i]] — and the first point
	// additionally owns the wrap arc past the last point.
	const circle = float64(ringMask) + 1
	prev := r.points[len(r.points)-1].point
	for _, pt := range r.points {
		arc := (pt.point - prev) & ringMask
		shares[pt.idx] += float64(arc) / circle
		prev = pt.point
	}
	return shares
}

// Route maps a key hash (the language's hash builtin, or KeyHash) to the
// index of the owning backend in Backends(). The hash is scrambled through
// the same splitmix64 finalizer as the vnode points before the circle
// lookup: FNV-1a hashes of sequential keys ("key-0001", "key-0002", …)
// cluster within a tiny arc of the circle and would all land on one
// backend — the mod ablation never sees this because modulo spreads
// clustered hashes, but a ring partitions by range and needs uniformity.
func (r *Ring) Route(hash int64) int {
	if len(r.points) == 0 {
		return 0
	}
	return r.points[r.ownerPoint(hash)].idx
}

// ownerPoint returns the index (into r.points) of the vnode owning hash.
// The ring must be non-empty.
func (r *Ring) ownerPoint(hash int64) int {
	h := mix64(uint64(hash)) & ringMask
	i := sort.Search(len(r.points), func(i int) bool { return r.points[i].point >= h })
	if i == len(r.points) {
		i = 0 // wrap: the first point owns the arc past the last one
	}
	return i
}

// walk visits the distinct backends owning successive ring points from
// hash's owner onward — the deterministic successor order bounded-load
// routing spills along — and returns the first index accept approves. With
// none approved it returns the hash owner (the caller's threshold was
// unsatisfiable; routing somewhere beats routing nowhere).
func (r *Ring) walk(hash int64, accept func(idx int) bool) int {
	if len(r.points) == 0 {
		return 0
	}
	start := r.ownerPoint(hash)
	var seenArr [64]uint8
	seen := seenArr[:]
	if len(r.addrs) > len(seenArr) {
		seen = make([]uint8, len(r.addrs))
	}
	checked := 0
	for off := 0; off < len(r.points) && checked < len(r.addrs); off++ {
		idx := r.points[(start+off)%len(r.points)].idx
		if seen[idx] != 0 {
			continue
		}
		seen[idx] = 1
		checked++
		if accept(idx) {
			return idx
		}
	}
	return r.points[start].idx
}

// LoadFunc reports a backend's current load — for the platform, the
// shared upstream layer's in-flight request count for the address
// (upstream.Manager.InflightFor). Implementations must be safe for
// concurrent use; BoundedRing calls it on every routing decision.
type LoadFunc func(addr string) int64

// DefaultBoundedLoadC is the bounded-load expansion factor used when a
// BoundedRing is built with c <= 1. 1.25 is the classic
// consistent-hashing-with-bounded-loads operating point: no backend may
// carry more than 25% above the mean in-flight load, at the cost of
// spilling ~an eighth of a hot arc's keys to ring successors.
const DefaultBoundedLoadC = 1.25

// BoundedRing is the bounded-load variant of a Ring (consistent hashing
// with bounded loads, Mirrokni et al.): a key routes to its hash owner
// unless the owner's in-flight share already exceeds c times its fair
// share of the total load, in which case the key walks the ring to the
// first successor below its own threshold. Hot keys therefore spill to
// ring neighbours instead of melting one backend, while cold keys route
// exactly as the plain ring does — and an idle system (total load 0)
// routes identically to the underlying Ring.
//
// Weights participate: backend i's threshold is ⌈c·(total+1)·w_i/W⌉, so a
// weight-2 backend absorbs twice the in-flight load of a weight-1 one
// before spilling, and a weight-0 (draining) backend accepts nothing. A
// BoundedRing is immutable and implements core.Topology; only the load
// readings change under it.
type BoundedRing struct {
	ring *Ring
	c    float64
	load LoadFunc
}

// NewBoundedRing wraps ring with bounded-load routing. c <= 1 selects
// DefaultBoundedLoadC (a bound at or below the mean cannot be satisfied);
// a nil load function degrades to plain ring routing.
func NewBoundedRing(ring *Ring, c float64, load LoadFunc) *BoundedRing {
	if c <= 1 {
		c = DefaultBoundedLoadC
	}
	return &BoundedRing{ring: ring, c: c, load: load}
}

// Ring returns the underlying consistent-hash ring.
func (b *BoundedRing) Ring() *Ring { return b.ring }

// C returns the bounded-load expansion factor.
func (b *BoundedRing) C() float64 { return b.c }

// Backends returns the ordered backend address list. The slice is shared —
// callers must not mutate it.
func (b *BoundedRing) Backends() []string { return b.ring.Backends() }

// Shares returns the underlying ring's key-space shares (the no-load
// routing distribution; under load, bounded spilling flattens the
// realised distribution further).
func (b *BoundedRing) Shares() []float64 { return b.ring.Shares() }

// Route maps a key hash to a backend index: the ring owner when its load
// is within bound, else the first ring successor within its own bound.
// One backend is always within bound — the least-loaded (relative to
// weight) backend sits at or below its fair share — so the walk
// terminates on a real target; routing never fails under overload, it
// only stops discriminating.
func (b *BoundedRing) Route(hash int64) int {
	r := b.ring
	if len(r.addrs) <= 1 || b.load == nil || len(r.points) == 0 {
		return r.Route(hash)
	}
	var total int64
	for _, a := range r.addrs {
		if l := b.load(a); l > 0 {
			total += l
		}
	}
	owner := r.points[r.ownerPoint(hash)].idx
	if total == 0 {
		return owner // idle: bounded routing is plain ring routing
	}
	weightTotal := len(r.addrs)
	if r.weights != nil {
		weightTotal = 0
		for _, w := range r.weights {
			weightTotal += w
		}
	}
	scaled := b.c * float64(total+1) / float64(weightTotal)
	return r.walk(hash, func(idx int) bool {
		w := 1
		if r.weights != nil {
			w = r.weights[idx]
		}
		if w == 0 {
			return false // draining: accepts no new keys
		}
		threshold := int64(math.Ceil(scaled * float64(w)))
		l := b.load(r.addrs[idx])
		if l < 0 {
			l = 0
		}
		return l+1 <= threshold
	})
}

// Router is the routing half of a topology (satisfied by Ring and
// BoundedRing); MovedFraction compares two of them.
type Router interface {
	Route(hash int64) int
	Backends() []string
}

// MovedFraction reports the fraction of keys whose routed backend address
// differs between topologies a and b — the cost of the a→b change. Keys
// mapping by address (not index) means reordering the same set moves
// nothing.
func MovedFraction(a, b Router, keys [][]byte) float64 {
	if len(keys) == 0 {
		return 0
	}
	ab, bb := a.Backends(), b.Backends()
	moved := 0
	for _, k := range keys {
		h := KeyHash(k)
		if ab[a.Route(h)] != bb[b.Route(h)] {
			moved++
		}
	}
	return float64(moved) / float64(len(keys))
}
