package backend

import (
	"fmt"
	"testing"
)

func testKeys(n int) [][]byte {
	keys := make([][]byte, n)
	for i := range keys {
		keys[i] = []byte(fmt.Sprintf("key-%d", i))
	}
	return keys
}

func testAddrs(n int) []string {
	addrs := make([]string, n)
	for i := range addrs {
		addrs[i] = fmt.Sprintf("10.0.0.%d:11211", i+1)
	}
	return addrs
}

// TestRingKeysMovedOnScaleOut pins the headline property: growing the ring
// B→B+1 remaps about 1/(B+1) of the key space (hash-mod-B would remap
// B/(B+1) of it, ~80% at B=4).
func TestRingKeysMovedOnScaleOut(t *testing.T) {
	keys := testKeys(20000)
	addrs := testAddrs(5)

	ring4 := NewRing(addrs[:4], 0)
	ring5 := NewRing(addrs, 0)
	ringMoved := MovedFraction(ring4, ring5, keys)
	ideal := 1.0 / 5.0
	if ringMoved > 0.25 {
		t.Fatalf("ring moved %.1f%% of keys on 4→5 scale-out, want ≤ 25%%", 100*ringMoved)
	}
	if ringMoved < ideal/2 {
		t.Fatalf("ring moved %.1f%% of keys on 4→5 scale-out — suspiciously below the ideal %.1f%% (keys not actually rebalancing?)",
			100*ringMoved, 100*ideal)
	}
	t.Logf("4→5 scale-out: ring moved %.1f%% (ideal %.1f%%)", 100*ringMoved, 100*ideal)
}

// TestRingRemovalMovesOnlyVictimKeys asserts the defining consistency
// property: removing one backend remaps exactly the keys that were on it —
// no key hosted by a survivor moves.
func TestRingRemovalMovesOnlyVictimKeys(t *testing.T) {
	keys := testKeys(10000)
	addrs := testAddrs(5)
	full := NewRing(addrs, 0)
	without := NewRing(addrs[:4], 0) // drop the last backend

	for _, k := range keys {
		h := KeyHash(k)
		before := full.Backends()[full.Route(h)]
		after := without.Backends()[without.Route(h)]
		if before != addrs[4] && before != after {
			t.Fatalf("key %q moved %s → %s although its backend was not removed", k, before, after)
		}
		if before == addrs[4] && after == addrs[4] {
			t.Fatalf("key %q still routed to removed backend", k)
		}
	}
}

// TestRingSkewBounded asserts load balance at the default vnode count:
// every backend's share of a uniform key space stays within a factor of
// the mean.
func TestRingSkewBounded(t *testing.T) {
	const nBackends = 8
	keys := testKeys(100000)
	ring := NewRing(testAddrs(nBackends), 128)

	counts := make([]int, nBackends)
	for _, k := range keys {
		counts[ring.Route(KeyHash(k))]++
	}
	mean := float64(len(keys)) / nBackends
	for i, c := range counts {
		share := float64(c) / mean
		if share < 0.55 || share > 1.45 {
			t.Fatalf("backend %d holds %.2f× the mean load (counts=%v); skew bound exceeded at 128 vnodes", i, share, counts)
		}
	}
	t.Logf("per-backend counts over %d keys: %v (mean %.0f)", len(keys), counts, mean)
}

// TestRingDeterministicAndOrderIndependent: the key→address mapping depends
// only on the address set, not on construction order.
func TestRingDeterministicAndOrderIndependent(t *testing.T) {
	keys := testKeys(5000)
	addrs := testAddrs(4)
	a := NewRing(addrs, 64)
	reversed := []string{addrs[3], addrs[2], addrs[1], addrs[0]}
	b := NewRing(reversed, 64)
	if moved := MovedFraction(a, b, keys); moved != 0 {
		t.Fatalf("reordering the same address set moved %.2f%% of keys", 100*moved)
	}
	c := NewRing(addrs, 64)
	for _, k := range keys {
		h := KeyHash(k)
		if a.Route(h) != c.Route(h) {
			t.Fatal("ring routing not deterministic")
		}
	}
}

// TestRingRouteInRange: Route always lands inside the address list,
// including at the wrap point and on an empty ring.
func TestRingRouteInRange(t *testing.T) {
	ring := NewRing(testAddrs(3), 16)
	for _, h := range []int64{0, 1, ringMask, ringMask - 1, 1 << 62} {
		if i := ring.Route(h); i < 0 || i >= 3 {
			t.Fatalf("Route(%d) = %d out of range", h, i)
		}
	}
	empty := NewRing(nil, 16)
	if empty.Route(42) != 0 {
		t.Fatal("empty ring should route to 0")
	}
}
