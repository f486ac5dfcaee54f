package bench

import (
	"testing"
	"time"
)

// TestRebalanceSmoke runs the live scale-out experiment with small
// parameters and gates its acceptance numbers: the ring moves ≤25% of the
// key space on a 4→5 scale-out, zero request errors occur during the live
// update, and the added backend takes traffic.
func TestRebalanceSmoke(t *testing.T) {
	p, err := RunRebalance(RebalanceConfig{
		System:      SysFlick,
		Clients:     8,
		Backends:    4,
		Keys:        500,
		ReqsPerConn: 4,
		Duration:    600 * time.Millisecond,
		Workers:     4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if p.MovedFrac > 0.25 {
		t.Fatalf("ring moved %.1f%% of keys on 4→5, want ≤ 25%%", 100*p.MovedFrac)
	}
	if p.Errors != 0 {
		t.Fatalf("%d request errors during live scale-out, want 0", p.Errors)
	}
	if p.Requests == 0 {
		t.Fatal("no requests completed")
	}
	if p.NewBackendReqs == 0 {
		t.Fatal("added backend served no traffic after the update")
	}
	t.Log(RebalanceTable([]RebalancePoint{p}).String())
}

// TestRebalanceBoundedLoadSmoke runs the hot-key skew pair and gates the
// bounded-load acceptance criterion: under a workload where half the GETs
// hit one key, the bounded-load ring's max-load must land strictly below
// the plain ring's (which concentrates the hot stream on one backend).
func TestRebalanceBoundedLoadSmoke(t *testing.T) {
	pts, err := RunRebalanceSkewPair(RebalanceConfig{
		System:      SysFlick,
		Clients:     8,
		Backends:    4,
		Keys:        500,
		ReqsPerConn: 4,
		Duration:    800 * time.Millisecond,
		Workers:     4,
		HotKeyFrac:  0.5,
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != 2 {
		t.Fatalf("got %d points", len(pts))
	}
	plain, bounded := pts[0], pts[1]
	if plain.Bounded || !bounded.Bounded {
		t.Fatal("pair order: want plain ring first, bounded second")
	}
	for _, p := range pts {
		if p.Errors != 0 {
			t.Fatalf("bounded=%v: %d request errors during live scale-out, want 0", p.Bounded, p.Errors)
		}
		if p.Requests == 0 {
			t.Fatalf("bounded=%v: no requests completed", p.Bounded)
		}
	}
	// Sanity: the skew must actually skew — a plain ring under a 50% hot
	// key should run its hottest backend well above the mean.
	if plain.MaxLoad < 1.3 {
		t.Fatalf("plain ring max-load %.2f under 50%% hot-key skew, expected ≥ 1.3", plain.MaxLoad)
	}
	if bounded.MaxLoad >= plain.MaxLoad {
		t.Fatalf("bounded-load max-load %.2f not below plain ring's %.2f", bounded.MaxLoad, plain.MaxLoad)
	}
	t.Log(RebalanceTable(pts).String())
}
