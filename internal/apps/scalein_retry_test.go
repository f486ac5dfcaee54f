package apps

import (
	"fmt"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestScaleInUnderConnectLoadZeroClientErrors pins the scale-in dispatch
// retry (ROADMAP: "scale-in dispatch race"): a dispatch that snapshots
// the old topology just as a backend is removed has its lease refused
// with ErrRetired — before the retry, that surfaced as a dropped client
// connection. dispatchPerConn now rebinds once against the fresh
// snapshot, so flapping the backend set under continuous connect load
// must produce zero client errors.
func TestScaleInUnderConnectLoadZeroClientErrors(t *testing.T) {
	const (
		total   = 3
		clients = 8
		keys    = 64
		flips   = 30
	)
	tb := newTopologyTestbed(t, total, total, keys)

	var (
		stop     atomic.Bool
		errCount atomic.Uint64
		reqCount atomic.Uint64
		firstErr atomic.Value
		wg       sync.WaitGroup
	)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for i := 0; !stop.Load(); i++ {
				k := (c*17 + i) % keys
				key := fmt.Sprintf("topo-key-%04d", k)
				if err := tb.get([]byte(key), fmt.Sprintf("value-%04d", k)); err != nil {
					errCount.Add(1)
					firstErr.CompareAndSwap(nil, fmt.Errorf("client %d req %d: %w", c, i, err))
					return
				}
				reqCount.Add(1)
			}
		}(c)
	}

	// Flap the topology: every flip scales in (B=3 → 2) and back out,
	// widening the window in which a dispatch can snapshot a topology
	// whose backend is being retired underneath it.
	for f := 0; f < flips && errCount.Load() == 0; f++ {
		if err := tb.mp.UpdateBackends(tb.svc, tb.addrs[:2]); err != nil {
			t.Fatalf("scale-in %d: %v", f, err)
		}
		time.Sleep(3 * time.Millisecond)
		if err := tb.mp.UpdateBackends(tb.svc, tb.addrs); err != nil {
			t.Fatalf("scale-out %d: %v", f, err)
		}
		time.Sleep(3 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if e := errCount.Load(); e != 0 {
		t.Fatalf("%d client errors across %d scale-in/out flips (first: %v)",
			e, flips, firstErr.Load())
	}
	if reqCount.Load() == 0 {
		t.Fatal("no requests completed during the topology flapping")
	}
	t.Logf("scale-in flapping: %d requests, 0 errors over %d flips", reqCount.Load(), flips)
}
