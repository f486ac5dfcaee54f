package apps

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flick/internal/admin"
	"flick/internal/topology"
)

// TestAdminScaleOutZeroErrors is the control-plane acceptance gate: a
// serving proxy is scaled 2→3 by PUTting a topology to the admin HTTP
// API under connect load — zero client errors, the added backend takes
// traffic, the change is visible in GET /topology, and the drain/probe
// counters are visible in GET /counters. It mirrors
// TestLiveScaleOutZeroErrors with the update arriving over the wire
// instead of a method call.
func TestAdminScaleOutZeroErrors(t *testing.T) {
	const (
		total   = 3
		initial = 2
		clients = 8
		keys    = 64
	)
	tb := newTopologyTestbed(t, total, initial, keys)
	ctl := NewControl(tb.mp, tb.svc, tb.p)
	srv, err := ctl.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	base := "http://" + srv.Addr()

	// The pre-update view serves the initial census at full capacity.
	view := getView(t, base)
	if len(view.Backends) != initial || view.Capacity != total || view.Router != "ring" {
		t.Fatalf("pre-update view = %+v", view)
	}

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
				k := (c*31 + i) % keys
				key := fmt.Sprintf("topo-key-%04d", k)
				if err := tb.get([]byte(key), fmt.Sprintf("value-%04d", k)); err != nil {
					errCount.Add(1)
					firstErr.CompareAndSwap(nil, err)
					return
				}
				reqCount.Add(1)
			}
		}(c)
	}

	// Let the fleet run against B=2, then PUT the 3-backend topology.
	time.Sleep(150 * time.Millisecond)
	body, err := json.Marshal(map[string][]string{"backends": tb.addrs})
	if err != nil {
		t.Fatal(err)
	}
	req, err := http.NewRequest(http.MethodPut, base+"/topology", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	putBody, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("PUT /topology = %d %s", resp.StatusCode, putBody)
	}

	// The new backend must pick up traffic.
	deadline := time.Now().Add(10 * time.Second)
	for tb.srvs[total-1].Requests() == 0 {
		if time.Now().After(deadline) {
			stop.Store(true)
			wg.Wait()
			t.Fatalf("scaled-out backend got no traffic (reqs=%d errs=%d)", reqCount.Load(), errCount.Load())
		}
		time.Sleep(5 * time.Millisecond)
	}
	stop.Store(true)
	wg.Wait()

	if e := errCount.Load(); e != 0 {
		t.Fatalf("%d request errors during admin scale-out (first: %v)", e, firstErr.Load())
	}

	// The change is visible in GET /topology, with shares summing to ~1.
	view = getView(t, base)
	if len(view.Backends) != total {
		t.Fatalf("post-update view has %d backends, want %d", len(view.Backends), total)
	}
	sum := 0.0
	for _, b := range view.Backends {
		if b.Weight != 1 {
			t.Fatalf("backend %s weight %d, want 1", b.Addr, b.Weight)
		}
		sum += b.Share
	}
	if sum < 0.999 || sum > 1.001 {
		t.Fatalf("ring shares sum to %v", sum)
	}

	// GET /counters carries every registered set; the upstream and
	// control sets prove the scale-out went through the shared layer and
	// the one update path.
	cresp, err := http.Get(base + "/counters")
	if err != nil {
		t.Fatal(err)
	}
	craw, _ := io.ReadAll(cresp.Body)
	cresp.Body.Close()
	var counters map[string]map[string]uint64
	if err := json.Unmarshal(craw, &counters); err != nil {
		t.Fatalf("GET /counters: %v (%s)", err, craw)
	}
	for _, set := range []string{"sched", "pool", "upstream", "control"} {
		if _, ok := counters[set]; !ok {
			t.Fatalf("GET /counters missing %q set (%s)", set, craw)
		}
	}
	if counters["control"]["applied"] != 1 {
		t.Fatalf("control.applied = %d, want 1", counters["control"]["applied"])
	}
	if counters["upstream"]["dials"] == 0 {
		t.Fatal("upstream.dials = 0 after serving load")
	}
	if counters["upstream"]["drained"] != 0 {
		t.Fatalf("scale-out drained %d sockets; growing the set must drain nothing", counters["upstream"]["drained"])
	}
	t.Logf("admin scale-out: %d requests, 0 errors, new backend served %d", reqCount.Load(), tb.srvs[total-1].Requests())
}

// TestAdminCapacityConflict: PUTting more backends than the compiled
// capacity answers 409 and leaves the serving topology untouched.
func TestAdminCapacityConflict(t *testing.T) {
	tb := newTopologyTestbed(t, 2, 2, 16)
	ctl := NewControl(tb.mp, tb.svc, tb.p)
	srv, err := ctl.ServeAdmin("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { srv.Close() })
	base := "http://" + srv.Addr()

	over := append(append([]string{}, tb.addrs...), "nowhere:1")
	body, _ := json.Marshal(map[string][]string{"backends": over})
	req, _ := http.NewRequest(http.MethodPut, base+"/topology", strings.NewReader(string(body)))
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("capacity-overflow PUT = %d, want 409", resp.StatusCode)
	}
	if view := getView(t, base); len(view.Backends) != 2 {
		t.Fatalf("rejected PUT changed the topology: %+v", view)
	}
	// The service still serves.
	if err := tb.get(tb.keys[0], "value-0000"); err != nil {
		t.Fatalf("GET after rejected PUT: %v", err)
	}
}

// TestControlFollowWeightedFile drives the file source end to end: a
// weighted topology file lands through Control.Follow in the same ring
// the admin API reports, weight 0 draining its backend.
func TestControlFollowWeightedFile(t *testing.T) {
	tb := newTopologyTestbed(t, 3, 3, 16)
	ctl := NewControl(tb.mp, tb.svc, tb.p)

	path := filepath.Join(t.TempDir(), "backends.txt")
	content := fmt.Sprintf("%s 1\n%s 2\n%s 0\n", tb.addrs[0], tb.addrs[1], tb.addrs[2])
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	applied := make(chan error, 1)
	go ctl.Follow(ctx, topology.File{Path: path}, func(_ []topology.Backend, err error) {
		applied <- err
	})
	select {
	case err := <-applied:
		if err != nil {
			t.Fatalf("file topology apply: %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("file source never delivered the initial topology")
	}
	view := ctl.View()
	if len(view.Backends) != 3 {
		t.Fatalf("view = %+v", view)
	}
	if w := view.Backends[1].Weight; w != 2 {
		t.Fatalf("backend 1 weight %d, want 2", w)
	}
	if s := view.Backends[2].Share; s != 0 {
		t.Fatalf("weight-0 backend owns share %v, want 0 (drained)", s)
	}
	// Traffic respects the drain: the weight-0 backend serves nothing new.
	before := tb.srvs[2].Requests()
	for i, k := range tb.keys {
		if err := tb.get(k, fmt.Sprintf("value-%04d", i)); err != nil {
			t.Fatalf("GET: %v", err)
		}
	}
	if got := tb.srvs[2].Requests(); got != before {
		t.Fatalf("drained backend served %d requests", got-before)
	}
}

// getView GETs and decodes /topology.
func getView(t *testing.T, base string) admin.TopologyView {
	t.Helper()
	resp, err := http.Get(base + "/topology")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, _ := io.ReadAll(resp.Body)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET /topology = %d %s", resp.StatusCode, raw)
	}
	var v admin.TopologyView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatal(err)
	}
	return v
}
