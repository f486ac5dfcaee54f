package bench

import (
	"testing"
)

// TestChurnSmoke runs the connection-churn experiment small, over the
// user-space stack, and asserts the shipped configuration's contract: no
// errors, backend-side connections bounded by pool×shards×B with one shard
// per worker, leases reused across churning clients, and every lease
// served by the caller's own shard while all backends are healthy.
func TestChurnSmoke(t *testing.T) {
	const (
		clients  = 8
		conns    = 64
		backends = 2
		poolSize = 1
		workers  = 2
	)
	pt, err := RunChurn(ChurnConfig{
		System:   SysFlickMTCP,
		Clients:  clients,
		Conns:    conns,
		Backends: backends,
		PoolSize: poolSize,
		Workers:  workers,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Errors != 0 {
		t.Fatalf("%+v: %d errors", pt, pt.Errors)
	}
	if pt.Throughput == 0 {
		t.Fatalf("%+v: no throughput", pt)
	}
	if pt.Shards != workers {
		t.Fatalf("shards = %d, want one per worker (%d)", pt.Shards, workers)
	}
	if pt.BackendConns > uint64(poolSize*workers*backends) {
		t.Fatalf("backend conns = %d, want <= pool×shards×B = %d",
			pt.BackendConns, poolSize*workers*backends)
	}
	if pt.UpstreamConns == 0 || pt.Upstream.Len() == 0 {
		t.Fatalf("point carries no upstream telemetry: %+v", pt)
	}
	if reuse, _ := pt.Upstream.Get("reuse"); reuse == 0 {
		t.Fatalf("no lease reuse recorded under churn: %s", pt.Upstream)
	}
	if hits, _ := pt.Upstream.Get("shardhits"); hits == 0 {
		t.Fatalf("no shardhits recorded: %s", pt.Upstream)
	}
	if steals, _ := pt.Upstream.Get("shardsteals"); steals != 0 {
		t.Fatalf("healthy backends should need no shardsteals, got %d: %s", steals, pt.Upstream)
	}
	// The table renders the upstream column for regression visibility.
	tab := ChurnTable([]ChurnPoint{pt})
	found := false
	for _, c := range tab.Columns {
		if c == "upstream" {
			found = true
		}
	}
	if !found {
		t.Fatalf("churn table missing upstream column: %v", tab.Columns)
	}
}

// TestChurnQuietBatchSmoke churns connections that each issue a quiet-get
// batch (GetQ hit, GetQ miss, Noop) through the pooled proxy: the batch
// frames as one FIFO unit on the shared socket, the miss stays silent, and
// nothing desyncs across the churning clients.
func TestChurnQuietBatchSmoke(t *testing.T) {
	pt, err := RunChurn(ChurnConfig{
		System:     SysFlickMTCP,
		Clients:    8,
		Conns:      64,
		PoolSize:   2,
		Workers:    2,
		QuietBatch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if pt.Errors != 0 {
		t.Fatalf("%d quiet-batch connections failed", pt.Errors)
	}
	if pt.Throughput == 0 {
		t.Fatal("no quiet-batch throughput")
	}
	if pt.Backends != 1 {
		t.Fatalf("quiet batch must pin Backends=1, got %d", pt.Backends)
	}
}

// TestChurnSweepSmoke sweeps the worker count and asserts that the pool's
// shard count follows it: one worker gives a single shared pool, two give
// one shard per worker. Every row keeps the churn contract — no errors,
// sockets bounded by pool×shards×B, every lease served by the caller's own
// shard (shardhits > 0, shardsteals == 0) while all backends are healthy.
func TestChurnSweepSmoke(t *testing.T) {
	const (
		clients  = 8
		conns    = 64
		backends = 2
		poolSize = 1
	)
	for _, workers := range []int{1, 2} {
		pt, err := RunChurn(ChurnConfig{
			System:   SysFlickMTCP,
			Clients:  clients,
			Conns:    conns,
			Backends: backends,
			PoolSize: poolSize,
			Workers:  workers,
		})
		if err != nil {
			t.Fatal(err)
		}
		if pt.Shards != workers {
			t.Fatalf("workers=%d: shards = %d, want one per worker", workers, pt.Shards)
		}
		if pt.Errors != 0 {
			t.Fatalf("workers=%d: %+v: %d errors", workers, pt, pt.Errors)
		}
		if pt.Throughput == 0 {
			t.Fatalf("workers=%d: %+v: no throughput", workers, pt)
		}
		if pt.BackendConns > uint64(poolSize*workers*backends) {
			t.Fatalf("workers=%d: backend conns = %d, want <= pool×shards×B = %d",
				workers, pt.BackendConns, poolSize*workers*backends)
		}
		if hits, _ := pt.Upstream.Get("shardhits"); hits == 0 {
			t.Fatalf("workers=%d: no shardhits recorded: %s", workers, pt.Upstream)
		}
		if steals, _ := pt.Upstream.Get("shardsteals"); steals != 0 {
			t.Fatalf("workers=%d: healthy backends should need no shardsteals, got %d: %s",
				workers, steals, pt.Upstream)
		}
	}
}
