package upstream

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flick/internal/buffer"
	"flick/internal/netstack"
)

// BenchmarkUpstreamShardScaling measures the per-worker-sharding claim in
// isolation: GOMAXPROCS goroutines (one per "worker") each round-trip
// requests over a leased session. With one shard every writer contends on
// the single shared socket's write lock and FIFO; with one shard per
// worker each goroutine's write path — framing, FIFO reservation,
// vectored write — runs against its own socket. The delta between the
// shared and sharded sub-benchmarks is the cross-core synchronization the
// sharding removes (run with `make bench-shard`).
func BenchmarkUpstreamShardScaling(b *testing.B) {
	b.Run("shared", func(b *testing.B) { benchmarkLeasedRoundTrips(b, 1) })
	b.Run("sharded", func(b *testing.B) { benchmarkLeasedRoundTrips(b, runtime.GOMAXPROCS(0)) })
}

func benchmarkLeasedRoundTrips(b *testing.B, shards int) {
	u := netstack.NewUserNet()
	defer echoServer(b, u, "bench:shard").Close()
	pool := buffer.NewPool(256)
	pool.Prime(64)
	m := NewManager(Config{
		Transport:      u,
		Pool:           pool,
		Size:           1,
		Shards:         shards,
		RequestFramer:  StatelessRequest(testFramer),
		ResponseFramer: StatelessResponse(testFramer),
	})
	defer m.Close()

	req := frame("get key-bench-000042")
	var wid atomic.Int32
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		w := int(wid.Add(1)) - 1
		s, err := m.LeaseOn("bench:shard", w)
		if err != nil {
			b.Error(err)
			return
		}
		defer s.Close()
		r := NewReader(b, s)
		for pb.Next() {
			if _, err := s.Write(req); err != nil {
				b.Error(err)
				return
			}
			for r.Q.Len() < len(req) { // the echo is as long as the request
				if err := r.Wait(5 * time.Second); err != nil {
					b.Error(err)
					return
				}
			}
			r.Q.Discard(len(req))
		}
	})
}
