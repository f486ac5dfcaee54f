// Benchmarks regenerating the paper's evaluation (§6), one per table/figure
// plus the DESIGN.md ablations. These run with reduced parameters so that
// `go test -bench=. -benchmem` completes in minutes; cmd/flickbench runs
// the full-scale versions. Custom metrics carry the figures' units
// (requests/s, Mb/s, per-class completion milliseconds).
package flick

import (
	"runtime"
	"testing"
	"time"

	"flick/internal/bench"
)

const cellDuration = time.Second

// reportHTTP publishes a web-server/LB cell as benchmark metrics.
func reportHTTP(b *testing.B, reqs float64, mean time.Duration, errs uint64) {
	b.ReportMetric(reqs, "req/s")
	b.ReportMetric(float64(mean.Microseconds()), "µs-mean")
	b.ReportMetric(float64(errs), "errors")
}

// BenchmarkWebServerPersistent is the §6.3 static-web-server comparison
// with keep-alive connections (paper: FLICK 306k / mTCP 380k / Apache 159k
// / Nginx 217k req/s).
func BenchmarkWebServerPersistent(b *testing.B) {
	for _, sys := range []bench.System{bench.SysFlick, bench.SysFlickMTCP, bench.SysApache, bench.SysNginx} {
		b.Run(string(sys), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := bench.RunWebServer(bench.WebServerConfig{
					Systems:    []bench.System{sys},
					Clients:    []int{64},
					Persistent: true,
					Duration:   cellDuration,
				})
				if err != nil {
					b.Fatal(err)
				}
				reportHTTP(b, pts[0].Throughput, pts[0].MeanLatency, pts[0].Errors)
			}
		})
	}
}

// BenchmarkWebServerNonPersistent is the §6.3 comparison with one TCP
// connection per request (paper: FLICK 45k / mTCP 193k / Apache 35k /
// Nginx 44k req/s).
func BenchmarkWebServerNonPersistent(b *testing.B) {
	for _, sys := range []bench.System{bench.SysFlick, bench.SysFlickMTCP, bench.SysApache, bench.SysNginx} {
		b.Run(string(sys), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := bench.RunWebServer(bench.WebServerConfig{
					Systems:    []bench.System{sys},
					Clients:    []int{64},
					Persistent: false,
					Duration:   cellDuration,
				})
				if err != nil {
					b.Fatal(err)
				}
				reportHTTP(b, pts[0].Throughput, pts[0].MeanLatency, pts[0].Errors)
			}
		})
	}
}

// BenchmarkFig4HTTPLoadBalancerPersistent reproduces Figures 4a/4b.
func BenchmarkFig4HTTPLoadBalancerPersistent(b *testing.B) {
	for _, sys := range []bench.System{bench.SysFlick, bench.SysFlickMTCP, bench.SysApache, bench.SysNginx} {
		b.Run(string(sys), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := bench.RunFig4(bench.Fig4Config{
					Systems:    []bench.System{sys},
					Clients:    []int{64},
					Backends:   10,
					Persistent: true,
					Duration:   cellDuration,
				})
				if err != nil {
					b.Fatal(err)
				}
				reportHTTP(b, pts[0].Throughput, pts[0].MeanLatency, pts[0].Errors)
			}
		})
	}
}

// BenchmarkFig4HTTPLoadBalancerNonPersistent reproduces Figures 4c/4d: the
// kernel-stack FLICK falls below the baselines (no backend connection
// reuse), the user-space stack restores the lead.
func BenchmarkFig4HTTPLoadBalancerNonPersistent(b *testing.B) {
	for _, sys := range []bench.System{bench.SysFlick, bench.SysFlickMTCP, bench.SysApache, bench.SysNginx} {
		b.Run(string(sys), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := bench.RunFig4(bench.Fig4Config{
					Systems:    []bench.System{sys},
					Clients:    []int{64},
					Backends:   10,
					Persistent: false,
					Duration:   cellDuration,
				})
				if err != nil {
					b.Fatal(err)
				}
				reportHTTP(b, pts[0].Throughput, pts[0].MeanLatency, pts[0].Errors)
			}
		})
	}
}

// BenchmarkFig5MemcachedProxy reproduces Figure 5's core-scaling sweep
// (FLICK scales with cores; Moxi saturates early on shared-structure
// contention).
func BenchmarkFig5MemcachedProxy(b *testing.B) {
	for _, sys := range []bench.System{bench.SysFlick, bench.SysFlickMTCP, bench.SysMoxi} {
		for _, cores := range []int{1, 4, 8} {
			b.Run(string(sys)+"/cores="+itoa(cores), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pts, err := bench.RunFig5(bench.Fig5Config{
						Systems:  []bench.System{sys},
						Cores:    []int{cores},
						Clients:  64,
						Backends: 10,
						Duration: cellDuration,
					})
					if err != nil {
						b.Fatal(err)
					}
					reportHTTP(b, pts[0].Throughput, pts[0].MeanLatency, pts[0].Errors)
				}
			})
		}
	}
}

// BenchmarkFig6HadoopAggregator reproduces Figure 6: aggregator throughput
// versus cores for the three word lengths.
func BenchmarkFig6HadoopAggregator(b *testing.B) {
	for _, wl := range []int{8, 12, 16} {
		for _, cores := range []int{1, 4, 8} {
			b.Run("wc"+itoa(wl)+"/cores="+itoa(cores), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					pts, err := bench.RunFig6(bench.Fig6Config{
						Cores:      []int{cores},
						WordLens:   []int{wl},
						Mappers:    8,
						BytesPer:   4 << 20,
						UseUserNet: true,
					})
					if err != nil {
						b.Fatal(err)
					}
					b.ReportMetric(pts[0].ThroughputMbps, "Mb/s")
				}
			})
		}
	}
}

// BenchmarkFig7ResourceSharing reproduces Figure 7: light/heavy completion
// under the three scheduling policies.
func BenchmarkFig7ResourceSharing(b *testing.B) {
	for _, policy := range []string{"cooperative", "non-cooperative", "round-robin"} {
		b.Run(policy, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts, err := bench.RunFig7(bench.Fig7Config{
					Tasks:        200,
					ItemsPerTask: 64,
					Workers:      4,
				})
				if err != nil {
					b.Fatal(err)
				}
				for _, p := range pts {
					if p.Policy == policy {
						b.ReportMetric(float64(p.LightCompletion.Milliseconds()), "light-ms")
						b.ReportMetric(float64(p.HeavyCompletion.Milliseconds()), "heavy-ms")
						b.ReportMetric(float64(p.Total.Milliseconds()), "total-ms")
					}
				}
			}
		})
	}
}

// BenchmarkSchedulerScaling sweeps the scheduler worker count over a
// fan-out/fan-in task graph: the paper's linear-scaling claim (§6) reduced
// to the scheduler itself. Throughput (items/s) should grow monotonically
// from 1 worker up to the hardware's parallelism; the steal/park/wakeup
// metrics expose where the sharded design spends its coordination budget.
func BenchmarkSchedulerScaling(b *testing.B) {
	// Sweep to GOMAXPROCS, but always cover 1→4: on a small host the
	// multi-worker cells measure oversubscription, where a global-lock
	// scheduler collapses and the sharded design should stay flat.
	maxWorkers := runtime.GOMAXPROCS(0)
	if maxWorkers < 4 {
		maxWorkers = 4
	}
	for w := 1; w <= maxWorkers; w *= 2 {
		b.Run("workers="+itoa(w), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pt := bench.RunSchedulerScaling(bench.SchedScaleConfig{
					Workers:        w,
					Sources:        8,
					ItemsPerSource: 2048,
				})
				b.ReportMetric(pt.ItemsPerSec(), "items/s")
				b.ReportMetric(pt.OpsPerSec(), "ops/s")
				b.ReportMetric(float64(pt.Stats.Stolen), "steals")
				b.ReportMetric(float64(pt.Stats.Parks), "parks")
				b.ReportMetric(float64(pt.Stats.Wakeups), "wakeups")
				b.ReportMetric(float64(pt.Stats.Overflow), "overflow")
			}
		})
	}
}

// BenchmarkAblationTimeslice sweeps the cooperative quantum (§5's 10–100µs
// band plus a coarse 1ms point).
func BenchmarkAblationTimeslice(b *testing.B) {
	for _, q := range []time.Duration{10 * time.Microsecond, 100 * time.Microsecond, time.Millisecond} {
		b.Run(q.String(), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := bench.RunTimesliceAblation([]time.Duration{q}, 4)
				b.ReportMetric(float64(pts[0].LightCompletion.Milliseconds()), "light-ms")
				b.ReportMetric(float64(pts[0].Total.Milliseconds()), "total-ms")
			}
		})
	}
}

// BenchmarkAblationParserPruning compares full-fidelity Memcached parsing
// against the key-only pruned parser (§4.2).
func BenchmarkAblationParserPruning(b *testing.B) {
	for _, pruned := range []bool{false, true} {
		name := "full"
		if pruned {
			name = "pruned"
		}
		b.Run(name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				pts := bench.RunParserPruningAblation(100000, 4096)
				idx := 0
				if pruned {
					idx = 1
				}
				b.ReportMetric(pts[idx].MsgsPerS, "msgs/s")
			}
		})
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var buf [8]byte
	i := len(buf)
	for n > 0 {
		i--
		buf[i] = byte('0' + n%10)
		n /= 10
	}
	return string(buf[i:])
}
