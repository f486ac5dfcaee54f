// Command flickbench reproduces the paper's evaluation (§6): one
// subcommand per table/figure plus the ablation studies.
//
//	flickbench websrv        static web server (§6.3 text)
//	flickbench fig4          HTTP load balancer (persistent + non-persistent)
//	flickbench fig5          Memcached proxy core scaling
//	flickbench fig6          Hadoop aggregator core scaling
//	flickbench fig7          scheduling-policy fairness
//	flickbench schedscale    scheduler worker-count scaling sweep
//	flickbench churn         connection churn through the per-worker upstream pools
//	flickbench rebalance     live B→B+1 scale-out through the consistent-hash ring
//	flickbench hotkey        hot-key sweep: cached vs plain proxy under zipfian keys
//	flickbench ablations     design-choice ablations
//	flickbench all           everything above
//
// -quick shrinks every experiment for a fast sanity pass;
// -real-origin fronts stock net/http origins serving chunked responses in
// fig4 (each cell first proves byte-identical passthrough against a direct
// fetch); -quiet-batch turns each churn connection into a GetQ/GetQ/Noop
// quiet-get batch.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"time"

	"flick/internal/bench"
)

func main() {
	var (
		quick   = flag.Bool("quick", false, "small parameters for a fast pass")
		dur     = flag.Duration("duration", 2*time.Second, "duration per measured cell")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "FLICK worker threads")
		realOrg = flag.Bool("real-origin", false, "fig4: front stock net/http origins serving chunked responses (verifies byte-identical passthrough)")
		quietB  = flag.Bool("quiet-batch", false, "churn: each connection issues a GetQ/GetQ/Noop quiet batch instead of one GET (pins backends=1)")
	)
	flag.Parse()
	cmd := flag.Arg(0)
	if cmd == "" {
		cmd = "all"
	}

	clients := []int{100, 200, 400, 800, 1600}
	cores := []int{1, 2, 4, 8, 16}
	mapperBytes := int64(16 << 20)
	fig7Tasks := 200
	if *quick {
		clients = []int{16, 64}
		cores = []int{1, 4}
		*dur = 400 * time.Millisecond
		mapperBytes = 1 << 20
		fig7Tasks = 40
	}

	run := func(name string, f func() error) {
		if cmd != "all" && cmd != name {
			return
		}
		if err := f(); err != nil {
			fmt.Fprintf(os.Stderr, "flickbench %s: %v\n", name, err)
			os.Exit(1)
		}
	}

	run("websrv", func() error {
		for _, persistent := range []bool{true, false} {
			pts, err := bench.RunWebServer(bench.WebServerConfig{
				Clients:    clients,
				Persistent: persistent,
				Duration:   *dur,
				Workers:    *workers,
			})
			if err != nil {
				return err
			}
			fmt.Println(bench.WebServerTable(pts, persistent))
		}
		return nil
	})

	run("fig4", func() error {
		for _, persistent := range []bool{true, false} {
			pts, err := bench.RunFig4(bench.Fig4Config{
				Clients:    clients,
				Backends:   10,
				Persistent: persistent,
				Duration:   *dur,
				Workers:    *workers,
				RealOrigin: *realOrg,
			})
			if err != nil {
				return err
			}
			fmt.Println(bench.Fig4Table(pts, persistent))
		}
		return nil
	})

	run("fig5", func() error {
		pts, err := bench.RunFig5(bench.Fig5Config{
			Cores:    cores,
			Clients:  128,
			Backends: 10,
			Duration: *dur,
		})
		if err != nil {
			return err
		}
		fmt.Println(bench.Fig5Table(pts))
		return nil
	})

	run("fig6", func() error {
		pts, err := bench.RunFig6(bench.Fig6Config{
			Cores:    cores,
			WordLens: []int{8, 12, 16},
			Mappers:  8,
			BytesPer: mapperBytes,
		})
		if err != nil {
			return err
		}
		fmt.Println(bench.Fig6Table(pts))
		return nil
	})

	run("fig7", func() error {
		// Fairness only shows when tasks far outnumber workers (the
		// paper's shared middlebox); cap the worker pool at 4.
		fig7Workers := *workers
		if fig7Workers > 4 {
			fig7Workers = 4
		}
		pts, err := bench.RunFig7(bench.Fig7Config{
			Tasks:        fig7Tasks,
			ItemsPerTask: 256,
			Workers:      fig7Workers,
		})
		if err != nil {
			return err
		}
		fmt.Println(bench.Fig7Table(pts))
		return nil
	})

	run("schedscale", func() error {
		items := 4096
		if *quick {
			items = 512
		}
		// Sweep powers of two below -workers, then the requested count
		// itself, so an explicit -workers value is always measured.
		var pts []bench.SchedScalePoint
		for w := 1; w < *workers; w *= 2 {
			pts = append(pts, bench.RunSchedulerScaling(bench.SchedScaleConfig{
				Workers:        w,
				ItemsPerSource: items,
			}))
		}
		pts = append(pts, bench.RunSchedulerScaling(bench.SchedScaleConfig{
			Workers:        *workers,
			ItemsPerSource: items,
		}))
		fmt.Println(bench.SchedScaleTable(pts))
		fmt.Printf("counters at %d workers: %s\n\n",
			pts[len(pts)-1].Workers, pts[len(pts)-1].Stats.Metrics())
		return nil
	})

	run("rebalance", func() error {
		rc := bench.RebalanceConfig{
			Clients:  16,
			Backends: 4,
			Keys:     2000,
			Duration: *dur * 2,
			Workers:  *workers,
		}
		if *quick {
			rc.Clients, rc.Keys, rc.Duration = 8, 500, 800*time.Millisecond
		}
		var pts []bench.RebalancePoint
		for _, sys := range []bench.System{bench.SysFlick, bench.SysFlickMTCP} {
			rc.System = sys
			pt, err := bench.RunRebalance(rc)
			if err != nil {
				return err
			}
			pts = append(pts, pt)
		}
		// Hot-key skew: plain ring vs bounded-load ring (the max-load
		// column is where they separate).
		rc.System = bench.SysFlick
		skew, err := bench.RunRebalanceSkewPair(rc)
		if err != nil {
			return err
		}
		pts = append(pts, skew...)
		fmt.Println(bench.RebalanceTable(pts))
		return nil
	})

	run("churn", func() error {
		cc := bench.ChurnConfig{
			Clients:    64,
			Conns:      4000,
			Backends:   4,
			Workers:    *workers,
			QuietBatch: *quietB,
		}
		if *quick {
			cc.Clients, cc.Conns, cc.Backends = 16, 400, 2
		}
		var pts []bench.ChurnPoint
		for _, sys := range []bench.System{bench.SysFlick, bench.SysFlickMTCP} {
			cc.System = sys
			pt, err := bench.RunChurn(cc)
			if err != nil {
				return err
			}
			pts = append(pts, pt)
		}
		fmt.Println(bench.ChurnTable(pts))
		return nil
	})

	run("hotkey", func() error {
		hc := bench.HotkeyConfig{
			Cores:    *workers,
			Clients:  32,
			Backends: 4,
			Keys:     4096,
			HotShare: 0.5,
			ZipfS:    1.3,
			Duration: *dur,
		}
		if *quick {
			hc.Clients, hc.Keys, hc.Backends = 8, 256, 2
		}
		pts, err := bench.RunHotkey(hc)
		if err != nil {
			return err
		}
		fmt.Println(bench.HotkeyTable(pts))
		cpt, err := bench.RunHotkeyConditional(bench.HotkeyConfig{
			Cores:    *workers,
			Clients:  hc.Clients,
			Duration: *dur,
		})
		if err != nil {
			return err
		}
		fmt.Println(bench.ConditionalTable(cpt))
		return nil
	})

	run("ablations", func() error {
		fmt.Println(bench.TimesliceTable(bench.RunTimesliceAblation(nil, *workers)))
		fmt.Println(bench.PruningTable(bench.RunParserPruningAblation(200000, 4096)))
		return nil
	})

	switch cmd {
	case "websrv", "fig4", "fig5", "fig6", "fig7", "schedscale", "churn", "rebalance", "hotkey", "ablations", "all":
	default:
		fmt.Fprintf(os.Stderr, "flickbench: unknown experiment %q\n", cmd)
		os.Exit(2)
	}
}
