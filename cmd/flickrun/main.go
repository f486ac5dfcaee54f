// Command flickrun deploys one of the bundled FLICK services on the local
// platform over real (kernel) TCP, for interactive use:
//
//	flickrun -service web -listen 127.0.0.1:8080
//	flickrun -service httplb -listen 127.0.0.1:8080 -backend 127.0.0.1:9001 -backend 127.0.0.1:9002
//	flickrun -service memcachedproxy -listen 127.0.0.1:11211 -backend 127.0.0.1:11212
//
// With -cache the proxy and the HTTP load balancer serve repeated reads
// from an in-network response cache (worker-sharded, single-flight miss
// coalescing); -cache-ttl and -cache-max-bytes bound staleness and
// resident bytes, -cache-stale-ttl serves stale entries while a
// background conditional refresh revalidates them, and
// -cache-negative-ttl bounds negative (key-absence) entries.
// GET /topology reports the live hit ratio.
//
// Live backend topology: with -live-topology the backend set can change
// while serving. Every update path converges on the same drain-correct
// transition:
//
//   - File + SIGHUP: write "addr" or "addr weight" lines to the
//     -topology-file and send SIGHUP; the process re-reads the file and
//     rebuilds the ring without dropping a connection.
//   - Admin API: with -admin-addr, PUT /topology installs a JSON backend
//     list over HTTP (and GET /topology, /counters, /healthz inspect the
//     live state). See ARCHITECTURE.md's control-plane section.
//   - HTTP poll: -topology-poll-url follows another instance's admin
//     GET /topology, so a fleet tracks one source of truth. It accepts
//     http:// URLs only (the admin API is plain HTTP); any other scheme
//     exits at start-up with status 1.
//
// Example:
//
//	flickrun -service memcachedproxy -live-topology -max-backends 8 \
//	    -topology-file backends.txt -probe-interval 250ms \
//	    -admin-addr 127.0.0.1:7070 \
//	    -backend 127.0.0.1:11212 -backend 127.0.0.1:11213
//	# later: edit backends.txt, then
//	kill -HUP $(pidof flickrun)
//	# or over HTTP:
//	curl -X PUT -d '{"backends":["127.0.0.1:11212",{"addr":"127.0.0.1:11214","weight":2}]}' \
//	    http://127.0.0.1:7070/topology
//
// -cpuprofile FILE records a pprof CPU profile of the serving process; it is
// stopped and flushed when the process is interrupted (SIGINT), so a run
// ended by SIGKILL leaves no profile. -memprofile FILE writes a pprof heap
// profile at the same moment, after a collection and before the service
// shuts down, so its in-use figures describe the serving process's live
// heap (the response cache included); it samples one allocation per 4 KiB
// allocated instead of the runtime's default 512 KiB. It needs a binary
// built with -tags memprofile (see memprofile.go):
//
//	go build -tags memprofile -o flickrun ./cmd/flickrun
//
// The process serves until interrupted.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"runtime"
	"runtime/pprof"
	"syscall"
	"time"

	"flick/internal/apps"
	"flick/internal/core"
	"flick/internal/topology"
)

type backendList []string

func (b *backendList) String() string { return fmt.Sprint([]string(*b)) }

func (b *backendList) Set(s string) error {
	*b = append(*b, s)
	return nil
}

func main() {
	var backends backendList
	var (
		service = flag.String("service", "web", "service: web | httplb | memcachedproxy | memcachedrouter | hadoopagg")
		listen  = flag.String("listen", "127.0.0.1:8080", "listen address")
		workers = flag.Int("workers", runtime.GOMAXPROCS(0), "worker threads")
		upSize  = flag.Int("upstream-pool-size", 0, "shared upstream sockets per backend per shard (0: default)")
		liveTop = flag.Bool("live-topology", false, "route via a consistent-hash ring and accept topology updates while serving")
		maxBack = flag.Int("max-backends", 0, "channel-array capacity for -live-topology (0: current backend count)")
		topFile = flag.String("topology-file", "", "topology file (\"addr\" or \"addr weight\" per line), re-read on SIGHUP")
		pollURL = flag.String("topology-poll-url", "", "follow another instance's admin GET /topology at this http:// URL")
		pollIv  = flag.Duration("topology-poll-interval", 2*time.Second, "poll period for -topology-poll-url")
		probeIv = flag.Duration("probe-interval", 0, "proactive upstream health-probe period (0: disabled)")
		adminAd = flag.String("admin-addr", "", "serve the admin HTTP API (GET/PUT /topology, /counters, /healthz) on this address")
		loadC   = flag.Float64("bounded-load-c", 0, "bounded-load factor c for ring routing (0: plain ring; try 1.25)")
		cacheOn = flag.Bool("cache", false, "enable the in-network response cache (memcachedproxy and httplb only)")
		cacheTT = flag.Duration("cache-ttl", 0, "response cache entry TTL (0: default)")
		cacheMB = flag.Int64("cache-max-bytes", 0, "response cache resident-byte budget (0: default)")
		cacheSW = flag.Duration("cache-stale-ttl", 0, "serve stale entries for this long past expiry while revalidating in the background (0: disabled)")
		cacheNG = flag.Duration("cache-negative-ttl", 0, "response cache negative-entry TTL (0: default; <0: disabled)")
		reqlog  = flag.Int("reqlog", 0, "log every Nth request's latency (0: disabled; unsampled requests stay zero-alloc)")
		cpuProf = flag.String("cpuprofile", "", "write a CPU profile to this file, flushed on interrupt")
		memProf = flag.String("memprofile", "", "write a heap profile to this file on interrupt, before shutdown (samples every 4 KiB allocated; needs a -tags memprofile build)")
	)
	flag.Var(&backends, "backend", "backend address (repeatable)")
	flag.Parse()
	if *pollURL != "" {
		if err := (topology.Poll{URL: *pollURL}).Validate(); err != nil {
			fatal(err)
		}
	}

	if *memProf != "" {
		if !heapProfiling {
			fatal(fmt.Errorf("-memprofile needs a binary built with -tags memprofile"))
		}
		// The default rate (one sample per 512 KiB) leaves a proxy's few
		// MiB of live heap with a handful of samples.
		runtime.MemProfileRate = 4096
	}
	if *cpuProf != "" {
		stop, perr := startCPUProfile(*cpuProf)
		if perr != nil {
			fatal(perr)
		}
		defer stop()
	}

	capacity := len(backends)
	if *liveTop && *maxBack > capacity {
		capacity = *maxBack
	}

	var (
		svc *apps.Service
		err error
	)
	switch *service {
	case "web":
		svc, err = apps.StaticWebServer()
	case "httplb":
		svc, err = apps.HTTPLoadBalancer(capacity)
	case "memcachedproxy":
		svc, err = apps.MemcachedProxy(capacity)
	case "memcachedrouter":
		svc, err = apps.MemcachedRouter(capacity)
	case "hadoopagg":
		svc, err = apps.HadoopAggregator(8)
	default:
		fmt.Fprintf(os.Stderr, "flickrun: unknown service %q\n", *service)
		os.Exit(2)
	}
	if err != nil {
		fatal(err)
	}
	svc.Upstream = apps.UpstreamOptions{
		PoolSize:      *upSize,
		ProbeInterval: *probeIv,
	}
	svc.Topology = apps.TopologyOptions{
		Live:         *liveTop,
		BoundedLoadC: *loadC,
	}
	svc.Cache = apps.CacheOptions{
		Enable:      *cacheOn,
		TTL:         *cacheTT,
		MaxBytes:    *cacheMB,
		StaleTTL:    *cacheSW,
		NegativeTTL: *cacheNG,
	}

	p := core.NewPlatform(core.Config{Workers: *workers})
	defer p.Close()
	deployed, err := svc.Deploy(p, *listen, backends)
	if err != nil {
		fatal(err)
	}
	defer deployed.Close()
	fmt.Printf("flickrun: %s serving on %s (%d workers, %d tasks per graph)\n",
		svc.Name, deployed.Addr(), *workers, len(svc.Graph.Template.Nodes()))

	if m := deployed.Upstreams(); m != nil {
		fmt.Printf("flickrun: shared upstream pool enabled, %d shard(s), one per worker\n", m.Shards())
		if *probeIv > 0 {
			fmt.Printf("flickrun: health probes every %v\n", *probeIv)
		}
	}
	if cc := deployed.ResponseCache(); cc != nil {
		fmt.Println("flickrun: response cache enabled (hit ratio in admin GET /topology, counters in /counters)")
	}
	if *reqlog > 0 {
		deployed.Latency().SetReqLog(*reqlog)
		fmt.Printf("flickrun: logging every %dth request's latency\n", *reqlog)
	}

	ctl := apps.NewControl(svc, deployed, p)
	if *adminAd != "" {
		srv, aerr := ctl.ServeAdmin(*adminAd)
		if aerr != nil {
			fatal(aerr)
		}
		defer srv.Close()
		fmt.Printf("flickrun: admin API on http://%s (GET/PUT /topology, GET /counters, GET /latency, GET /healthz)\n", srv.Addr())
	}

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	notify := func(list []topology.Backend, uerr error) {
		if uerr != nil {
			fmt.Fprintf(os.Stderr, "flickrun: topology update: %v\n", uerr)
			return
		}
		fmt.Printf("flickrun: topology updated: %d backends %v\n", len(list), topology.Addrs(list))
		if m := deployed.Upstreams(); m != nil {
			fmt.Printf("flickrun: upstream: %d sockets, %s\n", m.Conns(), m.Counters())
		}
	}
	onSourceError := func(serr error) {
		fmt.Fprintf(os.Stderr, "flickrun: topology source: %v\n", serr)
	}

	if *liveTop {
		// SIGHUP → File source trigger: the legacy re-read-on-signal
		// behaviour as a thin adapter over the one update path.
		if *topFile != "" {
			hup := make(chan os.Signal, 1)
			signal.Notify(hup, syscall.SIGHUP)
			trigger := make(chan struct{}, 1)
			go func() {
				for range hup {
					select {
					case trigger <- struct{}{}:
					default:
					}
				}
			}()
			src := topology.File{Path: *topFile, Trigger: trigger, OnError: onSourceError}
			go func() {
				if ferr := ctl.Follow(ctx, src, notify); ferr != nil {
					fmt.Fprintf(os.Stderr, "flickrun: topology file source: %v\n", ferr)
				}
			}()
			fmt.Printf("flickrun: live topology: %d/%d backends bound; SIGHUP re-reads %s\n",
				len(backends), capacity, *topFile)
		} else {
			fmt.Printf("flickrun: live topology: %d/%d backends bound (no -topology-file; update via admin PUT /topology)\n",
				len(backends), capacity)
		}
		if *pollURL != "" {
			src := topology.Poll{URL: *pollURL, Interval: *pollIv, OnError: onSourceError}
			go func() {
				if ferr := ctl.Follow(ctx, src, notify); ferr != nil {
					fmt.Fprintf(os.Stderr, "flickrun: topology poll source: %v\n", ferr)
				}
			}()
			fmt.Printf("flickrun: following topology at %s every %v\n", *pollURL, *pollIv)
		}
	}

	sig := make(chan os.Signal, 2)
	signal.Notify(sig, os.Interrupt)
	<-sig
	if *memProf != "" {
		if err := writeHeapProfile(*memProf); err != nil {
			fmt.Fprintf(os.Stderr, "flickrun: memprofile: %v\n", err)
		}
	}
	if m := deployed.Upstreams(); m != nil {
		fmt.Printf("\nflickrun: upstream pool: %d sockets, %s\n", m.Conns(), m.Counters())
	}
	if cc := deployed.ResponseCache(); cc != nil {
		fmt.Printf("\nflickrun: response cache: hit ratio %.3f, %d bytes resident, %s\n",
			cc.HitRatio(), cc.BytesResident(), cc.Counters())
	}
	fmt.Println("\nflickrun: latency:")
	for _, h := range ctl.Latency() {
		fmt.Printf("  %-16s %s\n", h.Name, h.Latency)
	}
	fmt.Println("\nflickrun: shutting down")
}

// startCPUProfile starts profiling the process's CPU into path and returns
// the function that stops the profile and closes the file.
func startCPUProfile(path string) (stop func(), err error) {
	f, err := os.Create(path)
	if err != nil {
		return nil, err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return nil, fmt.Errorf("cpuprofile: %w", err)
	}
	return func() {
		pprof.StopCPUProfile()
		if err := f.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "flickrun: cpuprofile: %v\n", err)
		}
	}, nil
}

func fatal(err error) {
	fmt.Fprintf(os.Stderr, "flickrun: %v\n", err)
	os.Exit(1)
}
