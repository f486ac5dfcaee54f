package main

import (
	"bytes"
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"sync"
	"time"

	"flick/benchmark/layers"
	"flick/benchmark/loadgen"
)

// harness holds what every workload run shares.
type harness struct {
	bin     string        // the flickrun binary under test
	cpus    string        // CPU list the proxy is confined to ("": any)
	seed    int64         // request streams are a function of it
	rep     time.Duration // length of one timed repetition
	warm    time.Duration // warm-up before the first repetition
	corrupt bool          // origins flip a byte (the self-test's fault case)
	outDir  string        // where trace files go
	// replayMsgs is how many of the stream's messages the layer replay
	// takes.
	replayMsgs int
}

// stat is the median of a metric's repetitions with their spread.
type stat struct {
	Value   float64   `json:"value"`
	Min     float64   `json:"min"`
	Max     float64   `json:"max"`
	N       int       `json:"n"`
	Samples []float64 `json:"samples"`
}

func newStat(samples []float64) stat {
	s := slices.Clone(samples)
	slices.Sort(s)
	return stat{Value: median(s), Min: s[0], Max: s[len(s)-1], N: len(s), Samples: samples}
}

// median of a sorted slice.
func median(s []float64) float64 {
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// workloadResult is everything measured for one workload.
type workloadResult struct {
	Why        string              `json:"why"`
	EndToEnd   map[string]stat     `json:"end_to_end,omitempty"`
	PerLayer   map[string]*float64 `json:"per_layer,omitempty"` // null: the program no longer exports the counter
	Attempted  uint64              `json:"attempted"`
	Failed     uint64              `json:"failed"`
	FailByKind map[string]uint64   `json:"fail_by_kind,omitempty"`
	FailRatio  float64             `json:"fail_ratio"`
	// LatencySamples is the number of exact latency samples behind each
	// repetition's p50 and p99.
	LatencySamples []int                `json:"latency_samples_per_rep,omitempty"`
	Spans          []layers.SpanSummary `json:"trace_summary,omitempty"`
	// Quiesced is the admin API's raw counter reading once the traced
	// proxy had no client left: the inputs of the _per_req figures.
	Quiesced map[string]map[string]float64 `json:"admin_counters_quiesced,omitempty"`
	// ChildSelfShare is the share of root-span time the child spans' self
	// times account for in the layer replay.
	ChildSelfShare float64 `json:"trace_child_self_share,omitempty"`
}

func (r *workloadResult) count(w *window) {
	r.Attempted += w.attempted
	for k, n := range w.fail {
		if n > 0 {
			r.Failed += n
			r.FailByKind[loadgen.FailKind(k).String()] += n
		}
	}
	r.FailRatio = float64(r.Failed) / float64(max(r.Attempted, 1))
}

// window is what the clients saw in one timed run.
type window struct {
	attempted, verified, inWindow uint64
	fail                          [loadgen.NumFailKinds]uint64
	ownReads, staleReads          uint64
	lat                           []uint32 // sorted, every connection's samples
	seconds                       float64
}

func (w *window) rate() float64 { return float64(w.inWindow) / w.seconds }

// quantileUs is the q-quantile of the window's latency samples, in µs.
func (w *window) quantileUs(q float64) float64 {
	if len(w.lat) == 0 {
		return math.NaN()
	}
	return float64(w.lat[min(int(q*float64(len(w.lat))), len(w.lat)-1)]) / 1e3
}

// load is the client side of one stage: the connections, which keep their
// place in their streams from one run to the next.
type load struct {
	conns []loadgen.Conn
	res   []loadgen.Result
	lat   []uint32
}

// run drives every connection for d and merges what they saw.
func (l *load) run(d time.Duration) window {
	until := time.Now().Add(d)
	var wg sync.WaitGroup
	for i, c := range l.conns {
		l.res[i] = loadgen.Result{Lat: l.res[i].Lat[:0]}
		wg.Add(1)
		go func() {
			defer wg.Done()
			c.Run(until, &l.res[i])
		}()
	}
	wg.Wait()
	w := window{seconds: d.Seconds(), lat: l.lat[:0]}
	for i := range l.res {
		r := &l.res[i]
		w.attempted += r.Attempted
		w.verified += r.Verified
		w.inWindow += r.InWindow
		w.ownReads += r.OwnReads
		w.staleReads += r.StaleReads
		for k := range r.Fail {
			w.fail[k] += r.Fail[k]
		}
		w.lat = append(w.lat, r.Lat...)
	}
	slices.Sort(w.lat)
	l.lat = w.lat
	return w
}

func (l *load) close() {
	for _, c := range l.conns {
		c.Close()
	}
}

// stage is one measurement set-up: fresh origins, optionally a fresh proxy
// in front of them, and the clients. Origins are never shared between
// stages: a SET left behind by one would look like a value from the future
// to the next stage's clients.
type stage struct {
	origins []*loadgen.Origin
	addrs   []string
	px      *proxy
	ld      *load
	setup   []float64 // exec → first verified response, seconds, one per exec
}

// newStage starts origins and, when execs > 0, the proxy — execs times,
// keeping the last — then checks byte identity and connects the clients
// (to the proxy, or straight to the origins when there is none).
func (h *harness) newStage(w *workload, execs int, admin bool) (*stage, error) {
	st := &stage{}
	if err := h.start(st, w, execs, admin); err != nil {
		st.close()
		return nil, err
	}
	return st, nil
}

func (h *harness) start(st *stage, w *workload, execs int, admin bool) error {
	for i := 0; i < originCount; i++ {
		o, err := loadgen.StartOrigin(w.Traffic, h.corrupt)
		if err != nil {
			return err
		}
		st.origins = append(st.origins, o)
		st.addrs = append(st.addrs, o.Addr())
	}
	t := w.Traffic
	keys := t.KeyTable()
	if execs > 0 {
		probe := t.AppendRequest(nil, keys[0], false, 0, 0)
		want, err := t.Exchange(st.addrs[0], probe, time.Second)
		if err != nil {
			return fmt.Errorf("%s: origin probe: %w", w.Name, err)
		}
		for i := 0; i < execs; i++ {
			if st.px != nil {
				st.px.stop()
			}
			var d time.Duration
			if st.px, d, err = startProxy(h.bin, h.cpus, w, st.addrs, admin, probe, want); err != nil {
				return err
			}
			st.setup = append(st.setup, d.Seconds())
		}
		// Byte identity: what comes through the proxy must be what the
		// origin sent, byte for byte.
		for i := 0; i < 8; i++ {
			req := t.AppendRequest(nil, keys[i*t.Keys/8], false, 0, uint32(i+1))
			direct, err1 := t.Exchange(st.addrs[0], req, time.Second)
			proxied, err2 := t.Exchange(st.px.addr, req, time.Second)
			if err1 != nil || err2 != nil {
				return fmt.Errorf("%s: byte-identity probe %d: origin: %v, proxy: %v", w.Name, i, err1, err2)
			}
			if !bytes.Equal(direct, proxied) {
				return fmt.Errorf("%s: byte-identity probe %d: the proxy's %d bytes differ from the origin's %d", w.Name, i, len(proxied), len(direct))
			}
		}
	}
	st.ld = &load{res: make([]loadgen.Result, clientConns)}
	perConn := int(h.rep.Seconds()*300_000) + 10_000
	st.ld.lat = make([]uint32, 0, clientConns*perConn)
	for i := 0; i < clientConns; i++ {
		addr := st.addrs[i%len(st.addrs)]
		if st.px != nil {
			addr = st.px.addr
		}
		c, err := loadgen.Dial(addr, t, keys, t.Ops(h.seed, i, clientConns, streamOps), i, clientConns)
		if err != nil {
			return fmt.Errorf("%s: dial %s: %w", w.Name, addr, err)
		}
		st.ld.conns = append(st.ld.conns, c)
		st.ld.res[i].Lat = make([]uint32, 0, perConn)
	}
	return nil
}

func (st *stage) close() {
	if st.ld != nil {
		st.ld.close()
	}
	if st.px != nil {
		st.px.stop()
	}
	for _, o := range st.origins {
		o.Close()
	}
}

// run drives the stage's clients for d and adds what they attempted and
// what failed to r: every request the benchmark sends is verified and
// counted, timed window or not.
func (st *stage) run(d time.Duration, r *workloadResult) window {
	w := st.ld.run(d)
	r.count(&w)
	return w
}

func (st *stage) originRequests() uint64 {
	var n uint64
	for _, o := range st.origins {
		n += o.Requests()
	}
	return n
}

// untraced is the end-to-end measurement: set-up time over several execs,
// warm-up, then the timed repetitions on the same connections, with the
// proxy's CPU and memory read from /proc.
func (h *harness) untraced(w *workload, r *workloadResult) error {
	st, err := h.newStage(w, 1+repetitions*setupExecs, false)
	if err != nil {
		return err
	}
	defer st.close()
	st.run(h.warm, r)

	var rate, p50, cpu []float64
	for i := 0; i < repetitions; i++ {
		c0, err := st.px.cpu()
		if err != nil {
			return err
		}
		win := st.run(h.rep, r)
		c1, err := st.px.cpu()
		if err != nil {
			return fmt.Errorf("%s: proxy gone after repetition %d: %w", w.Name, i, err)
		}
		if win.verified == 0 {
			continue // nothing to time; the failure counts carry the verdict
		}
		rate = append(rate, win.rate())
		p50 = append(p50, win.quantileUs(0.50))
		cpu = append(cpu, float64((c1-c0).Microseconds())/float64(win.verified))
		r.LatencySamples = append(r.LatencySamples, len(win.lat))
	}
	// Set-up time, like the rest, as repetitions: the first exec pays for
	// a cold page cache and is dropped; each repetition is the median of
	// the next setupExecs execs.
	var setups []float64
	for g := st.setup[1:]; len(g) >= setupExecs; g = g[setupExecs:] {
		s := slices.Clone(g[:setupExecs])
		slices.Sort(s)
		setups = append(setups, median(s))
	}
	rss, err := st.px.rssHWMMiB()
	if err != nil {
		return err
	}
	if len(rate) == 0 {
		return nil
	}
	r.EndToEnd = map[string]stat{
		"setup_s":        newStat(setups),
		"req_per_s":      newStat(rate),
		"p50_us":         newStat(p50),
		"cpu_us_per_req": newStat(cpu),
		"rss_mb":         newStat([]float64{rss}),
	}
	return nil
}

// traced is the per-layer measurement: the loopback floor with no proxy, an
// untraced reference window, the same window with the admin API scraped
// around it, connection set-up, and the layer replay against the origins.
func (h *harness) traced(w *workload, r *workloadResult) error {
	m := map[string]float64{} // NaN: the counter is missing

	// The floor: the same clients straight at the origins.
	st, err := h.newStage(w, 0, false)
	if err != nil {
		return err
	}
	st.run(h.warm/4, r)
	floor := st.run(h.rep/2, r)
	st.close()
	m["netstack.loopback_rtt_p50_us"] = floor.quantileUs(0.50)

	// Reference: this stage's own untraced window, same length.
	if st, err = h.newStage(w, 1, false); err != nil {
		return err
	}
	st.run(h.warm/2, r)
	ref := st.run(h.rep, r)
	st.close()

	if st, err = h.newStage(w, 1, true); err != nil {
		return err
	}
	defer st.close()
	st.run(h.warm/2, r)
	s0, err := st.px.scrape()
	if err != nil {
		return err
	}
	o0 := st.originRequests()
	win := st.run(h.rep, r)
	s1, err := st.px.scrape()
	if err != nil {
		return err
	}
	o1 := st.originRequests()
	if win.verified == 0 {
		return fmt.Errorf("%s: traced window verified no response (failures %v)", w.Name, r.FailByKind)
	}
	m["trace.overhead_pct"] = 100 * (ref.rate() - win.rate()) / ref.rate()

	// Connection set-up: sequential fresh connections, each to its first
	// response.
	t := w.Traffic
	probe := t.AppendRequest(nil, t.AppendKey(nil, 0), false, 0, 0)
	setups := make([]float64, connSetupRuns)
	for i := range setups {
		t0 := time.Now()
		if _, err := t.Exchange(st.px.addr, probe, time.Second); err != nil {
			return fmt.Errorf("%s: connection set-up %d: %w", w.Name, i, err)
		}
		setups[i] = float64(time.Since(t0).Nanoseconds()) / 1e3
	}
	slices.Sort(setups)
	m["core.conn_setup_p50_us"] = median(setups)

	// Quiesce: no client connection, nothing in flight.
	st.ld.close()
	time.Sleep(100 * time.Millisecond)
	s2, err := st.px.scrape()
	if err != nil {
		return err
	}
	r.Quiesced = s2.Counters
	scraped(m, w, s0, s1, s2, &win, float64(o1-o0))
	m["netstack.client_minus_live_p50_us"] = win.quantileUs(0.50) - m["core.live_total_p50_us"]
	m["apps.added_p50_us"] = win.quantileUs(0.50) - m["netstack.loopback_rtt_p50_us"]
	m["apps.client_p99_us"] = win.quantileUs(0.99)
	st.px.stop()

	lm, tr, err := layers.Replay(layers.Config{Traffic: t, Cache: w.Cache, CacheMaxBytes: w.CacheMaxBytes,
		Seed: h.seed, Messages: h.replayMsgs, Origins: st.addrs})
	if err != nil {
		return fmt.Errorf("%s: %w", w.Name, err)
	}
	for k, v := range lm {
		m[k] = v
	}
	r.Spans, r.ChildSelfShare = tr.Summary()
	if err := tr.WriteFile(filepath.Join(h.outDir, "trace-"+w.Name+".json"), w.Name); err != nil {
		return err
	}

	r.PerLayer = map[string]*float64{}
	for k, v := range m {
		if math.IsNaN(v) {
			r.PerLayer[k] = nil
		} else {
			r.PerLayer[k] = &v
		}
	}
	return nil
}

// scraped derives the per-layer metrics that come from the admin API: s0
// and s1 bracket the traced window win, s2 was read once the proxy had
// quiesced. A counter the program does not export (any more) yields NaN.
func scraped(m map[string]float64, w *workload, s0, s1, s2 *scrape, win *window, originReqs float64) {
	reqs := float64(win.verified)
	delta := func(set, key string) float64 {
		a, ok0 := s0.counter(set, key)
		b, ok1 := s1.counter(set, key)
		if !ok0 || !ok1 {
			return math.NaN()
		}
		return b - a
	}
	last := func(set, key string) float64 {
		if v, ok := s2.counter(set, key); ok {
			return v
		}
		return math.NaN()
	}
	latUs := func(dim, q string) float64 {
		if v, ok := s1.Latency[dim][q]; ok {
			return v / 1e3
		}
		return math.NaN()
	}
	perReq := func(prefix, set string, keys ...string) {
		for _, k := range keys {
			m[prefix+k+"_per_req"] = delta(set, k) / reqs
		}
	}
	perReq("core.sched_", "sched", "executed", "stolen", "parks", "wakeups", "overflow")
	m["core.live_total_p50_us"] = latUs("total", "p50")
	m["core.live_total_p99_us"] = latUs("total", "p99")

	m["buffer.pool_gets_per_req"] = delta("pool", "gets") / reqs
	m["buffer.pool_misses_per_req"] = delta("pool", "misses") / reqs
	perReq("buffer.", "pool", "oversized", "views", "coalesced")
	// Regions still out once quiesced, less the ones that are pinned by
	// design: one read region per live upstream socket and one per
	// resident cache entry (resident bytes ÷ the size of a GET response).
	// What is left is a leak.
	pinned := last("upstream", "dials") + last("upstream", "redials") - last("upstream", "drained")
	if w.Cache {
		getLen := len(w.Traffic.AppendResponse(nil, w.Traffic.AppendKey(nil, 0), false, 0))
		pinned += math.Round(last("cache", "bytes") / float64(getLen))
	}
	m["buffer.ref_leak"] = last("pool", "refgets") - last("pool", "refputs") - pinned

	m["upstream.rtt_p50_us"] = latUs("upstream", "p50")
	m["upstream.rtt_p99_us"] = latUs("upstream", "p99")
	for _, k := range []string{"dials", "redials", "failfast"} {
		m["upstream."+k] = last("upstream", k)
	}
	perReq("upstream.", "upstream", "shardsteals")
	m["upstream.reqs_per_client_req"] = originReqs / reqs

	cacheKeys := []string{"cache.hit_ratio", "cache.coalesced_ratio", "cache.fills_per_req", "cache.evictions_per_req",
		"cache.invalidations_per_req", "cache.expired_per_req", "cache.aborts_per_req", "cache.hit_p50_us",
		"cache.hit_p99_us", "cache.miss_p50_us", "cache.miss_p99_us", "cache.bytes_resident_mb", "cache.stale_read_ratio",
		"cache.get_hit_ns_per_op", "cache.get_hit_allocs_per_op", "cache.miss_fill_ns_per_op", "cache.invalidate_ns_per_op"}
	if !w.Cache {
		// The workload runs with the cache off: the layer does no work.
		for _, k := range cacheKeys {
			m[k] = 0
		}
		return
	}
	hits, misses := delta("cache", "hits"), delta("cache", "misses")
	m["cache.hit_ratio"] = hits / (hits + misses)
	m["cache.coalesced_ratio"] = delta("cache", "coalesced") / math.Max(misses, 1)
	perReq("cache.", "cache", "fills", "evictions", "invalidations", "expired", "aborts")
	m["cache.hit_p50_us"], m["cache.hit_p99_us"] = latUs("cache_hit", "p50"), latUs("cache_hit", "p99")
	m["cache.miss_p50_us"], m["cache.miss_p99_us"] = latUs("cache_miss", "p50"), latUs("cache_miss", "p99")
	m["cache.bytes_resident_mb"] = last("cache", "bytes") / (1 << 20)
	m["cache.stale_read_ratio"] = float64(win.staleReads) / float64(max(win.ownReads, 1))
}
