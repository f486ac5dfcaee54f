// Package layers replays a workload's own generated messages through each
// layer's public functions, one goroutine, recording a span around every
// call. It is the only part of the benchmark that imports flick/internal:
// what it measures is the code under test, so a change to a layer moves
// these numbers — and nothing in loadgen.
package layers

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"time"

	"flick/benchmark/loadgen"
	"flick/internal/apps"
	"flick/internal/backend"
	"flick/internal/buffer"
	"flick/internal/cache"
	"flick/internal/core"
	"flick/internal/grammar"
	"flick/internal/netstack"
	phttp "flick/internal/proto/http"
	"flick/internal/proto/memcache"
	"flick/internal/upstream"
	"flick/internal/value"
)

// Config says what to replay and against what.
type Config struct {
	Traffic loadgen.Traffic
	// Cache replays through internal/cache with this byte budget
	// (0: the cache's default), as the workload's flickrun flags do.
	Cache         bool
	CacheMaxBytes int64
	Seed          int64
	// Messages is the number of requests replayed from connection 0's
	// stream.
	Messages int
	// Origins are the harness origins: the ring is built over all of
	// them, upstream round trips go to the first.
	Origins []string
}

// format is what a protocol needs to be decoded, encoded and framed.
type format interface {
	grammar.WireFormat
	grammar.ScatterEncoder
}

// proto binds the replay to one wire protocol's packages.
type proto struct {
	req, resp  format
	keyField   string
	cache      cache.Protocol
	reqFramer  upstream.RequestFramer
	respFramer upstream.ResponseFramer
	build      func(backends int) (*apps.Service, error)
}

func protoOf(p loadgen.Proto) proto {
	if p == loadgen.HTTP {
		return proto{req: phttp.RequestFormat{}, resp: phttp.ResponseFormat{}, keyField: "uri",
			cache: cache.HTTPGet{}, reqFramer: phttp.FrameRequestLen, respFramer: phttp.FrameResponseLen,
			build: apps.HTTPLoadBalancer}
	}
	return proto{req: memcache.Codec, resp: memcache.Codec, keyField: "key",
		cache: cache.Memcached{}, reqFramer: memcache.FrameRequestLen, respFramer: memcache.FrameResponseLen,
		build: apps.MemcachedProxy}
}

// message is one generated request with the origin's answer to it.
type message struct {
	req     []byte
	respLen int
	key     []byte
	set     bool
}

type replay struct {
	cfg  Config
	p    proto
	msgs []message

	pool   *buffer.Pool
	reqQ   *buffer.Queue
	respQ  *buffer.Queue
	reqDec grammar.StreamDecoder
	rspDec grammar.StreamDecoder
	sc     *buffer.Scatter
	ring   *backend.Ring
	cc     *cache.Cache
	sess   *upstream.Session
	ready  chan struct{}
	// giveUp bounds the whole replay: one timer, so a round trip arms none.
	giveUp <-chan time.Time

	scratch []byte
	sink    int
	st      stamper
}

// Replay runs the span pipeline and the per-layer loops, and returns the
// per-layer metrics by name with the trace.
func Replay(cfg Config) (map[string]float64, *Trace, error) {
	if cfg.Messages <= 0 || len(cfg.Origins) == 0 {
		return nil, nil, errors.New("layers: need messages and at least one origin")
	}
	if cfg.Cache && cfg.Traffic.Proto != loadgen.Memcached {
		return nil, nil, errors.New("layers: the cache replay speaks memcached only")
	}
	r := &replay{cfg: cfg, p: protoOf(cfg.Traffic.Proto), pool: buffer.NewPool(64), ready: make(chan struct{}, 1)}
	r.generate()
	r.reqQ, r.respQ = buffer.NewQueue(r.pool), buffer.NewQueue(r.pool)
	r.reqDec, r.rspDec = r.p.req.NewDecoder(), r.p.resp.NewDecoder()
	r.sc = buffer.NewScatter(r.pool)
	r.ring = backend.NewRing(cfg.Origins, 0)
	m, tr, err := r.run()
	if err != nil {
		return nil, nil, err
	}
	if s := r.pool.Stats(); s.RefGets != s.RefPuts {
		return nil, nil, fmt.Errorf("layers: replay leaked pooled regions: %d handed out, %d recycled", s.RefGets, s.RefPuts)
	}
	return m, tr, nil
}

// run holds the upstream session for the length of the replay.
func (r *replay) run() (map[string]float64, *Trace, error) {
	up := upstream.NewManager(upstream.Config{Transport: netstack.KernelTCP{}, Pool: r.pool, Size: 1, Shards: 1,
		RequestFramer: r.p.reqFramer, ResponseFramer: r.p.respFramer})
	defer up.Close()
	sess, err := up.LeaseOn(r.cfg.Origins[0], 0)
	if err != nil {
		return nil, nil, fmt.Errorf("layers: lease: %w", err)
	}
	defer sess.Close()
	r.sess = sess
	r.giveUp = time.After(2 * time.Minute)
	sess.SetReadableCallback(func() {
		select {
		case r.ready <- struct{}{}:
		default:
		}
	})

	tr := &Trace{Spans: make([]Span, 0, r.cfg.Messages*numSpans)}
	if r.cfg.Cache {
		r.cc = r.newCache()
		defer r.cc.Close()
	}
	for i := range r.msgs {
		if err := r.request(i); err != nil {
			return nil, nil, fmt.Errorf("layers: request %d: %w", i, err)
		}
		tr.add(i, &r.st)
	}
	m := map[string]float64{}
	if err := r.loops(m); err != nil {
		return nil, nil, err
	}
	return m, tr, nil
}

func (r *replay) newCache() *cache.Cache {
	return cache.New(cache.Config{Proto: r.p.cache, Workers: 2, MaxBytes: r.cfg.CacheMaxBytes})
}

// generate renders connection 0's first Messages requests exactly as the
// load generator would send them.
func (r *replay) generate() {
	t := r.cfg.Traffic
	keys := t.KeyTable()
	versions := map[uint32]uint32{}
	getLen := len(t.AppendResponse(nil, keys[0], false, 0))
	setLen := len(t.AppendResponse(nil, keys[0], true, 0))
	for i, op := range t.Ops(r.cfg.Seed, 0, 2, r.cfg.Messages) {
		var v uint32
		if op.Set {
			versions[op.Key]++
			v = versions[op.Key]
		}
		m := message{req: t.AppendRequest(nil, keys[op.Key], op.Set, v, uint32(i)), respLen: getLen, key: keys[op.Key], set: op.Set}
		if op.Set {
			m.respLen = setLen
		}
		r.msgs = append(r.msgs, m)
	}
}

// decode lands wire in a pooled region, as a socket read would, and decodes
// the one message it holds.
func (r *replay) decode(q *buffer.Queue, dec grammar.StreamDecoder, wire []byte) (value.Value, error) {
	ref := r.pool.GetRef(len(wire))
	copy(ref.Bytes(), wire)
	q.AppendRef(ref, len(wire))
	return r.decodeQueued(q, dec)
}

func (r *replay) decodeQueued(q *buffer.Queue, dec grammar.StreamDecoder) (value.Value, error) {
	msg, ok, err := dec.Decode(q)
	if err != nil {
		return value.Null, err
	}
	if !ok {
		return value.Null, errors.New("incomplete message")
	}
	return msg, nil
}

// roundTrip writes one request on the leased session and moves the framed
// response, by reference, into the response queue.
func (r *replay) roundTrip(m *message) error {
	if _, err := r.sess.Write(m.req); err != nil {
		return err
	}
	for got := 0; got < m.respLen; {
		n, err := r.sess.TryReadRefs(r.respQ)
		if err != nil {
			return err
		}
		if got += n; n == 0 {
			select {
			case <-r.ready:
			case <-r.giveUp:
				return errors.New("origin did not answer before the replay's deadline")
			}
		}
	}
	return nil
}

func (r *replay) encode(msg value.Value) error {
	var err error
	r.scratch, err = r.p.resp.EncodeScatter(r.sc, r.scratch, msg)
	r.sink += r.sc.Len()
	r.sc.Reset()
	return err
}

// request takes message i through the layers in the order the proxy does:
// decode, route, cache verdict, and on a miss the upstream round trip,
// response decode and cache fill; then the response is encoded for the
// client.
func (r *replay) request(i int) error {
	m, s := &r.msgs[i], &r.st
	s.start()
	req, err := r.decode(r.reqQ, r.reqDec, m.req)
	if err != nil {
		return err
	}
	defer req.Release()
	s.mark(spanDecode)

	r.sink += r.ring.Route(backend.KeyHash(req.Field(r.p.keyField).AsBytes()))
	s.mark(spanRoute)

	resp := value.Null
	var flight *cache.Flight
	if r.cc != nil {
		switch info := r.p.cache.Request(req); info.Class {
		case cache.ClassInvalidate:
			r.cc.Invalidate(info.Scope, info.Key)
		case cache.ClassLookup:
			if v, ok, _ := r.cc.Get(0, info); ok {
				resp = v
			} else {
				flight, _ = r.cc.Begin(info, cache.Waiter{})
			}
		}
		s.mark(spanCacheGet)
	}
	if resp.IsNull() {
		if err := r.roundTrip(m); err != nil {
			return err
		}
		s.mark(spanRoundTrip)
		if resp, err = r.decodeQueued(r.respQ, r.rspDec); err != nil {
			return err
		}
		s.mark(spanDecodeResp)
		if flight != nil {
			flight.Fill(resp.Field("_raw").AsBytes(), r.p.cache.Response(resp))
			s.mark(spanCacheFill)
		}
	}
	defer resp.Release()
	err = r.encode(resp)
	s.mark(spanEncode)
	return err
}

// measure times n calls of fn and counts the heap allocations they make.
func measure(n int, fn func(i int)) (nsPerOp, allocsPerOp float64) {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	t0 := time.Now()
	for i := 0; i < n; i++ {
		fn(i)
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&m1)
	return float64(d.Nanoseconds()) / float64(n), float64(m1.Mallocs-m0.Mallocs) / float64(n)
}

// loops measures each layer alone, in a tight loop over the same messages:
// one clock pair around the whole loop, so the per-call figures carry no
// clock-reading cost.
func (r *replay) loops(m map[string]float64) error {
	n := len(r.msgs)
	var failed error
	fail := func(err error) {
		if err != nil && failed == nil {
			failed = err
		}
	}

	// The origin's answers, for the loops that need a response without a
	// round trip; bounded so 64 KiB bodies do not cost a gigabyte.
	t := r.cfg.Traffic
	resps := make([][]byte, min(n, max(16, (16<<20)/r.msgs[0].respLen)))
	for i := range resps {
		resps[i] = t.AppendResponse(nil, r.msgs[i].key, r.msgs[i].set, uint32(i))
	}

	m["proto.req_decode_ns_per_msg"], m["proto.req_decode_allocs_per_msg"] = measure(n, func(i int) {
		msg, err := r.decode(r.reqQ, r.reqDec, r.msgs[i].req)
		fail(err)
		msg.Release()
	})
	m["proto.resp_decode_ns_per_msg"], m["proto.resp_decode_allocs_per_msg"] = measure(n, func(i int) {
		msg, err := r.decode(r.respQ, r.rspDec, resps[i%len(resps)])
		fail(err)
		msg.Release()
	})
	if failed != nil {
		return fmt.Errorf("layers: decode loop: %w", failed)
	}

	// Encode: decode a batch outside the clock, encode it inside.
	const batch = 256
	held := make([]value.Value, 0, batch)
	var encNs float64
	for done := 0; done < n; done += len(held) {
		held = held[:0]
		for i := done; i < min(done+batch, n); i++ {
			msg, err := r.decode(r.respQ, r.rspDec, resps[i%len(resps)])
			if err != nil {
				return fmt.Errorf("layers: encode loop: %w", err)
			}
			held = append(held, msg)
		}
		ns, _ := measure(len(held), func(i int) { fail(r.encode(held[i])) })
		encNs += ns * float64(len(held))
		for _, msg := range held {
			msg.Release()
		}
	}
	m["proto.encode_ns_per_msg"] = encNs / float64(n)

	m["backend.route_ns_per_op"], _ = measure(n, func(i int) {
		r.sink += r.ring.Route(backend.KeyHash(r.msgs[i].key))
	})

	if r.cfg.Cache {
		r.cacheLoops(m, resps)
	}

	// Upstream: write + framed read on a leased session against the
	// harness origin, GETs only (a SET makes the origin allocate).
	gets := make([]*message, 0, n)
	for i := range r.msgs {
		if !r.msgs[i].set {
			gets = append(gets, &r.msgs[i])
		}
	}
	rtts := make([]int64, min(len(gets), 5000))
	_, m["upstream.lease_roundtrip_allocs_per_op"] = measure(len(rtts), func(i int) {
		t0 := now()
		fail(r.roundTrip(gets[i]))
		rtts[i] = now() - t0
		r.respQ.Discard(r.respQ.Len())
	})
	slices.Sort(rtts)
	m["upstream.lease_roundtrip_p50_us"] = float64(rtts[len(rtts)/2]) / 1e3

	m["core.sched_handoff_ns_per_op"] = schedHandoff(n)

	size := len(r.msgs[0].req)
	m["buffer.pool_getput_ns_per_op"], _ = measure(n, func(int) { r.pool.Put(r.pool.Get(size)) })
	m["buffer.queue_append_take_ns_per_msg"], _ = measure(n, func(i int) {
		r.reqQ.Append(r.msgs[i].req)
		_, ref := r.reqQ.TakeRef(len(r.msgs[i].req))
		ref.Release()
	})

	builds := make([]float64, 5)
	for i := range builds {
		t0 := time.Now()
		_, err := r.p.build(len(r.cfg.Origins))
		fail(err)
		builds[i] = float64(time.Since(t0).Nanoseconds()) / 1e6
	}
	slices.Sort(builds)
	m["compiler.build_service_ms"] = builds[len(builds)/2]
	return failed
}

// cacheLoops measures the cache alone on the workload's keys: hits on
// resident entries, then leading miss + fill, then invalidation.
func (r *replay) cacheLoops(m map[string]float64, resps [][]byte) {
	n := len(r.msgs)
	infoOf := func(i int) (cache.ReqInfo, []byte) {
		j := i % len(resps)
		return cache.ReqInfo{Class: cache.ClassLookup, Key: r.msgs[j].key, Variant: memcache.OpGet,
			Tag: uint64(j), HasTag: true}, resps[j]
	}
	fill := func(c *cache.Cache, i int) {
		info, raw := infoOf(i)
		if r.msgs[i%len(resps)].set {
			return // a SET's acknowledgement is not a cacheable response
		}
		if f, leader := c.Begin(info, cache.Waiter{}); leader && f != nil {
			f.Fill(raw, cache.RespInfo{Match: true, Admit: true, Variant: info.Variant, Tag: info.Tag, HasTag: true})
		}
	}

	// Hits: make a small set resident (well inside any byte budget), then
	// look those keys up.
	c := r.newCache()
	resident := make([]int, 0, 512)
	for i := 0; i < len(resps) && len(resident) < cap(resident); i++ {
		if !r.msgs[i].set {
			fill(c, i)
			resident = append(resident, i)
		}
	}
	m["cache.get_hit_ns_per_op"], m["cache.get_hit_allocs_per_op"] = measure(n, func(i int) {
		info, _ := infoOf(resident[i%len(resident)])
		if v, ok, _ := c.Get(i&1, info); ok {
			v.Release()
		} else {
			r.sink-- // a miss here would be a bug in the set-up; keep going
		}
	})
	c.Close()

	// Misses and fills under the workload's byte budget, so eviction is
	// part of the cost where the working set outgrows the cache.
	c = r.newCache()
	m["cache.miss_fill_ns_per_op"], _ = measure(n, func(i int) { fill(c, i) })
	m["cache.invalidate_ns_per_op"], _ = measure(n, func(i int) { c.Invalidate(nil, r.msgs[i].key) })
	c.Close()
}

// schedHandoff is NewTask + Schedule from outside the scheduler to the
// task's first run on a worker, averaged over n tasks.
func schedHandoff(n int) float64 {
	s := core.NewScheduler(2, core.Cooperative)
	s.Start()
	defer s.Stop()
	ran := make(chan int64, 1)
	var total int64
	for i := 0; i < n; i++ {
		t0 := now()
		s.Schedule(s.NewTask("handoff", func(*core.ExecCtx) core.RunResult {
			ran <- now()
			return core.RunDone
		}))
		total += <-ran - t0
	}
	return float64(total) / float64(n)
}
