package core

import (
	"fmt"
	"strings"
	"sync"
	"sync/atomic"

	"flick/internal/buffer"
	"flick/internal/grammar"
	"flick/internal/metrics"
	"flick/internal/netstack"
	"flick/internal/value"
)

// Instance is a runtime task graph stamped out of a Template: one Task per
// node, one Chan per edge, with input/output nodes bound to network
// connections through ports. Instances are reusable (Reset) to support the
// graph dispatcher's pre-allocated pool (§5: "The platform maintains a
// pre-allocated pool of task graphs to avoid the overhead of construction");
// one state word tracks each trip from pool to pool (see phase).
type Instance struct {
	tmpl  *Template
	sched *Scheduler

	tasks   []*Task   // by node ID
	wakes   []func()  // by node ID: schedules the task (a socket callback)
	nodeIn  [][]*Chan // per node: in-channels aligned with node.ins
	nodeOut [][]*Chan // per node: out-channels aligned with node.outs

	inputRT  []*inputState  // by node ID (inputs only)
	outputRT []*outputState // by node ID (outputs only)
	compRT   []*computeState

	conns []netstack.Conn // by port index
	// router is the backend-topology router snapshot bound with this
	// dispatch (nil: fixed topology, plain mod-B routing). Like conns it
	// is written between pool Get and Start and read by task bodies after
	// Start, so it needs no extra synchronisation; Reset clears it.
	router func(hash int64) int
	// crt (response cache) is installed once, when the pool builds the
	// instance (nil: uncached), and persists across Reset — only its
	// per-binding state clears.
	crt   *cacheRT
	pool  *GraphPool // where a finished instance goes (nil: NewInstance)
	id    int64
	state atomic.Uint64 // phase << 32 | live tasks; only transition writes it
}

// phase is an instance's place in its trip from pool to pool. The legal
// edges (the edges table) and who takes each:
//
//	idle     → bound     the binding's first Bind
//	bound    → idle      Reset: the dispatch failed before Start
//	bound    → running   Start
//	running  → draining  beginShutdown
//	running  → finished  the last task ends without a shutdown
//	draining → finished  the last task ends
//	finished → idle      Reset: back in the pool
//	running, draining → itself: one task ends
type phase uint32

const (
	phaseIdle phase = iota
	phaseBound
	phaseRunning
	phaseDraining
	phaseFinished
)

var phaseNames = [...]string{"idle", "bound", "running", "draining", "finished"}

func (p phase) String() string { return phaseNames[p] }

// edges[from] has bit to set for each legal edge from → to.
var edges = [...]uint8{
	phaseIdle:     1 << phaseBound,
	phaseBound:    1<<phaseIdle | 1<<phaseRunning,
	phaseRunning:  1<<phaseRunning | 1<<phaseDraining | 1<<phaseFinished,
	phaseDraining: 1<<phaseDraining | 1<<phaseFinished,
	phaseFinished: 1 << phaseIdle,
}

// transition is the one writer of the state word: it CASes old to phase to
// with live tasks, reporting false when another writer got there first. An
// edge outside the table, or a self-edge that is not one task ending, is a
// lifecycle bug and panics, as sync.WaitGroup does on a negative count.
func (inst *Instance) transition(old uint64, to phase, live uint32) bool {
	from := phase(old >> 32)
	if edges[from]&(1<<to) == 0 || (from == to && live != uint32(old)-1) {
		panic(fmt.Sprintf("core: illegal instance lifecycle edge %s → %s (live %d → %d)", from, to, uint32(old), live))
	}
	return inst.state.CompareAndSwap(old, uint64(to)<<32|uint64(live))
}

func (inst *Instance) phase() phase { return phase(inst.state.Load() >> 32) }

// bindingLive is the task bodies' gate, one atomic load: in any phase but
// running and draining a wakeup is stale (an earlier binding's callback).
func (inst *Instance) bindingLive() bool {
	p := inst.phase()
	return p == phaseRunning || p == phaseDraining
}

var instanceIDs atomic.Int64

// ID returns the instance's unique identifier (used by the language's
// instance_id() builtin, e.g. for per-connection backend affinity).
func (inst *Instance) ID() int64 { return inst.id }

// inputState is the runtime of one input node. Network bytes are read
// directly into pooled refcounted chunks and appended to the byte queue by
// reference; decoded messages are zero-copy views over those chunks, so no
// payload byte is copied between the socket and the task graph.
type inputState struct {
	mu   sync.Mutex
	q    *buffer.Queue
	eof  bool
	conn netstack.Conn
	dec  grammar.StreamDecoder
	port int
	raw  int     // the codec's "_raw" image slot (-1: none), for cache fills
	led  *ledger // a primary port's request ledger (nil: other ports); writer
}

// outputState is the runtime of one output node. Encoded messages
// accumulate in a pooled scatter list — raw-captured messages as zero-copy
// references into their region — and leave in batched vectored writes.
type outputState struct {
	inst *Instance
	conn netstack.Conn
	sc   *buffer.Scatter
	wbuf []byte // rebuild-path encode scratch
	port int
	led  *ledger // the input's ledger on a primary port (nil: other ports); reader
	// blocked: conn holds bytes of the last write (ErrBacklogged); the task
	// pops nothing until a retry sends them.
	blocked bool
}

// flushBytes is the scatter high-water mark that forces a flush mid-drain.
const flushBytes = 64 << 10

// computeState is the runtime of one compute node.
type computeState struct {
	edgeClosed []bool
	open       int
	// nctx is handed to every activation's body, so running the node
	// allocates nothing; its State is rebuilt per binding, its Scratch
	// survives Reset.
	nctx NodeCtx
}

// NewInstance builds a runtime graph. Validate the template first.
func NewInstance(tmpl *Template, sched *Scheduler) *Instance {
	inst := &Instance{
		tmpl:     tmpl,
		sched:    sched,
		id:       instanceIDs.Add(1),
		tasks:    make([]*Task, len(tmpl.nodes)),
		wakes:    make([]func(), len(tmpl.nodes)),
		nodeIn:   make([][]*Chan, len(tmpl.nodes)),
		nodeOut:  make([][]*Chan, len(tmpl.nodes)),
		inputRT:  make([]*inputState, len(tmpl.nodes)),
		outputRT: make([]*outputState, len(tmpl.nodes)),
		compRT:   make([]*computeState, len(tmpl.nodes)),
		conns:    make([]netstack.Conn, len(tmpl.ports)),
	}
	// Channels: one per edge, owned (as input) by the downstream node.
	type edge struct{ from, to int }
	chans := map[edge]*Chan{}
	for _, n := range tmpl.nodes {
		inst.nodeIn[n.ID] = make([]*Chan, len(n.ins))
		for i, from := range n.ins {
			ch := NewChan(64)
			chans[edge{from, n.ID}] = ch
			inst.nodeIn[n.ID][i] = ch
		}
	}
	for _, n := range tmpl.nodes {
		inst.nodeOut[n.ID] = make([]*Chan, len(n.outs))
		for i, to := range n.outs {
			inst.nodeOut[n.ID][i] = chans[edge{n.ID, to}]
		}
	}
	// Tasks.
	for _, n := range tmpl.nodes {
		n := n
		var body TaskFunc
		switch n.Kind {
		case NodeInput:
			body = func(ctx *ExecCtx) RunResult { return inst.runInput(ctx, n) }
		case NodeOutput:
			body = func(ctx *ExecCtx) RunResult { return inst.runOutput(ctx, n) }
		case NodeCompute:
			body = func(ctx *ExecCtx) RunResult { return inst.runCompute(ctx, n) }
		}
		t := sched.NewTask(tmpl.Name+"/"+n.Name, body)
		t.onDone = inst.taskDone
		inst.tasks[n.ID] = t
		inst.wakes[n.ID] = func() { sched.Schedule(t) }
		for _, ch := range inst.nodeIn[n.ID] {
			ch.SetConsumer(t, sched)
		}
	}
	inst.Reset()
	// One ledger per primary port, in its own allocation: the per-request
	// counts stay off the line every activation's bindingLive reads.
	for _, p := range tmpl.ports {
		if p.Primary && p.In >= 0 && p.Out >= 0 {
			led := &ledger{}
			led.in, _ = tmpl.nodes[p.In].Codec.(quieter)
			led.out, _ = tmpl.nodes[p.Out].Codec.(quieter)
			inst.inputRT[p.In].led, inst.outputRT[p.Out].led = led, led
		}
	}
	return inst
}

// Reset clears a finished instance's binding — or a bound one's whose
// dispatch failed before Start — and returns it to idle (an idle instance
// stays idle). No task body runs in these phases, so a late wakeup from
// the previous binding, which passes the scheduler's done check as soon as
// done clears below, is inert instead of poisoning the fresh session.
// State objects (notably the per-input byte queues' pooled chunks) are
// kept: reallocating them per connection was the dominant allocation
// source on the non-persistent connection path.
func (inst *Instance) Reset() {
	if w := inst.state.Load(); phase(w>>32) != phaseIdle {
		inst.transition(w, phaseIdle, 0)
	}
	// Cache bookkeeping dies before the channels clear: the generation
	// bump makes outstanding waiter deliveries inert, so whatever they
	// pushed before losing the race is released by the channel Reset
	// below, and nothing lands after it.
	inst.resetCache()
	for _, t := range inst.tasks {
		t.done.Store(false)
		t.state.Store(int32(TaskIdle))
	}
	for _, chs := range inst.nodeIn {
		for _, ch := range chs {
			ch.Reset()
		}
	}
	clear(inst.conns)
	inst.router = nil
	for _, n := range inst.tmpl.nodes {
		switch n.Kind {
		case NodeInput:
			st := inst.inputRT[n.ID]
			if st == nil {
				st = &inputState{q: buffer.NewQueue(nil), raw: n.Codec.Desc().FieldIndex("_raw")}
				inst.inputRT[n.ID] = st
			}
			st.mu.Lock()
			st.q.Reset()
			st.dec = n.Codec.NewDecoder()
			st.eof = false
			st.conn = nil
			st.port = -1
			if st.led != nil {
				st.led.reset()
			}
			st.mu.Unlock()
		case NodeOutput:
			st := inst.outputRT[n.ID]
			if st == nil {
				st = &outputState{inst: inst, sc: buffer.NewScatter(nil)}
				inst.outputRT[n.ID] = st
			}
			st.sc.Reset()
			st.conn = nil
			st.port = -1
			st.blocked = false
		case NodeCompute:
			cs := inst.compRT[n.ID]
			if cs == nil {
				cs = &computeState{
					edgeClosed: make([]bool, len(n.ins)),
					nctx:       NodeCtx{inst: inst, node: n},
				}
				inst.compRT[n.ID] = cs
			}
			clear(cs.edgeClosed)
			cs.open = len(n.ins)
			cs.nctx.State = nil
			if n.NewState != nil {
				cs.nctx.State = n.NewState()
			}
		}
	}
}

// DebugString renders the instance's runtime state for diagnostics.
func (inst *Instance) DebugString() string {
	var sb strings.Builder
	w := inst.state.Load()
	fmt.Fprintf(&sb, "instance %d (%s) phase=%s live=%d\n", inst.id, inst.tmpl.Name, phase(w>>32), uint32(w))
	for _, n := range inst.tmpl.nodes {
		t := inst.tasks[n.ID]
		fmt.Fprintf(&sb, "  node %d %-8s %-16s state=%d done=%v runs=%d",
			n.ID, n.Kind, n.Name, t.state.Load(), t.done.Load(), t.runs.Load())
		if st := inst.inputRT[n.ID]; st != nil {
			st.mu.Lock()
			fmt.Fprintf(&sb, " qlen=%d eof=%v conn=%v", st.q.Len(), st.eof, st.conn != nil)
			st.mu.Unlock()
		}
		for i, ch := range inst.nodeIn[n.ID] {
			fmt.Fprintf(&sb, " in%d=%d/%v", i, ch.Len(), ch.Closed())
		}
		sb.WriteByte('\n')
	}
	return sb.String()
}

// SetRouter installs the backend-topology router for this binding (the
// key→backend-index mapping compiled `hash(k) mod len(backends)`
// expressions consult). Call before Start, alongside Bind; Reset clears it.
func (inst *Instance) SetRouter(route func(hash int64) int) { inst.router = route }

// Router returns the binding's topology router (nil when the instance
// routes by plain modulo over the compiled channel-array capacity).
func (inst *Instance) Router() func(hash int64) int { return inst.router }

// PortHomeWorker returns the home scheduler worker of the task that
// writes port's connection — the port's output node's task (the input
// node's for read-only ports). This is the worker identity the graph
// dispatcher hands to upstream.Manager.LeaseOn: the session leased for a
// backend port is written by exactly that task (runOutput → flush), so
// leasing from its home worker's shard keeps the framing/FIFO/writev path
// free of cross-core lock contention (stolen activations excepted).
func (inst *Instance) PortHomeWorker(port int) int {
	p := inst.tmpl.ports[port]
	if p.Out >= 0 {
		return inst.tasks[p.Out].home
	}
	if p.In >= 0 {
		return inst.tasks[p.In].home
	}
	return 0
}

// Bind attaches conn to port (nil: unbound), closing what an earlier Bind
// left there. Call before Start; the first Bind takes idle → bound.
func (inst *Instance) Bind(port int, conn netstack.Conn) {
	if w := inst.state.Load(); phase(w>>32) == phaseIdle {
		inst.transition(w, phaseBound, 0)
	}
	p, at := inst.tmpl.ports[port], port
	if conn == nil {
		at = -1
	}
	if old := inst.conns[port]; old != nil && old != conn {
		old.Close()
	}
	inst.conns[port] = conn
	if p.In >= 0 {
		st := inst.inputRT[p.In]
		st.conn = conn
		st.port = at
	}
	if p.Out >= 0 {
		st := inst.outputRT[p.Out]
		st.conn = conn
		st.port = at
	}
}

// Start activates a bound instance: every bound input's readable callback
// and every bound output's writable callback is registered, and every
// input task is scheduled once to consume any pending bytes. The binding
// is read only while bound, when no task can run or finish; after bound →
// running a graph whose peer already hung up may be recycled under the
// last loop, which reads only the immutable task list.
func (inst *Instance) Start() {
	w := inst.state.Load()
	for _, n := range inst.tmpl.nodes {
		if n.Kind == NodeOutput && inst.outputRT[n.ID].conn != nil {
			inst.outputRT[n.ID].conn.SetWritableCallback(inst.wakes[n.ID])
		}
		if n.Kind != NodeInput {
			continue
		}
		if st := inst.inputRT[n.ID]; st.conn == nil {
			// Unbound input (write-only benchmark graphs): treat as EOF.
			st.mu.Lock()
			st.eof = true
			st.mu.Unlock()
		} else {
			st.conn.SetReadableCallback(inst.wakes[n.ID])
		}
	}
	inst.transition(w, phaseRunning, uint32(len(inst.tasks)))
	for _, n := range inst.tmpl.nodes {
		if n.Kind == NodeInput {
			inst.sched.Schedule(inst.tasks[n.ID])
		}
	}
}

// taskDone runs (via Task.onDone, after the scheduler finalises the task's
// state) once per node when its task returns RunDone; the last one takes
// the instance to finished and hands it to its pool, after every
// scheduler store that could clobber the pool's Reset.
func (inst *Instance) taskDone() {
	for {
		w := inst.state.Load()
		to, live := phase(w>>32), uint32(w)-1
		if live == 0 {
			to = phaseFinished
		}
		if inst.transition(w, to, live) {
			if to == phaseFinished && inst.pool != nil {
				inst.pool.Put(inst)
			}
			return
		}
	}
}

// beginShutdown takes a running instance to draining and force-closes
// every connection; EOFs then propagate through the dataflow and all tasks
// terminate. After the closes, event callbacks are unregistered and every
// input task is scheduled once so it observes its connection's EOF even if
// its close event fired before the task was ready for it. A bound instance
// (Service.Close racing its dispatch) is closed alike, with no edge. A
// caller outside the instance's tasks must keep it from being recycled
// meanwhile (a closing service's pool drops finished instances).
func (inst *Instance) beginShutdown() {
	for {
		w := inst.state.Load()
		p := phase(w >> 32)
		if p == phaseBound || p == phaseRunning && inst.transition(w, phaseDraining, uint32(w)) {
			break
		}
		if p != phaseRunning {
			return // idle, finished, or another shutdown won
		}
	}
	for _, c := range inst.conns {
		if c != nil {
			c.Close()
		}
	}
	for _, n := range inst.tmpl.nodes {
		if n.Kind != NodeInput {
			continue
		}
		st := inst.inputRT[n.ID]
		if st.conn != nil {
			st.conn.SetReadableCallback(nil)
		}
		inst.sched.Schedule(inst.tasks[n.ID])
	}
}

// Close aborts the instance explicitly (platform shutdown).
func (inst *Instance) Close() { inst.beginShutdown() }

// --- task bodies ---

// runInput takes the bytes that have arrived on the connection, decodes
// complete messages and pushes them downstream.
func (inst *Instance) runInput(ctx *ExecCtx, n *Node) RunResult {
	if !inst.bindingLive() {
		return RunIdle // stale wakeup (see bindingLive)
	}
	st := inst.inputRT[n.ID]
	out := inst.nodeOut[n.ID][0]
	// On a primary port every decoded request enters the ledger with its
	// decode stamp. The clock is read lazily, once per batch of decodes
	// (lnow resets when new bytes arrive): requests framed by one socket
	// read arrived together, so they share an arrival stamp.
	primary := st.port >= 0 && inst.tmpl.ports[st.port].Primary
	lnow := int64(-1)
	// A wakeup means bytes arrived: the activation takes them before its
	// first decode, which would otherwise fail for want of them.
	for fresh := true; ; fresh = false {
		if out.Saturated() {
			return RunYield
		}
		st.mu.Lock()
		if fresh {
			st.pull()
		}
		msg, ok, derr := st.dec.Decode(st.q)
		if ok {
			st.mu.Unlock()
			if st.led != nil {
				if lnow < 0 {
					lnow = metrics.Now()
				}
				st.led.push(lnow, msg)
			}
			if crt := inst.crt; crt != nil && st.port >= 0 {
				if primary && !crt.fifo {
					// Client request: serve/coalesce/track before dispatch.
					if inst.cacheClientRequest(ctx, msg, out) {
						msg.Release()
						if ctx.CountItem() {
							return RunYield
						}
						continue
					}
				} else if !primary {
					// Backend response: FIFO ports deliver through the slot
					// queue (order-preserving); non-FIFO ports forward then
					// correlate by key/opaque. Fills run while the decoder's
					// reference still pins the response bytes.
					if crt.fifo {
						if f := inst.cacheFifoResponse(msg, st.port, out); f != nil {
							f.Fill(msg.BytesAt(st.raw), crt.proto.Response(msg))
						}
					} else {
						out.Push(msg)
						inst.cacheBackendResponse(msg, st.raw)
					}
					msg.Release()
					if ctx.CountItem() {
						return RunYield
					}
					continue
				}
			}
			// Push retains for the channel; dropping the decoder's own
			// reference leaves the downstream consumer as the sole owner.
			out.Push(msg)
			msg.Release()
			if ctx.CountItem() {
				return RunYield
			}
			continue
		}
		if derr != nil {
			// Malformed stream: the paper's grammars adopt a default
			// behaviour for unparseable input (§4.2) — we drop the
			// connection, the only safe framing recovery.
			st.eof = true
		}
		if st.pull() {
			st.mu.Unlock()
			lnow = -1 // fresh bytes: the next decode batch re-reads the clock
			continue
		}
		if st.eof {
			st.mu.Unlock()
			return inst.finishInput(st, out)
		}
		st.mu.Unlock()
		return RunIdle
	}
}

// pull moves the bytes that have arrived on the connection into the parse
// queue by reference, reporting whether any did; EOF and hard errors end
// the stream alike. st.mu must be held.
func (st *inputState) pull() bool {
	if st.eof {
		return false
	}
	n, err := st.conn.TryReadRefs(st.q)
	st.eof = err != nil
	return n > 0
}

// finishInput propagates EOF downstream and triggers instance shutdown for
// primary ports.
func (inst *Instance) finishInput(st *inputState, out *Chan) RunResult {
	out.Close()
	if st.port >= 0 && inst.tmpl.ports[st.port].Primary {
		inst.beginShutdown()
	}
	return RunDone
}

// runCompute drains the node's in-edges round-robin, invoking the body per
// value and the EOF hook per closed edge.
func (inst *Instance) runCompute(ctx *ExecCtx, n *Node) RunResult {
	if !inst.bindingLive() {
		return RunIdle // stale wakeup (see bindingLive)
	}
	cs := inst.compRT[n.ID]
	ins := inst.nodeIn[n.ID]
	nctx := &cs.nctx
	for {
		for _, ch := range inst.nodeOut[n.ID] {
			if ch.Saturated() {
				return RunYield
			}
		}
		progressed := false
		for i, ch := range ins {
			if cs.edgeClosed[i] {
				continue
			}
			v, ok, closed := ch.Pop()
			if ok {
				n.Fn(nctx, v, i)
				// Drop the channel's reference. Emitted copies were
				// re-retained by the downstream Push; values the body
				// stored into globals were detached by Dict.Set.
				v.Release()
				progressed = true
				if ctx.CountItem() {
					return RunYield
				}
				continue
			}
			if closed {
				cs.edgeClosed[i] = true
				cs.open--
				progressed = true
				if n.OnEOF != nil {
					n.OnEOF(nctx, i)
				}
			}
		}
		if cs.open == 0 {
			for _, ch := range inst.nodeOut[n.ID] {
				ch.Close()
			}
			return RunDone
		}
		if !progressed {
			return RunIdle
		}
	}
}

// runOutput serialises values from the node's in-edges onto its connection.
// Messages accumulate in the node's pooled scatter list — raw-captured
// messages as zero-copy references into their pooled wire bytes — and
// leave in one vectored write when the drain pauses (yield, idle, done) or
// the list passes the high-water mark.
//
// The client-facing (primary) output goes further: while its ledger says
// the client is still owed responses, an idle drain returns RunDefer
// instead of flushing, and the round-end activation writes whatever the
// other backends delivered in the same scheduler round along with it. A
// client owed nothing (window 1, or the last response of a pipeline) is
// flushed at once, as are upstream ports, yields and close. While the
// connection holds a backlog (see flush) the task pops nothing, so the
// requests behind a full upstream window wait in the channel.
func (inst *Instance) runOutput(ctx *ExecCtx, n *Node) RunResult {
	if !inst.bindingLive() {
		return RunIdle // stale wakeup (see bindingLive)
	}
	st := inst.outputRT[n.ID]
	ins := inst.nodeIn[n.ID]
	primary := st.port >= 0 && inst.tmpl.ports[st.port].Primary
	w := ctx.Worker()
	for {
		if st.blocked {
			st.flush(w)
		}
		progressed := false
		closedCount := 0
		for _, ch := range ins {
			if st.blocked {
				return RunIdle
			}
			v, ok, closed := ch.Pop()
			if closed {
				closedCount++
				continue
			}
			if !ok {
				continue
			}
			progressed = true
			if crt := inst.crt; crt != nil && crt.fifo && st.port >= 0 && !primary {
				// FIFO upstream request: hit/coalesce before it costs a
				// round trip; consumed requests never reach the wire.
				if inst.cacheUpstreamRequest(ctx, v, st.port) {
					v.Release()
					if ctx.CountItem() {
						st.flush(w)
						return RunYield
					}
					continue
				}
			}
			st.encode(n.Codec, v)
			if st.led != nil {
				st.led.answer(v)
			}
			v.Release()
			if st.sc.Len() >= flushBytes {
				st.flush(w)
			}
			if ctx.CountItem() {
				st.flush(w)
				return RunYield
			}
		}
		if closedCount == len(ins) {
			st.flush(w)
			if st.conn != nil {
				st.conn.Close()
			}
			return RunDone
		}
		if !progressed {
			// The scatter is below flushBytes here (the drain flushes at
			// the mark), so an owed client's write can wait for the round.
			if st.led != nil && !ctx.RoundEnd() && st.sc.Len() > 0 && st.led.owed() {
				return RunDefer
			}
			st.flush(w)
			return RunIdle
		}
	}
}

// encode appends v's wire form to the output's scatter list, preferring the
// codec's zero-copy scatter path.
func (st *outputState) encode(codec grammar.WireFormat, v value.Value) {
	if se, ok := codec.(grammar.ScatterEncoder); ok {
		out, err := se.EncodeScatter(st.sc, st.wbuf, v)
		if err == nil {
			st.wbuf = out[:0]
		}
		return
	}
	out, err := codec.Encode(st.wbuf[:0], v)
	if err == nil {
		st.wbuf = out[:0]
		st.sc.Append(out)
	}
}

// flush writes the accumulated scatter list to the connection as one
// vectored write and resets it (releasing retained message regions); with
// no connection the list is dropped so regions still recycle. A primary
// output first records its responses' latency into worker's shard. A
// connection that cannot send everything yet (an upstream session at a
// full window) stages the rest (netstack.ErrBacklogged): the output is
// blocked until a flush of the empty list, scheduled by the writable
// callback, sends it.
//
// A write error may leave a message half-sent, so the only safe recovery
// is dropping the connection. A primary-port output also begins shutdown
// at once, or the instance would linger half-dead — parsing a client that
// can no longer be answered, pinning its pooled buffers — until the peer
// hangs up; other outputs' drops propagate as EOF through teardown.
func (st *outputState) flush(worker int) {
	if st.led != nil {
		st.led.flushed(worker)
	}
	if st.conn == nil {
		st.sc.Reset()
		return
	}
	if st.sc.Len() == 0 && !st.blocked {
		return
	}
	_, err := st.conn.WriteBatch(st.sc.Buffers())
	st.sc.Reset()
	if st.blocked = err == netstack.ErrBacklogged; err != nil && !st.blocked {
		st.conn.Close()
		st.conn = nil
		if st.port >= 0 && st.inst.tmpl.ports[st.port].Primary {
			st.inst.beginShutdown()
		}
	}
}

// NodeCtx is passed to compute bodies. Each compute node of an instance
// owns one, reused by every activation: it is valid only during the call,
// and a body must not retain the pointer.
type NodeCtx struct {
	inst *Instance
	node *Node
	// State is the node's per-binding state (Node.NewState), rebuilt on
	// every Reset.
	State any
	// Scratch is working storage the body owns: nil on the instance's first
	// activation, then kept across activations and Reset, so the body builds
	// it once per pooled instance. Unlike State it must not carry values from
	// one message to the next — the compiled program keeps its reusable call
	// frames here.
	Scratch any
}

// Emit pushes v onto the node's out-edge at index out (declaration order of
// Connect calls).
func (c *NodeCtx) Emit(out int, v value.Value) {
	c.inst.nodeOut[c.node.ID][out].Push(v)
}

// Instance returns the enclosing instance.
func (c *NodeCtx) Instance() *Instance { return c.inst }
