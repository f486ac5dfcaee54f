package core

import (
	"math/bits"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"flick/internal/metrics"
)

// Policy is a scheduling discipline (§6.4 evaluates three).
type Policy struct {
	// Name identifies the policy in benchmark output.
	Name string
	// Quantum is the timeslice threshold: a task exceeding it re-enters
	// the scheduler (paper: "typically, 10–100 µs"). Zero disables the
	// bound.
	Quantum time.Duration
	// MaxItems bounds the number of input items per activation. Zero
	// disables the bound.
	MaxItems int
}

// The three policies from §6.4.
var (
	// Cooperative is FLICK's policy: fixed CPU quantum, then yield.
	Cooperative = Policy{Name: "cooperative", Quantum: 50 * time.Microsecond}
	// NonCooperative runs a scheduled task until it exhausts its input.
	NonCooperative = Policy{Name: "non-cooperative"}
	// RoundRobin schedules each task for one data item only.
	RoundRobin = Policy{Name: "round-robin", MaxItems: 1}
)

// CooperativeQuantum returns the cooperative policy with a custom quantum
// (the timeslice ablation experiment).
func CooperativeQuantum(q time.Duration) Policy {
	return Policy{Name: "cooperative", Quantum: q}
}

// Scheduler runs tasks on a fixed pool of worker goroutines, one per
// configured core (§5). The design is sharded for low contention:
//
//   - Each worker owns a lock-free Chase–Lev deque. Only the owner touches
//     the bottom; idle workers steal from the top with a single CAS.
//   - Every Schedule goes through the target worker's bounded MPSC-style
//     overflow inbox (callers generally run on arbitrary goroutines, so
//     they may never touch a deque bottom). The owner drains its inbox a
//     batch at a time into its private deque so subsequent pops are
//     contention-free and thieves have something to steal; batches are
//     served in FIFO order (LIFO within a batch), bounding how long any
//     task can wait behind later arrivals to drainBatch activations.
//   - Task→worker affinity is a hash of the task id (§5).
//   - A task may return RunDefer: it waits, Queued, on its worker's
//     round-end list, and runs once more (ExecCtx.RoundEnd) when the
//     worker runs out of work — after one runtime.Gosched, so bytes the
//     netpoller readied together land in the same round — or, under
//     continuous load, once the round has waited the policy's quantum
//     (drainBatch activations without one). A client's output defers its
//     flush this way, so its responses leave in one write per round.
//   - Idle workers park individually on a per-worker condition variable.
//     An atomic idle bitmap lets producers wake exactly one sleeper with a
//     claim CAS instead of broadcasting to the whole pool.
type Scheduler struct {
	workers []*worker
	policy  Policy

	// idle is the worker-parking bitmap: bit w of word w/64 is set while
	// worker w is parked (or committing to park). Producers claim a
	// sleeper by CASing its bit away before signalling it.
	idle []atomic.Uint64

	stopped atomic.Bool
	wg      sync.WaitGroup

	overflow atomic.Uint64 // inbox-ring overflows into the spill list
	wakeups  atomic.Uint64
}

// worker is one scheduler shard: a goroutine, its run queues, its parking
// brake, and its contention-free counters.
type worker struct {
	dq    *deque
	inbox *inbox

	parkMu   sync.Mutex
	parkCond *sync.Cond
	notified bool

	// tick counts find calls (owner-only). Every fairnessTick-th find
	// services foreign queues before local ones, so a worker whose own
	// queues never drain (a yield-requeue loop) cannot indefinitely
	// starve tasks stranded on another worker's queues — e.g. the home
	// worker is wedged in a long activation, or exited at Stop.
	tick uint32

	// ctx is the activation context run hands to every task body on this
	// worker, overwritten per activation (see ExecCtx).
	ctx ExecCtx

	// round is the worker's round-end list (owner-only): tasks whose last
	// activation returned RunDefer, each in state Queued, so Schedule on
	// them is a no-op until endRound runs them once more. Preallocated;
	// roundAt (metrics.Now) and roundRuns (activations since) date the
	// round's first deferral, for the bound under continuous load.
	round     []*Task
	roundAt   int64
	roundRuns int

	// Per-worker counters keep the hot path off shared cache lines; Stats
	// sums them. scheduled counts enqueues TARGETING this worker — the
	// enqueuer already touches this worker's inbox line in the same
	// operation, so the count adds no new cross-core traffic. The padding
	// separates adjacent workers' counters.
	executed     atomic.Uint64
	stolen       atomic.Uint64
	parks        atomic.Uint64
	scheduled    atomic.Uint64
	deferred     atomic.Uint64
	roundFlushes atomic.Uint64
	_            [2]uint64 // pad to a cache line with the counters above
}

// roundCap is the round-end list's preallocated length: more deferred
// tasks than this in one round grow it once, and the worker keeps it.
const roundCap = 64

func newWorker() *worker {
	w := &worker{dq: newDeque(), inbox: newInbox(), round: make([]*Task, 0, roundCap)}
	w.parkCond = sync.NewCond(&w.parkMu)
	return w
}

// drainBatch is how many extra inbox tasks the owner moves into its deque
// per drain: enough to amortise the inbox CAS and feed thieves, small
// enough to keep FIFO batches short (fairness between yielding tasks).
const drainBatch = 16

// fairnessTick bounds cross-worker starvation: every fairnessTick-th find
// looks at foreign queues first (the same 1-in-61 idiom the Go runtime
// uses for its global run queue; 61 is prime so the tick does not resonate
// with workload periodicity).
const fairnessTick = 61

// NewScheduler creates a scheduler with nWorkers worker goroutines (<=0
// selects GOMAXPROCS) under the given policy. Call Start to run it.
func NewScheduler(nWorkers int, policy Policy) *Scheduler {
	if nWorkers <= 0 {
		nWorkers = runtime.GOMAXPROCS(0)
	}
	s := &Scheduler{policy: policy}
	for i := 0; i < nWorkers; i++ {
		s.workers = append(s.workers, newWorker())
	}
	s.idle = make([]atomic.Uint64, (nWorkers+63)/64)
	return s
}

// Workers returns the worker count.
func (s *Scheduler) Workers() int { return len(s.workers) }

// Policy returns the scheduling policy.
func (s *Scheduler) Policy() Policy { return s.policy }

// SchedStats reports cumulative scheduling activity.
type SchedStats struct {
	Scheduled uint64 // tasks enqueued
	Executed  uint64 // task activations
	Stolen    uint64 // activations run off the task's home worker
	Parks     uint64 // times a worker went to sleep
	Wakeups   uint64 // targeted unparks issued by producers
	Overflow  uint64 // inbox pushes that overflowed the ring into the spill
	// Deferred counts activations that returned RunDefer, RoundFlushes
	// the round ends that ran a non-empty list; Deferred ÷ RoundFlushes
	// is how many deferred activations one round end serves.
	Deferred     uint64
	RoundFlushes uint64
}

// Stats returns a snapshot of scheduler counters.
func (s *Scheduler) Stats() SchedStats {
	st := SchedStats{
		Wakeups:  s.wakeups.Load(),
		Overflow: s.overflow.Load(),
	}
	for _, w := range s.workers {
		st.Scheduled += w.scheduled.Load()
		st.Executed += w.executed.Load()
		st.Stolen += w.stolen.Load()
		st.Parks += w.parks.Load()
		st.Deferred += w.deferred.Load()
		st.RoundFlushes += w.roundFlushes.Load()
	}
	return st
}

// Metrics renders the stats snapshot as an ordered metrics counter set
// (benchmark tables, flickbench reporting).
func (st SchedStats) Metrics() metrics.CounterSet {
	return metrics.NewCounterSet(
		"scheduled", st.Scheduled,
		"executed", st.Executed,
		"stolen", st.Stolen,
		"parks", st.Parks,
		"wakeups", st.Wakeups,
		"overflow", st.Overflow,
		"deferred", st.Deferred,
		"round_flushes", st.RoundFlushes,
	)
}

// Start launches the worker goroutines.
func (s *Scheduler) Start() {
	for i := range s.workers {
		s.wg.Add(1)
		go s.workerLoop(i)
	}
}

// Stop terminates the workers. Queued tasks are abandoned; a task on a
// round-end list is run once more (RoundEnd true) before its worker exits,
// so a deferred flush never pins what it holds.
func (s *Scheduler) Stop() {
	s.stopped.Store(true)
	for _, w := range s.workers {
		w.unpark()
	}
	s.wg.Wait()
}

// NewTask registers a new task under this scheduler and assigns its home
// worker by identifier hash (§5: "a hash over this identifier determines
// which worker's task queue the task should be assigned to").
func (s *Scheduler) NewTask(name string, fn TaskFunc) *Task {
	t := newTask(name, fn)
	t.home = int(t.id % uint64(len(s.workers)))
	return t
}

// Schedule makes t runnable. It is safe to call from any goroutine,
// including concurrently with t running (the task transitions to
// RunningDirty and is requeued when its current activation finishes).
func (s *Scheduler) Schedule(t *Task) {
	if t == nil || t.done.Load() {
		return
	}
	for {
		st := TaskState(t.state.Load())
		switch st {
		case TaskIdle:
			if t.state.CompareAndSwap(int32(TaskIdle), int32(TaskQueued)) {
				s.enqueue(t)
				return
			}
		case TaskRunning:
			if t.state.CompareAndSwap(int32(TaskRunning), int32(TaskRunningDirty)) {
				return
			}
		case TaskQueued, TaskRunningDirty:
			return
		}
	}
}

// enqueue hands t to its target worker's inbox and wakes a sleeper if one
// exists. The push must complete before the idle-bitmap read: paired with
// the worker publishing its idle bit before its final queue recheck, the
// sequentially consistent atomics guarantee at least one side observes the
// other, so no wakeup is lost.
func (s *Scheduler) enqueue(t *Task) { s.enqueueFrom(t, -1) }

// enqueueFrom is enqueue with the calling worker's id (-1 when the caller
// is not a worker). A worker requeueing onto its own inbox skips the
// wakeup: it is awake and finds the task on its next loop, and waking a
// sleeper here would just migrate the task off its home worker.
func (s *Scheduler) enqueueFrom(t *Task, from int) {
	tw := s.workers[t.home]
	tw.scheduled.Add(1)
	if !tw.inbox.push(t) {
		s.overflow.Add(1)
	}
	if from != t.home {
		s.wakeOne(t.home)
	}
}

// wakeOne claims one parked worker (preferring the task's target) and
// signals it. Claiming via CAS on the idle bitmap means each enqueue wakes
// at most one sleeper — no thundering broadcast.
func (s *Scheduler) wakeOne(prefer int) {
	if w, ok := s.claimIdle(prefer); ok {
		s.wakeups.Add(1)
		s.workers[w].unpark()
	}
}

// claimIdle finds a set bit in the idle bitmap and clears it atomically.
func (s *Scheduler) claimIdle(prefer int) (int, bool) {
	// Fast preference: the task's own worker, for cache affinity.
	if s.tryClaim(prefer) {
		return prefer, true
	}
	for wi := range s.idle {
		for {
			word := s.idle[wi].Load()
			if word == 0 {
				break
			}
			bit := word & (-word) // lowest set bit
			if s.idle[wi].CompareAndSwap(word, word&^bit) {
				return wi*64 + bits.TrailingZeros64(bit), true
			}
			// CAS lost: another producer claimed concurrently; reload.
		}
	}
	return 0, false
}

func (s *Scheduler) tryClaim(w int) bool {
	wi, bit := w/64, uint64(1)<<(uint(w)%64)
	for {
		word := s.idle[wi].Load()
		if word&bit == 0 {
			return false
		}
		if s.idle[wi].CompareAndSwap(word, word&^bit) {
			return true
		}
	}
}

// setIdle publishes worker w as parked (or committing to park).
func (s *Scheduler) setIdle(w int) {
	wi, bit := w/64, uint64(1)<<(uint(w)%64)
	for {
		word := s.idle[wi].Load()
		if s.idle[wi].CompareAndSwap(word, word|bit) {
			return
		}
	}
}

// clearIdle withdraws worker w's parked bit. Reports whether this call
// cleared it; false means a producer already claimed the worker, so a
// notification token is (or will shortly be) pending.
func (s *Scheduler) clearIdle(w int) bool {
	wi, bit := w/64, uint64(1)<<(uint(w)%64)
	for {
		word := s.idle[wi].Load()
		if word&bit == 0 {
			return false
		}
		if s.idle[wi].CompareAndSwap(word, word&^bit) {
			return true
		}
	}
}

// unpark delivers a notification token to the worker, waking it if parked.
// Tokens are sticky: delivered before the worker parks, they turn the next
// park into a no-op instead of being lost.
func (w *worker) unpark() {
	w.parkMu.Lock()
	w.notified = true
	w.parkCond.Signal()
	w.parkMu.Unlock()
}

// park blocks until a notification token arrives (or consumes a pending
// one immediately).
func (w *worker) park() {
	w.parkMu.Lock()
	for !w.notified {
		w.parkCond.Wait()
	}
	w.notified = false
	w.parkMu.Unlock()
}

// find returns the next task for worker wid:
//
//  1. its own deque (contention-free owner pop);
//  2. its own inbox, draining a batch into the deque;
//  3. a stealing sweep over every other worker's deque, then inbox.
//
// Every fairnessTick-th call inverts the order — foreign queues first — so
// a worker whose own queues are kept permanently non-empty by requeueing
// tasks still services work stranded on other workers' queues.
func (s *Scheduler) find(wid int) *Task {
	me := s.workers[wid]
	me.tick++
	if me.tick%fairnessTick == 0 {
		if t := s.stealSweep(wid); t != nil {
			return t
		}
	}
	if t := me.dq.popBottom(); t != nil {
		return t
	}
	if t := s.drainInbox(wid); t != nil {
		return t
	}
	return s.stealSweep(wid)
}

// stealSweep scans every other worker's deque, then inbox, for work.
func (s *Scheduler) stealSweep(wid int) *Task {
	me := s.workers[wid]
	n := len(s.workers)
	for off := 1; off < n; off++ {
		v := s.workers[(wid+off)%n]
		if t := v.dq.steal(); t != nil {
			me.stolen.Add(1)
			return t
		}
		if t := v.inbox.pop(); t != nil {
			me.stolen.Add(1)
			return t
		}
	}
	return nil
}

// drainInbox pops the oldest inbox task for worker wid and moves up to
// drainBatch more into the worker's private deque. The batch keeps later
// pops off the shared ring and exposes queued work to thieves. The owner
// pops the moved batch LIFO (deque bottom) while thieves see FIFO (top);
// owner-side unfairness is bounded by the batch size.
func (s *Scheduler) drainInbox(wid int) *Task {
	me := s.workers[wid]
	t := me.inbox.pop()
	if t == nil {
		return nil
	}
	for i := 0; i < drainBatch; i++ {
		extra := me.inbox.pop()
		if extra == nil {
			break
		}
		me.dq.pushBottom(extra)
	}
	return t
}

func (s *Scheduler) workerLoop(wid int) {
	defer s.wg.Done()
	me := s.workers[wid]
	for {
		if len(me.round) > 0 && s.roundDue(me) {
			s.endRound(wid)
		}
		t := s.find(wid)
		if t == nil && len(me.round) > 0 {
			// Out of work with a round open: yield the processor once, so
			// pumps the netpoller readied in the same poll hand their
			// bytes into this round, and end it only if that brought none.
			runtime.Gosched()
			if t = s.find(wid); t == nil {
				s.endRound(wid)
				continue
			}
		}
		if t == nil {
			if s.stopped.Load() {
				return
			}
			// Publish the idle bit BEFORE the final recheck: any producer
			// whose push lands after our recheck must then observe the bit
			// and claim us (see enqueue).
			s.setIdle(wid)
			if t = s.find(wid); t == nil && !s.stopped.Load() {
				me.parks.Add(1)
				me.park()
				continue
			}
			// Found work (or stopping) after all: withdraw the bit. If a
			// producer already claimed it, a sticky token is pending and
			// the next park will return immediately — benign.
			s.clearIdle(wid)
			if t == nil {
				return
			}
		}
		me.roundRuns++
		s.run(t, wid, false)
	}
}

// roundDue reports whether worker me's open round has waited its bound
// under continuous load: the policy's quantum since its first deferral, or
// drainBatch activations under a policy without one.
func (s *Scheduler) roundDue(me *worker) bool {
	if q := s.policy.Quantum; q > 0 {
		return time.Duration(metrics.Now()-me.roundAt) >= q
	}
	return me.roundRuns >= drainBatch
}

// endRound runs every task on worker wid's round-end list once, with
// ExecCtx.RoundEnd true, and empties the list. A round-end activation
// cannot defer again (run treats RunDefer there as RunIdle), so nothing
// joins the list while it runs.
func (s *Scheduler) endRound(wid int) {
	me := s.workers[wid]
	me.roundFlushes.Add(1)
	for i, t := range me.round {
		me.round[i] = nil
		s.run(t, wid, true)
	}
	me.round = me.round[:0]
}

// run executes one activation of t on worker wid; roundEnd marks the
// activation endRound gives a deferred task.
func (s *Scheduler) run(t *Task, wid int, roundEnd bool) {
	if !t.state.CompareAndSwap(int32(TaskQueued), int32(TaskRunning)) {
		return // defensive: stale pointer in a queue
	}
	// A Schedule call may have read done==false, lost the race with the
	// task's final activation, and enqueued it again; the done flag is
	// stored before the state returns to Idle, so this check is reliable.
	if t.done.Load() {
		t.state.Store(int32(TaskIdle))
		return
	}
	me := s.workers[wid]
	me.executed.Add(1)
	t.runs.Add(1)
	ctx := &me.ctx
	*ctx = ExecCtx{
		sched:    s,
		worker:   wid,
		started:  metrics.Now(),
		quantum:  s.policy.Quantum,
		maxItems: s.policy.MaxItems,
		roundEnd: roundEnd,
	}
	res := t.fn(ctx)
	t.itemsRun.Add(uint64(ctx.items))

	if res == RunDefer {
		if !roundEnd {
			// Queued, whatever arrived mid-run: Schedule is a no-op until
			// the round-end activation, which takes what lands meanwhile.
			me.deferred.Add(1)
			t.state.Store(int32(TaskQueued))
			if len(me.round) == 0 {
				me.roundAt, me.roundRuns = metrics.Now(), 0
			}
			me.round = append(me.round, t)
			return
		}
		res = RunIdle
	}

	if res == RunDone {
		t.done.Store(true)
		t.state.Store(int32(TaskIdle))
		if t.onDone != nil {
			t.onDone()
		}
		return
	}
	requeue := res == RunYield
	if requeue {
		t.yields.Add(1)
	}
	// Finish the activation: RunningDirty means new data arrived mid-run.
	if !requeue {
		if t.state.CompareAndSwap(int32(TaskRunning), int32(TaskIdle)) {
			return
		}
		requeue = true // was RunningDirty
	}
	t.state.Store(int32(TaskQueued))
	s.enqueueFrom(t, wid)
}
