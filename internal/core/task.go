package core

import (
	"sync/atomic"
	"time"

	"flick/internal/metrics"
)

// TaskState tracks a task through the scheduler's state machine.
type TaskState int32

// Task states. Transitions:
//
//	Idle      --Schedule-->  Queued
//	Queued    --worker-->    Running
//	Running   --Schedule-->  RunningDirty   (data arrived mid-run)
//	Running   --finish-->    Idle | Queued  (Queued when the run yielded
//	                                         or deferred to its round end)
//	RunningDirty --finish--> Queued
//
// The CAS discipline guarantees a task is never on two worker queues and
// never runs on two workers simultaneously (§5: tasks are "added to a worker
// queue when [they become] runnable" and each "is not added to the task
// queue" when it has no work).
const (
	TaskIdle TaskState = iota
	TaskQueued
	TaskRunning
	TaskRunningDirty
)

// RunResult is what a task's body reports to the scheduler.
type RunResult int

const (
	// RunIdle means all currently available input was consumed.
	RunIdle RunResult = iota
	// RunYield means work remains but the task is yielding (timeslice
	// expired or item quota reached); the scheduler requeues it at the
	// back of its worker's queue.
	RunYield
	// RunDone means the task is finished forever (inputs closed and
	// drained); it will not be scheduled again.
	RunDone
	// RunDefer means the task is idle for now but wants one more
	// activation at the end of its worker's round (ExecCtx.RoundEnd),
	// whatever arrives meanwhile: it stays Queued until then, so Schedule
	// on it is a no-op. A round-end activation cannot defer again; RunDefer
	// there counts as RunIdle.
	RunDefer
)

// TaskFunc is a task body. It must bound its own work using ctx's quantum
// helpers — the FLICK compiler guarantees this for generated tasks
// ("the code generated by the FLICK compiler guarantees that the task
// re-enters the scheduler").
type TaskFunc func(ctx *ExecCtx) RunResult

// Task is a schedulable unit of computation (§3.2).
type Task struct {
	id    uint64
	name  string
	fn    TaskFunc
	state atomic.Int32
	done  atomic.Bool
	home  int // worker queue index (hash of id)
	// onDone runs after the scheduler has finalised a RunDone task's
	// state. Instances use it for completion accounting; running it after
	// the state stores makes instance reset safe from inside the hook.
	onDone func()

	// accounting (§6.4 experiments)
	runs     atomic.Uint64
	yields   atomic.Uint64
	itemsRun atomic.Uint64
}

var taskIDs atomic.Uint64

// newTask allocates a task; the scheduler assigns its home queue.
func newTask(name string, fn TaskFunc) *Task {
	return &Task{id: taskIDs.Add(1), name: name, fn: fn}
}

// ID returns the task's unique identifier.
func (t *Task) ID() uint64 { return t.id }

// Name returns the task's diagnostic name.
func (t *Task) Name() string { return t.name }

// Runs returns how many times the task body has been invoked.
func (t *Task) Runs() uint64 { return t.runs.Load() }

// Yields returns how many runs ended in a voluntary yield.
func (t *Task) Yields() uint64 { return t.yields.Load() }

// Items returns the cumulative items processed (as reported via ExecCtx).
func (t *Task) Items() uint64 { return t.itemsRun.Load() }

// Done reports whether the task has finished permanently.
func (t *Task) Done() bool { return t.done.Load() }

// ExecCtx is passed to a running task body. It carries the scheduling
// policy's bounds so bodies can cooperate.
//
// Each worker owns one ExecCtx and overwrites it for every activation, so
// running a task allocates nothing. It is valid only during the activation:
// a body must not retain it, or anything reached through it, after
// returning.
type ExecCtx struct {
	sched    *Scheduler
	worker   int
	started  int64         // activation start, metrics.Now nanoseconds
	quantum  time.Duration // 0 = unbounded
	maxItems int           // 0 = unbounded
	roundEnd bool
	items    int
	// opsSinceCheck throttles time syscalls in tight loops.
	opsSinceCheck int
}

// Scheduler returns the scheduler running this task.
func (c *ExecCtx) Scheduler() *Scheduler { return c.sched }

// Worker returns the index of the scheduler worker executing this run —
// the shard identity worker-sharded layers (upstream pools, the response
// cache) key their lock-local fast paths on. Valid for stolen activations
// too: it names the executing worker, not the task's home.
func (c *ExecCtx) Worker() int { return c.worker }

// RoundEnd reports whether this is the activation the worker gives a task
// at the end of the round in which it returned RunDefer.
func (c *ExecCtx) RoundEnd() bool { return c.roundEnd }

// CountItem records one processed input item and reports whether the task
// should yield under the current policy (item quota or quantum exhausted).
func (c *ExecCtx) CountItem() (yield bool) {
	c.items++
	if c.maxItems > 0 && c.items >= c.maxItems {
		return true
	}
	return c.Expired()
}

// Expired reports whether the timeslice quantum has been exceeded. The
// check is throttled to one time read per few iterations.
func (c *ExecCtx) Expired() bool {
	if c.quantum <= 0 {
		return false
	}
	c.opsSinceCheck++
	if c.opsSinceCheck < 4 {
		return false
	}
	c.opsSinceCheck = 0
	return time.Duration(metrics.Now()-c.started) >= c.quantum
}
