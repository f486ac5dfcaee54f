package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// newHomeTask creates a task pinned (by id hash) to the given home worker.
func newHomeTask(t *testing.T, s *Scheduler, home int, fn TaskFunc) *Task {
	t.Helper()
	for i := 0; i < 10000; i++ {
		task := s.NewTask("pinned", fn)
		if task.home == home {
			return task
		}
	}
	t.Fatal("could not mint a task with the requested home worker")
	return nil
}

// TestStealUnderContention pins every task to worker 0 while worker 0 is
// wedged in a long activation: the only way the workload completes is for
// the other workers to steal from worker 0's inbox/deque.
func TestStealUnderContention(t *testing.T) {
	s := NewScheduler(4, Cooperative)
	s.Start()
	defer s.Stop()

	blockerDone := make(chan struct{})
	release := make(chan struct{})
	blocker := newHomeTask(t, s, 0, func(ctx *ExecCtx) RunResult {
		<-release
		close(blockerDone)
		return RunDone
	})
	s.Schedule(blocker)
	time.Sleep(10 * time.Millisecond) // let a worker pick the blocker up

	const (
		producers = 4
		perProd   = 64
	)
	var wg sync.WaitGroup
	var pg sync.WaitGroup
	for p := 0; p < producers; p++ {
		pg.Add(1)
		go func() {
			defer pg.Done()
			for i := 0; i < perProd; i++ {
				wg.Add(1)
				task := newHomeTask(t, s, 0, func(ctx *ExecCtx) RunResult {
					wg.Done()
					return RunDone
				})
				s.Schedule(task)
			}
		}()
	}
	pg.Wait()
	waitDone(t, &wg, 5*time.Second)
	close(release)
	<-blockerDone

	st := s.Stats()
	if st.Stolen == 0 {
		t.Fatal("home worker was wedged but nothing was stolen")
	}
}

// TestStopWithQueuedTasks verifies Stop returns promptly while tasks are
// still queued (they are abandoned, not drained).
func TestStopWithQueuedTasks(t *testing.T) {
	s := NewScheduler(2, Cooperative)
	gate := make(chan struct{})
	var ran atomic.Int32
	for i := 0; i < 2; i++ {
		blocker := s.NewTask("blocker", func(ctx *ExecCtx) RunResult {
			<-gate
			return RunDone
		})
		s.Schedule(blocker)
	}
	for i := 0; i < 500; i++ {
		task := s.NewTask("queued", func(ctx *ExecCtx) RunResult {
			ran.Add(1)
			return RunDone
		})
		s.Schedule(task)
	}
	s.Start()
	time.Sleep(10 * time.Millisecond) // both workers wedge on the blockers
	close(gate)
	stopDone := make(chan struct{})
	go func() {
		s.Stop()
		close(stopDone)
	}()
	select {
	case <-stopDone:
	case <-time.After(5 * time.Second):
		t.Fatal("Stop hung with queued tasks")
	}
}

// TestStopNeverStarted: Stop on a scheduler whose workers never launched
// must not hang even with tasks queued.
func TestStopNeverStarted(t *testing.T) {
	s := NewScheduler(2, Cooperative)
	for i := 0; i < 32; i++ {
		s.Schedule(s.NewTask("q", func(ctx *ExecCtx) RunResult { return RunDone }))
	}
	done := make(chan struct{})
	go func() {
		s.Stop()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("Stop hung on never-started scheduler")
	}
}

// TestAffinityRouting asserts the routing invariant directly: each task
// lands in its home worker's inbox.
func TestAffinityRouting(t *testing.T) {
	s := NewScheduler(4, Cooperative)
	task := newHomeTask(t, s, 2, func(ctx *ExecCtx) RunResult { return RunDone })
	s.Schedule(task)
	if s.workers[2].inbox.empty() {
		t.Fatal("task did not land in its home worker's inbox")
	}
	for _, w := range []int{0, 1, 3} {
		if !s.workers[w].inbox.empty() {
			t.Fatalf("worker %d received a foreign task", w)
		}
	}
}

// TestInboxOverflowSpills drives more queued tasks than the bounded ring
// holds; the excess must spill (counted) and still execute.
func TestInboxOverflowSpills(t *testing.T) {
	s := NewScheduler(1, Cooperative)
	const n = inboxSize + 64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		task := s.NewTask("t", func(ctx *ExecCtx) RunResult {
			wg.Done()
			return RunDone
		})
		s.Schedule(task)
	}
	st := s.Stats()
	if st.Overflow == 0 {
		t.Fatalf("overflow = 0 after %d pushes into a %d-slot ring", n, inboxSize)
	}
	s.Start()
	defer s.Stop()
	waitDone(t, &wg, 5*time.Second)
	if got := s.Stats().Executed; got != n {
		t.Fatalf("executed = %d, want %d", got, n)
	}
}

// TestParksAndWakeups checks the parking counters move: workers park when
// idle and producers issue targeted wakeups.
func TestParksAndWakeups(t *testing.T) {
	s := NewScheduler(4, Cooperative)
	s.Start()
	defer s.Stop()
	time.Sleep(20 * time.Millisecond) // all workers park
	if got := s.Stats().Parks; got == 0 {
		t.Fatal("no worker ever parked")
	}
	var wg sync.WaitGroup
	for round := 0; round < 8; round++ {
		wg.Add(1)
		task := s.NewTask("t", func(ctx *ExecCtx) RunResult {
			wg.Done()
			return RunDone
		})
		s.Schedule(task)
		waitDone(t, &wg, time.Second)
		time.Sleep(2 * time.Millisecond) // let the worker park again
	}
	st := s.Stats()
	if st.Wakeups == 0 {
		t.Fatal("tasks ran from a parked pool without any wakeups")
	}
	if st.Executed != 8 {
		t.Fatalf("executed = %d, want 8", st.Executed)
	}
}

// TestFairnessTickUnstarvesForeignQueue is the regression test for a
// livelock: worker 0 is wedged in a long activation, worker 1's own inbox
// is kept permanently non-empty by a yield-looping task, and a victim task
// is stranded on worker 0's queues. Without the periodic foreign-first
// find (fairnessTick), worker 1 never reaches the steal sweep and the
// victim starves forever.
func TestFairnessTickUnstarvesForeignQueue(t *testing.T) {
	s := NewScheduler(2, NonCooperative)
	s.Start()
	defer s.Stop()

	release := make(chan struct{})
	blocker := newHomeTask(t, s, 0, func(ctx *ExecCtx) RunResult {
		<-release
		return RunDone
	})
	s.Schedule(blocker)
	time.Sleep(10 * time.Millisecond) // a worker wedges on the blocker

	var victimRan atomic.Bool
	victim := newHomeTask(t, s, 0, func(ctx *ExecCtx) RunResult {
		victimRan.Store(true)
		return RunDone
	})
	spinner := newHomeTask(t, s, 1, func(ctx *ExecCtx) RunResult {
		if victimRan.Load() {
			return RunDone
		}
		return RunYield
	})
	s.Schedule(spinner)
	time.Sleep(5 * time.Millisecond) // the free worker latches onto the spinner
	s.Schedule(victim)

	deadline := time.Now().Add(5 * time.Second)
	for !victimRan.Load() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	close(release)
	if !victimRan.Load() {
		t.Fatal("stranded task starved behind a yield-looping worker")
	}
}

// TestSchedStatsMetrics checks the stats→metrics.CounterSet plumbing.
func TestSchedStatsMetrics(t *testing.T) {
	st := SchedStats{Scheduled: 1, Executed: 2, Stolen: 3, Parks: 4, Wakeups: 5, Overflow: 6}
	cs := st.Metrics()
	for name, want := range map[string]uint64{
		"scheduled": 1, "executed": 2, "stolen": 3,
		"parks": 4, "wakeups": 5, "overflow": 6,
	} {
		if v, ok := cs.Get(name); !ok || v != want {
			t.Fatalf("%s = %d (present=%v), want %d", name, v, ok, want)
		}
	}
}

// TestSchedulerStress hammers the scheduler from many goroutines with
// yielding tasks; run under -race this exercises the deque, inbox, bitmap
// and parking paths together.
func TestSchedulerStress(t *testing.T) {
	s := NewScheduler(8, RoundRobin)
	s.Start()
	defer s.Stop()
	const (
		tasks  = 200
		rounds = 50
	)
	var wg sync.WaitGroup
	for i := 0; i < tasks; i++ {
		wg.Add(1)
		var left atomic.Int32
		left.Store(rounds)
		task := s.NewTask("stress", func(ctx *ExecCtx) RunResult {
			for {
				if left.Add(-1) <= 0 {
					wg.Done()
					return RunDone
				}
				if ctx.CountItem() {
					return RunYield
				}
			}
		})
		go s.Schedule(task)
	}
	waitDone(t, &wg, 10*time.Second)
	st := s.Stats()
	if st.Executed < tasks {
		t.Fatalf("executed = %d, want >= %d", st.Executed, tasks)
	}
}
