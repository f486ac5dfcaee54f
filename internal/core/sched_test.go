package core

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flick/internal/value"
)

func TestSchedulerRunsTask(t *testing.T) {
	s := NewScheduler(2, Cooperative)
	s.Start()
	defer s.Stop()
	done := make(chan struct{})
	task := s.NewTask("t", func(ctx *ExecCtx) RunResult {
		close(done)
		return RunDone
	})
	s.Schedule(task)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("task never ran")
	}
	// The done flag is stored by the scheduler just after the body
	// returns; allow it a moment to land.
	deadline := time.Now().Add(time.Second)
	for !task.Done() && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if !task.Done() {
		t.Fatal("task not marked done")
	}
	// Scheduling a done task is a no-op.
	s.Schedule(task)
	if task.Runs() != 1 {
		t.Fatalf("runs = %d", task.Runs())
	}
}

func TestScheduleIdempotentWhileQueued(t *testing.T) {
	s := NewScheduler(1, Cooperative)
	// Do not start: tasks stay queued.
	var n atomic.Int32
	task := s.NewTask("t", func(ctx *ExecCtx) RunResult {
		n.Add(1)
		return RunIdle
	})
	for i := 0; i < 100; i++ {
		s.Schedule(task)
	}
	if got := s.Stats().Scheduled; got != 1 {
		t.Fatalf("scheduled %d times, want 1", got)
	}
	s.Start()
	defer s.Stop()
	deadline := time.Now().Add(time.Second)
	for n.Load() == 0 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if n.Load() != 1 {
		t.Fatalf("ran %d times", n.Load())
	}
}

func TestScheduleDuringRunRequeues(t *testing.T) {
	s := NewScheduler(1, Cooperative)
	s.Start()
	defer s.Stop()
	started := make(chan struct{})
	release := make(chan struct{})
	var runs atomic.Int32
	var task *Task
	task = s.NewTask("t", func(ctx *ExecCtx) RunResult {
		if runs.Add(1) == 1 {
			close(started)
			<-release
		}
		return RunIdle
	})
	s.Schedule(task)
	<-started
	s.Schedule(task) // task is Running → must requeue after it finishes
	close(release)
	deadline := time.Now().Add(time.Second)
	for runs.Load() < 2 && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if runs.Load() < 2 {
		t.Fatal("dirty task was not re-run")
	}
}

func TestYieldRequeues(t *testing.T) {
	s := NewScheduler(1, Cooperative)
	s.Start()
	defer s.Stop()
	var runs atomic.Int32
	done := make(chan struct{})
	task := s.NewTask("t", func(ctx *ExecCtx) RunResult {
		if runs.Add(1) < 5 {
			return RunYield
		}
		close(done)
		return RunDone
	})
	s.Schedule(task)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("yielding task starved")
	}
	if task.Yields() != 4 {
		t.Fatalf("yields = %d, want 4", task.Yields())
	}
}

func TestWorkStealing(t *testing.T) {
	s := NewScheduler(4, NonCooperative)
	// Enqueue many tasks before starting so they land on specific home
	// queues; all four workers should end up doing work.
	var mu sync.Mutex
	byWorker := map[int]int{}
	var wg sync.WaitGroup
	for i := 0; i < 64; i++ {
		wg.Add(1)
		task := s.NewTask("t", func(ctx *ExecCtx) RunResult {
			mu.Lock()
			byWorker[ctx.worker]++
			mu.Unlock()
			time.Sleep(time.Millisecond)
			wg.Done()
			return RunDone
		})
		s.Schedule(task)
	}
	s.Start()
	defer s.Stop()
	wg.Wait()
	mu.Lock()
	defer mu.Unlock()
	if len(byWorker) < 2 {
		t.Fatalf("only %d workers participated", len(byWorker))
	}
}

func waitDone(t *testing.T, wg *sync.WaitGroup, timeout time.Duration) {
	t.Helper()
	done := make(chan struct{})
	go func() {
		wg.Wait()
		close(done)
	}()
	select {
	case <-done:
	case <-time.After(timeout):
		t.Fatal("timed out")
	}
}

func TestQuantumExpiryYields(t *testing.T) {
	s := NewScheduler(1, CooperativeQuantum(100*time.Microsecond))
	s.Start()
	defer s.Stop()
	done := make(chan struct{})
	var yielded atomic.Bool
	work := NewChan(8)
	for i := 0; i < 10000; i++ {
		work.Push(value.Int(1))
	}
	work.Close()
	task := s.NewTask("burn", func(ctx *ExecCtx) RunResult {
		for {
			_, ok, closed := work.Pop()
			if closed {
				close(done)
				return RunDone
			}
			if !ok {
				return RunIdle
			}
			// Simulate per-item work so the quantum can expire.
			for i := 0; i < 2000; i++ {
				_ = i * i
			}
			if ctx.CountItem() {
				yielded.Store(true)
				return RunYield
			}
		}
	})
	s.Schedule(task)
	select {
	case <-done:
	case <-time.After(5 * time.Second):
		t.Fatal("task did not finish")
	}
	if !yielded.Load() {
		t.Fatal("task never hit the quantum")
	}
	if task.Yields() == 0 {
		t.Fatal("yields not counted")
	}
}

func TestRoundRobinPolicyOneItemPerActivation(t *testing.T) {
	s := NewScheduler(1, RoundRobin)
	s.Start()
	defer s.Stop()
	work := NewChan(8)
	for i := 0; i < 10; i++ {
		work.Push(value.Int(1))
	}
	work.Close()
	done := make(chan struct{})
	task := s.NewTask("rr", func(ctx *ExecCtx) RunResult {
		for {
			_, ok, closed := work.Pop()
			if closed {
				close(done)
				return RunDone
			}
			if !ok {
				return RunIdle
			}
			if ctx.CountItem() {
				return RunYield
			}
		}
	})
	s.Schedule(task)
	select {
	case <-done:
	case <-time.After(time.Second):
		t.Fatal("round-robin task starved")
	}
	// 10 items, 1 per activation, plus the final activation that sees the
	// closure: at least 11 runs.
	if task.Runs() < 11 {
		t.Fatalf("runs = %d, want >= 11", task.Runs())
	}
}

func TestNonCooperativeRunsToCompletion(t *testing.T) {
	s := NewScheduler(1, NonCooperative)
	s.Start()
	defer s.Stop()
	work := NewChan(8)
	for i := 0; i < 1000; i++ {
		work.Push(value.Int(1))
	}
	work.Close()
	done := make(chan struct{})
	task := s.NewTask("nc", func(ctx *ExecCtx) RunResult {
		for {
			_, ok, closed := work.Pop()
			if closed {
				close(done)
				return RunDone
			}
			if !ok {
				return RunIdle
			}
			if ctx.CountItem() {
				return RunYield
			}
		}
	})
	s.Schedule(task)
	<-done
	if task.Runs() != 1 {
		t.Fatalf("non-cooperative task ran %d times, want 1", task.Runs())
	}
}

func TestSchedulerStats(t *testing.T) {
	s := NewScheduler(2, Cooperative)
	s.Start()
	defer s.Stop()
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		task := s.NewTask("t", func(ctx *ExecCtx) RunResult {
			wg.Done()
			return RunDone
		})
		s.Schedule(task)
	}
	waitDone(t, &wg, time.Second)
	st := s.Stats()
	if st.Scheduled != 10 || st.Executed != 10 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestSchedulerDefaultWorkerCount(t *testing.T) {
	s := NewScheduler(0, Cooperative)
	if s.Workers() <= 0 {
		t.Fatal("no workers")
	}
	if s.Policy().Name != "cooperative" {
		t.Fatal("policy")
	}
}

func TestStopTerminatesWorkers(t *testing.T) {
	s := NewScheduler(4, Cooperative)
	s.Start()
	stopDone := make(chan struct{})
	go func() {
		s.Stop()
		close(stopDone)
	}()
	select {
	case <-stopDone:
	case <-time.After(2 * time.Second):
		t.Fatal("Stop hung")
	}
}

func TestManyTasksManyWorkers(t *testing.T) {
	s := NewScheduler(8, Cooperative)
	s.Start()
	defer s.Stop()
	const n = 500
	var counter atomic.Int64
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		items := NewChan(4)
		for j := 0; j < 20; j++ {
			items.Push(value.Int(1))
		}
		items.Close()
		task := s.NewTask("worker-task", func(ctx *ExecCtx) RunResult {
			for {
				_, ok, closed := items.Pop()
				if closed {
					wg.Done()
					return RunDone
				}
				if !ok {
					return RunIdle
				}
				counter.Add(1)
				if ctx.CountItem() {
					return RunYield
				}
			}
		})
		s.Schedule(task)
	}
	waitDone(t, &wg, 10*time.Second)
	if counter.Load() != n*20 {
		t.Fatalf("processed %d items, want %d", counter.Load(), n*20)
	}
}
