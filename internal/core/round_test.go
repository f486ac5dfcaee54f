package core

import (
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"flick/internal/buffer"
)

// roundPolicies are the three §6.4 policies; rounds must behave under each.
var roundPolicies = []Policy{Cooperative, NonCooperative, RoundRobin}

// waitFor polls cond for up to a second.
func waitFor(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(100 * time.Microsecond)
	}
}

// TestDeferredTaskRunsOnceAtRoundEnd: a task that returns RunDefer runs
// exactly once more, with RoundEnd true, after every task queued with it
// has run.
func TestDeferredTaskRunsOnceAtRoundEnd(t *testing.T) {
	for _, pol := range roundPolicies {
		t.Run(pol.Name, func(t *testing.T) {
			s := NewScheduler(1, pol)
			var seq atomic.Int64
			var lastOther atomic.Int64
			var endAt, endFlag atomic.Int64
			d := s.NewTask("deferring", func(ctx *ExecCtx) RunResult {
				if ctx.RoundEnd() {
					endFlag.Add(1)
					endAt.Store(seq.Add(1))
					return RunIdle
				}
				seq.Add(1)
				return RunDefer
			})
			// Queued behind d before the worker starts: one inbox batch.
			s.Schedule(d)
			for i := 0; i < 8; i++ {
				s.Schedule(s.NewTask("other", func(*ExecCtx) RunResult {
					lastOther.Store(seq.Add(1))
					return RunIdle
				}))
			}
			s.Start()
			defer s.Stop()
			waitFor(t, "the round-end activation", func() bool { return endAt.Load() != 0 })
			time.Sleep(5 * time.Millisecond) // a second round end would show here
			if got := d.Runs(); got != 2 {
				t.Fatalf("deferred task ran %d times, want 2", got)
			}
			if endFlag.Load() != 1 {
				t.Fatalf("RoundEnd activations = %d, want 1", endFlag.Load())
			}
			if endAt.Load() < lastOther.Load() {
				t.Fatalf("round end ran at step %d, before the last queued task (step %d)", endAt.Load(), lastOther.Load())
			}
			if st := s.Stats(); st.Deferred != 1 || st.RoundFlushes != 1 {
				t.Fatalf("Deferred %d RoundFlushes %d, want 1 and 1", st.Deferred, st.RoundFlushes)
			}
		})
	}
}

// TestScheduleOnDeferredTaskIsNoop: while a task waits for its round end,
// Schedule enqueues nothing, and what was pushed meanwhile is consumed by
// the round-end activation.
func TestScheduleOnDeferredTaskIsNoop(t *testing.T) {
	for _, pol := range roundPolicies {
		t.Run(pol.Name, func(t *testing.T) {
			s := NewScheduler(1, pol)
			var pending, atEnd atomic.Int64
			d := s.NewTask("consumer", func(ctx *ExecCtx) RunResult {
				n := pending.Swap(0)
				if ctx.RoundEnd() {
					atEnd.Store(n + 1) // +1: the activation happened
					return RunIdle
				}
				return RunDefer
			})
			producer := s.NewTask("producer", func(*ExecCtx) RunResult {
				for i := 0; i < 3; i++ {
					pending.Add(1)
					s.Schedule(d)
				}
				return RunDone
			})
			s.Schedule(d)
			s.Schedule(producer)
			s.Start()
			defer s.Stop()
			waitFor(t, "the round-end activation", func() bool { return atEnd.Load() != 0 })
			if got := atEnd.Load() - 1; got != 3 {
				t.Fatalf("round end consumed %d items, want 3", got)
			}
			if got := d.Runs(); got != 2 {
				t.Fatalf("consumer ran %d times, want 2", got)
			}
			if got := s.Stats().Scheduled; got != 2 {
				t.Fatalf("scheduled %d times, want 2 (Schedule on a deferred task enqueues)", got)
			}
		})
	}
}

// TestRoundEndBoundedUnderLoad: under an endless stream of other work the
// worker never runs out of tasks, yet a deferred task still gets its
// round-end activation — within the quantum, or within drainBatch
// activations under a policy without one.
func TestRoundEndBoundedUnderLoad(t *testing.T) {
	policies := []Policy{CooperativeQuantum(2 * time.Millisecond), NonCooperative, RoundRobin}
	for _, pol := range policies {
		t.Run(pol.Name, func(t *testing.T) {
			s := NewScheduler(1, pol)
			var spins, spinsAtDefer, spinsAtEnd atomic.Int64
			var stop atomic.Bool
			var deferredAt, endedAt atomic.Int64
			spinner := s.NewTask("spinner", func(*ExecCtx) RunResult {
				spins.Add(1)
				if stop.Load() {
					return RunDone
				}
				return RunYield
			})
			d := s.NewTask("deferring", func(ctx *ExecCtx) RunResult {
				if ctx.RoundEnd() {
					endedAt.Store(time.Now().UnixNano())
					spinsAtEnd.Store(spins.Load())
					return RunIdle
				}
				spinsAtDefer.Store(spins.Load())
				deferredAt.Store(time.Now().UnixNano())
				return RunDefer
			})
			s.Schedule(d)
			s.Schedule(spinner)
			s.Start()
			defer s.Stop()
			defer stop.Store(true)
			deadline := time.Now().Add(5 * time.Second)
			for endedAt.Load() == 0 {
				if time.Now().After(deadline) {
					t.Fatalf("deferred task never reached its round end under load (%d spins)", spins.Load())
				}
				time.Sleep(100 * time.Microsecond)
			}
			between := spinsAtEnd.Load() - spinsAtDefer.Load()
			if pol.Quantum > 0 {
				// Generous slack: a loaded machine may deschedule the worker.
				waited := time.Duration(endedAt.Load() - deferredAt.Load())
				if waited > pol.Quantum+100*time.Millisecond {
					t.Fatalf("round end after %v, quantum %v", waited, pol.Quantum)
				}
				return
			}
			if between > drainBatch {
				t.Fatalf("round end after %d other activations, want <= %d", between, drainBatch)
			}
		})
	}
}

// TestStopRunsRoundEndList: a task deferred while the scheduler stops still
// gets its round-end activation before its worker exits, so the pooled
// region its flush holds goes back.
func TestStopRunsRoundEndList(t *testing.T) {
	pool := buffer.NewPool(4)
	s := NewScheduler(1, Cooperative)
	started := make(chan struct{})
	var held *buffer.Ref
	var ends atomic.Int32
	d := s.NewTask("holder", func(ctx *ExecCtx) RunResult {
		if ctx.RoundEnd() {
			ends.Add(1)
			held.Release()
			return RunIdle
		}
		held = pool.GetRef(512)
		close(started)
		for !s.stopped.Load() {
			runtime.Gosched()
		}
		return RunDefer
	})
	s.Start()
	s.Schedule(d)
	<-started
	s.Stop()
	if ends.Load() != 1 {
		t.Fatalf("round-end activations before Stop returned = %d, want 1", ends.Load())
	}
	if st := pool.Stats(); st.RefGets != st.RefPuts {
		t.Fatalf("pool refs: %d got, %d put", st.RefGets, st.RefPuts)
	}
}
