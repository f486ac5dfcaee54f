package core

import (
	"net"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"flick/internal/netstack"
	"flick/internal/value"
)

// stampAt reads request i's stamp as the reader sees it; i must lie in
// [recorded, decoded).
func (l *ledger) stampAt(i uint64) int64 {
	s := *l.stamps.Load()
	return s[i&uint64(len(s)-1)]
}

// TestLedgerOneWriterOneReader: a writer goroutine pushes stamps while a
// reader goroutine answers and flushes them, lagging by up to a few
// hundred, so the array grows several times under the reader. Every stamp
// is read back once and in order, owed agrees with the counts on both
// sides of each reading, and every answered response is recorded once.
func TestLedgerOneWriterOneReader(t *testing.T) {
	const n = 20000
	sl := NewServiceLatency("ledger", 1)
	l := &ledger{sl: sl}
	for pass := 0; pass < 2; pass++ { // the second binding reuses the array
		var wg sync.WaitGroup
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < n; i++ {
				l.push(int64(i)*3 + 1)
			}
		}()
		for next := uint64(0); next < n; {
			d := l.decoded.Load()
			owed := l.owed()
			d2 := l.decoded.Load()
			if d > next && !owed || owed && d2 <= next {
				t.Fatalf("owed %v with %d..%d decoded and %d answered", owed, d, d2, next)
			}
			if !owed {
				continue
			}
			l.answer()
			if l.answered != next+1 {
				t.Fatalf("answered %d, want %d", l.answered, next+1)
			}
			if got, want := l.stampAt(next), int64(next)*3+1; got != want {
				t.Fatalf("stamp %d = %d, want %d", next, got, want)
			}
			next++
			if next%uint64(1+next/64%300) == 0 {
				l.flushed(0)
			}
		}
		wg.Wait()
		l.answer() // nothing left: clamped
		l.flushed(0)
		if l.owed() || l.answered != n || l.recorded.Load() != n {
			t.Fatalf("end: owed %v, answered %d, recorded %d, want false, %d, %d", l.owed(), l.answered, l.recorded.Load(), n, n)
		}
		if got := sl.Total().Count(); got != uint64(n*(pass+1)) {
			t.Fatalf("recorded %d responses, want %d", got, n*(pass+1))
		}
		if c := len(*l.stamps.Load()); c < 256 {
			t.Fatalf("array of %d stamps: the reader lagged up to 299, so it grew past 256", c)
		}
		l.reset()
	}
}

// heldTemplate: client in → answer → client out on one primary port. A
// line "held" is owed but never answered (a memcached quiet GET that
// misses), a line "interim" is answered twice (an HTTP 1xx interim, then
// the final response), and any other line is echoed once.
func heldTemplate(t *testing.T, onHeld func()) *Template {
	t.Helper()
	tmpl := NewTemplate("held")
	in := tmpl.AddInput("in", lineCodec)
	comp := tmpl.AddCompute("answer", func(ctx *NodeCtx, v value.Value, _ int) {
		switch v.Field("line").AsString() {
		case "held":
			onHeld()
		case "interim":
			rec := lineCodec.Desc().New()
			rec.SetField("line", value.Str("100"))
			ctx.Emit(0, rec)
			ctx.Emit(0, v)
		default:
			ctx.Emit(0, v)
		}
	})
	out := tmpl.AddOutput("out", lineCodec)
	tmpl.Connect(in, comp)
	tmpl.Connect(comp, out)
	tmpl.AddPort("client", in, out, true)
	if err := tmpl.Validate(); err != nil {
		t.Fatal(err)
	}
	return tmpl
}

// startScheduler starts a cooperative scheduler that stops once the
// test's later cleanups have run.
func startScheduler(t *testing.T, workers int) *Scheduler {
	s := NewScheduler(workers, Cooperative)
	s.Start()
	t.Cleanup(s.Stop)
	return s
}

// startHeld binds a fresh instance of heldTemplate, with its own latency
// signal, to a UserNet connection and returns the client end. The client
// is closed, and the instance finished, when the test ends.
func startHeld(t *testing.T, s *Scheduler, onHeld func()) (net.Conn, *ServiceLatency) {
	t.Helper()
	u := netstack.NewUserNet()
	l, err := u.Listen("held:1")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		accepted <- c
	}()
	client, err := u.Dial("held:1")
	if err != nil {
		t.Fatal(err)
	}
	inst := NewInstance(heldTemplate(t, onHeld), s)
	sl := NewServiceLatency("held", s.Workers())
	inst.installLatency(sl)
	inst.Bind(0, <-accepted)
	inst.Start()
	t.Cleanup(func() {
		client.Close()
		if !waitPhase(inst, phaseFinished, 2*time.Second) {
			t.Errorf("instance not finished after the client closed:\n%s", inst.DebugString())
		}
	})
	return client, sl
}

// TestLatencyRecordedAtFlush: a response deferred to its round end is
// recorded by the round-end flush, not when it is encoded. The client
// pipelines "a" and "held"; "a"'s response waits for the round end while
// "held" is owed, and a task holding the worker keeps the round open.
func TestLatencyRecordedAtFlush(t *testing.T) {
	s := startScheduler(t, 1)
	var quit atomic.Bool
	blocked, release := make(chan struct{}), make(chan struct{})
	holder := s.NewTask("holder", func(*ExecCtx) RunResult {
		if s.Stats().Deferred == 0 && !quit.Load() {
			return RunYield // let the output defer first
		}
		close(blocked)
		<-release
		return RunDone
	})
	client, sl := startHeld(t, s, func() { s.Schedule(holder) })
	var once sync.Once
	free := func() {
		quit.Store(true)
		once.Do(func() { close(release) })
	}
	t.Cleanup(free) // a failing test must not leave the worker held
	if _, err := client.Write([]byte("a\nheld\n")); err != nil {
		t.Fatal(err)
	}
	select {
	case <-blocked:
	case <-time.After(5 * time.Second):
		t.Fatal("the holder never ran")
	}
	deferred := s.Stats().Deferred
	got := sl.Total().Count()
	free()
	if deferred != 1 || got != 0 {
		t.Fatalf("with the response deferred: %d deferred, %d recorded, want 1 and 0", deferred, got)
	}
	if line := readLines(t, client, 1)[0]; line != "a" {
		t.Fatalf("got %q, want a", line)
	}
	if got := sl.Total().Count(); got != 1 {
		t.Fatalf("after the round-end flush: %d recorded, want 1", got)
	}
}

// TestInterimLeavesNextRequestOwed: a request answered by an interim and a
// final response counts as one answer, so the next pipelined batch is
// still owed its last response after the first, and the output defers.
func TestInterimLeavesNextRequestOwed(t *testing.T) {
	s := startScheduler(t, 1)
	client, sl := startHeld(t, s, func() {})
	if _, err := client.Write([]byte("interim\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLines(t, client, 2); got[0] != "100" || got[1] != "interim" {
		t.Fatalf("got %q, want [100 interim]", got)
	}
	if d := s.Stats().Deferred; d != 0 {
		t.Fatalf("%d deferred before the pipelined batch, want 0", d)
	}
	if _, err := client.Write([]byte("a\nheld\n")); err != nil {
		t.Fatal(err)
	}
	if line := readLines(t, client, 1)[0]; line != "a" {
		t.Fatalf("got %q, want a", line)
	}
	if d := s.Stats().Deferred; d != 1 {
		t.Fatalf("%d deferred for a response sent while \"held\" is owed, want 1", d)
	}
	// The final response after the interim found nothing left to answer,
	// so it was not recorded: one record each for "interim" and "a".
	if got := sl.Total().Count(); got != 2 {
		t.Fatalf("%d recorded, want 2", got)
	}
}
