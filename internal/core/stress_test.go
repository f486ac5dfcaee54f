package core

import (
	"sync"
	"testing"
	"time"

	"flick/internal/netstack"
	"flick/internal/value"
)

// TestPoolRecycleStress is the regression test for two teardown races:
// (1) a late connection callback scheduling a task between Reset's
// done-flag clearing and the active-gate drop, which used to run the body
// against stale input state and poison the fresh session; and (2)
// beginShutdown unregistering callbacks before closing connections, which
// lost the EOF wakeups and leaked instances. It hammers a pooled
// per-connection service with short-lived connections and requires every
// request to be answered and every instance to be recycled.
func TestPoolRecycleStress(t *testing.T) {
	if testing.Short() {
		t.Skip("stress test")
	}
	u := netstack.NewUserNet()
	p := NewPlatform(Config{Workers: 4, Transport: u})
	defer p.Close()

	tmpl := NewTemplate("echo")
	in := tmpl.AddInput("in", lineCodec)
	comp := tmpl.AddCompute("id", passthrough)
	out := tmpl.AddOutput("out", lineCodec)
	tmpl.Connect(in, comp)
	tmpl.Connect(comp, out)
	tmpl.AddPort("client", in, out, true)
	if err := tmpl.Validate(); err != nil {
		t.Fatal(err)
	}
	svc, err := p.Deploy(ServiceConfig{
		Name:       "echo",
		ListenAddr: "echo:1",
		Template:   tmpl,
		Dispatch:   PerConnection,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	svc.Pool().Prime(8)

	const (
		clients  = 8
		rounds   = 300
		deadline = 5 * time.Second
	)
	var wg sync.WaitGroup
	errCh := make(chan error, clients)
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			buf := make([]byte, 64)
			for r := 0; r < rounds; r++ {
				conn, err := u.Dial("echo:1")
				if err != nil {
					errCh <- err
					return
				}
				conn.SetReadDeadline(time.Now().Add(deadline))
				if _, err := conn.Write([]byte("ping\n")); err != nil {
					conn.Close()
					errCh <- err
					return
				}
				got := 0
				for got == 0 || buf[got-1] != '\n' {
					n, err := conn.Read(buf[got:])
					got += n
					if err != nil {
						conn.Close()
						errCh <- err
						return
					}
				}
				if string(buf[:got]) != "ping\n" {
					conn.Close()
					t.Errorf("round %d: echo = %q", r, buf[:got])
					return
				}
				conn.Close()
			}
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatalf("client error: %v", err)
	}

	// Every instance must eventually be recycled (no leaks).
	waitUntil := time.Now().Add(2 * time.Second)
	for time.Now().Before(waitUntil) {
		if len(svc.DumpLive()) == 0 {
			break
		}
		time.Sleep(10 * time.Millisecond)
	}
	if n := len(svc.DumpLive()); n != 0 {
		t.Fatalf("%d instances leaked:\n%v", n, svc.DumpLive())
	}
	st := svc.Pool().Stats()
	if st.Hits == 0 {
		t.Fatalf("pool never recycled (hits=%d builds=%d)", st.Hits, st.Builds)
	}
}

// TestSharedDispatchSecondWave verifies the Shared dispatcher creates a
// fresh accumulator after a full wave of connections has been bound.
func TestSharedDispatchSecondWave(t *testing.T) {
	u := netstack.NewUserNet()
	p := NewPlatform(Config{Workers: 2, Transport: u})
	defer p.Close()

	sink, _ := u.Listen("sink:w")
	defer sink.Close()
	got := make(chan string, 4)
	go func() {
		for {
			c, err := sink.Accept()
			if err != nil {
				return
			}
			go func() {
				defer c.Close()
				buf := make([]byte, 256)
				total := ""
				for {
					n, err := c.Read(buf)
					total += string(buf[:n])
					if err != nil {
						got <- total
						return
					}
				}
			}()
		}
	}()

	svc, err := p.Deploy(ServiceConfig{
		Name:         "merge",
		ListenAddr:   "merge:w",
		Template:     sharedTemplate(t),
		Dispatch:     Shared,
		SharedPorts:  []int{0, 1},
		BackendAddrs: map[int]string{2: "sink:w"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	for wave := 0; wave < 2; wave++ {
		c1, err := u.Dial("merge:w")
		if err != nil {
			t.Fatalf("wave %d: %v", wave, err)
		}
		c2, err := u.Dial("merge:w")
		if err != nil {
			t.Fatalf("wave %d: %v", wave, err)
		}
		c1.Write([]byte("a\n"))
		c2.Write([]byte("b\n"))
		c1.Close()
		c2.Close()
		select {
		case data := <-got:
			if data == "" {
				t.Fatalf("wave %d: empty sink data", wave)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("wave %d never completed", wave)
		}
	}
}

// TestInstanceDebugString exercises the diagnostics path.
func TestInstanceDebugString(t *testing.T) {
	p := NewPlatform(Config{Workers: 1, Transport: netstack.NewUserNet()})
	defer p.Close()
	tmpl := NewTemplate("dbg")
	in := tmpl.AddInput("in", lineCodec)
	comp := tmpl.AddCompute("id", func(ctx *NodeCtx, v value.Value, _ int) { ctx.Emit(0, v) })
	out := tmpl.AddOutput("out", lineCodec)
	tmpl.Connect(in, comp)
	tmpl.Connect(comp, out)
	tmpl.AddPort("client", in, out, true)
	inst := NewInstance(tmpl, p.Scheduler())
	s := inst.DebugString()
	for _, want := range []string{"dbg", "input", "compute", "output", "phase=idle"} {
		if !contains(s, want) {
			t.Fatalf("DebugString missing %q:\n%s", want, s)
		}
	}
}

func contains(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}
