package core

import (
	"bytes"
	"io"
	"net"
	"runtime"
	"strings"
	"testing"
	"time"

	"flick/internal/buffer"
	"flick/internal/netstack"
	"flick/internal/value"
)

// echoTemplate builds input → uppercase → output with one primary port.
func echoTemplate(t testing.TB) *Template {
	t.Helper()
	tmpl := NewTemplate("upper")
	in := tmpl.AddInput("in", lineCodec)
	comp := tmpl.AddCompute("upper", func(ctx *NodeCtx, v value.Value, _ int) {
		line := strings.ToUpper(v.Field("line").AsString())
		rec := lineCodec.Desc().New()
		rec.SetField("line", value.Str(line))
		ctx.Emit(0, rec)
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

func startPlatform(t *testing.T, tr netstack.Transport) *Platform {
	t.Helper()
	p := NewPlatform(Config{Workers: 4, Transport: tr})
	t.Cleanup(p.Close)
	return p
}

func TestInstanceEndToEndUserNet(t *testing.T) {
	u := netstack.NewUserNet()
	p := startPlatform(t, u)
	svc, err := p.Deploy(ServiceConfig{
		Name:       "upper",
		ListenAddr: "upper:1",
		Template:   echoTemplate(t),
		Dispatch:   PerConnection,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	conn, err := u.Dial("upper:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if _, err := conn.Write([]byte("hello\nworld\n")); err != nil {
		t.Fatal(err)
	}
	got := readLines(t, conn, 2)
	if got[0] != "HELLO" || got[1] != "WORLD" {
		t.Fatalf("got %q", got)
	}
}

func TestInstanceEndToEndKernelTCP(t *testing.T) {
	p := startPlatform(t, netstack.KernelTCP{})
	svc, err := p.Deploy(ServiceConfig{
		Name:       "upper",
		ListenAddr: "127.0.0.1:0",
		Template:   echoTemplate(t),
		Dispatch:   PerConnection,
	})
	if err != nil {
		t.Skipf("loopback unavailable: %v", err)
	}
	defer svc.Close()
	conn, err := net.Dial("tcp", svc.Addr())
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("kernel\n"))
	got := readLines(t, conn, 1)
	if got[0] != "KERNEL" {
		t.Fatalf("got %q", got)
	}
}

func readLines(t *testing.T, conn net.Conn, n int) []string {
	t.Helper()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	var buf bytes.Buffer
	tmp := make([]byte, 1024)
	for bytes.Count(buf.Bytes(), []byte{'\n'}) < n {
		m, err := conn.Read(tmp)
		buf.Write(tmp[:m])
		if err != nil {
			if err == io.EOF {
				break
			}
			t.Fatalf("read: %v (have %q)", err, buf.String())
		}
	}
	lines := strings.Split(strings.TrimRight(buf.String(), "\n"), "\n")
	if len(lines) < n {
		t.Fatalf("got %d lines %q, want %d", len(lines), lines, n)
	}
	return lines
}

func TestInstanceFinishesOnClientClose(t *testing.T) {
	u := netstack.NewUserNet()
	p := startPlatform(t, u)
	tmpl := echoTemplate(t)
	inst := NewInstance(tmpl, p.Scheduler())

	l, _ := u.Listen("direct:1")
	connCh := make(chan net.Conn, 1)
	go func() {
		c, _ := l.Accept()
		connCh <- c
	}()
	client, _ := u.Dial("direct:1")
	server := <-connCh
	inst.Bind(0, netstack.Events(server, buffer.Global))
	inst.Start()

	client.Write([]byte("one\n"))
	got := readLines(t, client, 1)
	if got[0] != "ONE" {
		t.Fatalf("got %q", got)
	}
	client.Close()
	if !waitPhase(inst, phaseFinished, 2*time.Second) {
		t.Fatal("instance did not finish after client close")
	}
}

// TestInstanceServesNetPipe: a connection that is neither kernel TCP nor
// UserNet (net.Pipe) is read through netstack.Events' pump like any
// blocking socket; the instance serves it, finishes when the client hangs
// up, and leaves no pump goroutine behind.
func TestInstanceServesNetPipe(t *testing.T) {
	p := startPlatform(t, netstack.NewUserNet())
	base := runtime.NumGoroutine()
	inst := NewInstance(echoTemplate(t), p.Scheduler())
	client, server := net.Pipe()
	inst.Bind(0, netstack.Events(server, buffer.Global))
	inst.Start()
	if _, err := client.Write([]byte("pipe\n")); err != nil {
		t.Fatal(err)
	}
	if got := readLines(t, client, 1); got[0] != "PIPE" {
		t.Fatalf("got %q", got)
	}
	client.Close()
	if !waitPhase(inst, phaseFinished, 2*time.Second) {
		t.Fatalf("instance did not finish after client close:\n%s", inst.DebugString())
	}
	for deadline := time.Now().Add(2 * time.Second); runtime.NumGoroutine() > base; time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("%d goroutines after the instance finished, %d before it started", runtime.NumGoroutine(), base)
		}
	}
}

// waitPhase polls inst until it reaches phase want, reporting false if the
// timeout passes first.
func waitPhase(inst *Instance, want phase, timeout time.Duration) bool {
	deadline := time.Now().Add(timeout)
	for inst.phase() != want {
		if time.Now().After(deadline) {
			return false
		}
		time.Sleep(time.Millisecond)
	}
	return true
}

func TestInstanceResetReuse(t *testing.T) {
	u := netstack.NewUserNet()
	p := startPlatform(t, u)
	tmpl := echoTemplate(t)
	inst := NewInstance(tmpl, p.Scheduler())
	l, _ := u.Listen("reuse:1")
	acceptOne := func() (client, server net.Conn) {
		ch := make(chan net.Conn, 1)
		go func() {
			c, _ := l.Accept()
			ch <- c
		}()
		client, _ = u.Dial("reuse:1")
		return client, <-ch
	}

	for round := 0; round < 3; round++ {
		client, server := acceptOne()
		inst.Bind(0, netstack.Events(server, buffer.Global))
		inst.Start()
		client.Write([]byte("ping\n"))
		got := readLines(t, client, 1)
		if got[0] != "PING" {
			t.Fatalf("round %d: got %q", round, got)
		}
		client.Close()
		if !waitPhase(inst, phaseFinished, 2*time.Second) {
			t.Fatalf("round %d: did not finish", round)
		}
		inst.Reset()
	}
}

// proxyTemplate: client_in → fwd → backend_out; backend_in → fwd2 →
// client_out. Models the HTTP LB / Memcached proxy shape.
func proxyTemplate(t *testing.T) *Template {
	t.Helper()
	tmpl := NewTemplate("proxy")
	cin := tmpl.AddInput("client_in", lineCodec)
	f1 := tmpl.AddCompute("fwd_req", passthrough)
	bout := tmpl.AddOutput("backend_out", lineCodec)
	bin := tmpl.AddInput("backend_in", lineCodec)
	f2 := tmpl.AddCompute("fwd_resp", passthrough)
	cout := tmpl.AddOutput("client_out", lineCodec)
	tmpl.Connect(cin, f1)
	tmpl.Connect(f1, bout)
	tmpl.Connect(bin, f2)
	tmpl.Connect(f2, cout)
	tmpl.AddPort("client", cin, cout, true)
	tmpl.AddPort("backend", bin, bout, false)
	if err := tmpl.Validate(); err != nil {
		t.Fatal(err)
	}
	return tmpl
}

func TestProxyGraphWithBackendDial(t *testing.T) {
	u := netstack.NewUserNet()
	p := startPlatform(t, u)

	// Echo backend that shouts.
	bl, _ := u.Listen("backend:1")
	defer bl.Close()
	go func() {
		for {
			c, err := bl.Accept()
			if err != nil {
				return
			}
			go func(c net.Conn) {
				defer c.Close()
				buf := make([]byte, 1024)
				for {
					n, err := c.Read(buf)
					if n > 0 {
						c.Write([]byte(strings.ToUpper(string(buf[:n]))))
					}
					if err != nil {
						return
					}
				}
			}(c)
		}
	}()

	svc, err := p.Deploy(ServiceConfig{
		Name:         "proxy",
		ListenAddr:   "proxy:1",
		Template:     proxyTemplate(t),
		Dispatch:     PerConnection,
		ClientPort:   0,
		BackendAddrs: map[int]string{1: "backend:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	conn, err := u.Dial("proxy:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.Write([]byte("through\n"))
	got := readLines(t, conn, 1)
	if got[0] != "THROUGH" {
		t.Fatalf("got %q", got)
	}
}

func TestPrimaryPortShutdownClosesBackends(t *testing.T) {
	u := netstack.NewUserNet()
	p := startPlatform(t, u)

	backendClosed := make(chan struct{})
	bl, _ := u.Listen("backend:2")
	go func() {
		c, err := bl.Accept()
		if err != nil {
			return
		}
		io.Copy(io.Discard, c) // read until the proxy closes us
		close(backendClosed)
	}()

	svc, err := p.Deploy(ServiceConfig{
		Name:         "proxy",
		ListenAddr:   "proxy:2",
		Template:     proxyTemplate(t),
		Dispatch:     PerConnection,
		BackendAddrs: map[int]string{1: "backend:2"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	conn, _ := u.Dial("proxy:2")
	conn.Write([]byte("x\n"))
	time.Sleep(20 * time.Millisecond)
	conn.Close() // primary port EOF → instance shutdown → backend closed
	select {
	case <-backendClosed:
	case <-time.After(2 * time.Second):
		t.Fatal("backend connection not closed after client EOF")
	}
}

// sharedTemplate: two inputs merge into one compute, one write-only output
// port (the Hadoop aggregator shape in miniature).
func sharedTemplate(t *testing.T) *Template {
	t.Helper()
	tmpl := NewTemplate("merge")
	in1 := tmpl.AddInput("in1", lineCodec)
	in2 := tmpl.AddInput("in2", lineCodec)
	merge := tmpl.AddCompute("merge", passthrough)
	out := tmpl.AddOutput("out", lineCodec)
	tmpl.Connect(in1, merge)
	tmpl.Connect(in2, merge)
	tmpl.Connect(merge, out)
	tmpl.AddPort("m1", in1, nil, false)
	tmpl.AddPort("m2", in2, nil, false)
	tmpl.AddPort("sink", nil, out, false)
	if err := tmpl.Validate(); err != nil {
		t.Fatal(err)
	}
	return tmpl
}

func TestSharedDispatchMergesInputs(t *testing.T) {
	u := netstack.NewUserNet()
	p := startPlatform(t, u)

	// Sink collects the merged stream.
	sink, _ := u.Listen("sink:1")
	collected := make(chan string, 1)
	go func() {
		c, err := sink.Accept()
		if err != nil {
			return
		}
		data, _ := io.ReadAll(c)
		collected <- string(data)
	}()

	svc, err := p.Deploy(ServiceConfig{
		Name:         "merge",
		ListenAddr:   "merge:1",
		Template:     sharedTemplate(t),
		Dispatch:     Shared,
		SharedPorts:  []int{0, 1},
		BackendAddrs: map[int]string{2: "sink:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	c1, err := u.Dial("merge:1")
	if err != nil {
		t.Fatal(err)
	}
	c2, err := u.Dial("merge:1")
	if err != nil {
		t.Fatal(err)
	}
	c1.Write([]byte("alpha\n"))
	c2.Write([]byte("beta\n"))
	c1.Close()
	c2.Close()

	select {
	case data := <-collected:
		if !strings.Contains(data, "alpha\n") || !strings.Contains(data, "beta\n") {
			t.Fatalf("merged output %q", data)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("merged stream never arrived at sink")
	}
}

func TestComputeStateAndEOFHook(t *testing.T) {
	u := netstack.NewUserNet()
	p := startPlatform(t, u)

	// Counting node: accumulates line count, emits it at EOF.
	tmpl := NewTemplate("count")
	in := tmpl.AddInput("in", lineCodec)
	count := tmpl.AddCompute("count", func(ctx *NodeCtx, v value.Value, _ int) {
		*(ctx.State.(*int))++
	})
	count.NewState = func() any { n := 0; return &n }
	count.OnEOF = func(ctx *NodeCtx, _ int) {
		rec := lineCodec.Desc().New()
		rec.SetField("line", value.Int(int64(*(ctx.State.(*int)))))
		rec.SetField("line", value.Str(itoa(*(ctx.State.(*int)))))
		ctx.Emit(0, rec)
	}
	out := tmpl.AddOutput("out", lineCodec)
	tmpl.Connect(in, count)
	tmpl.Connect(count, out)
	tmpl.AddPort("src", in, nil, false)
	tmpl.AddPort("dst", nil, out, false)
	if err := tmpl.Validate(); err != nil {
		t.Fatal(err)
	}

	sink, _ := u.Listen("csink:1")
	result := make(chan string, 1)
	go func() {
		c, _ := sink.Accept()
		data, _ := io.ReadAll(c)
		result <- strings.TrimSpace(string(data))
	}()

	_, err := p.Deploy(ServiceConfig{
		Name:         "count",
		ListenAddr:   "count:1",
		Template:     tmpl,
		Dispatch:     Shared,
		SharedPorts:  []int{0},
		BackendAddrs: map[int]string{1: "csink:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	c, _ := u.Dial("count:1")
	c.Write([]byte("a\nb\nc\n"))
	c.Close()
	select {
	case got := <-result:
		if got != "3" {
			t.Fatalf("count = %q", got)
		}
	case <-time.After(3 * time.Second):
		t.Fatal("no count arrived")
	}
}

func itoa(n int) string {
	if n == 0 {
		return "0"
	}
	var b [20]byte
	i := len(b)
	for n > 0 {
		i--
		b[i] = byte('0' + n%10)
		n /= 10
	}
	return string(b[i:])
}

func TestGraphPoolReuse(t *testing.T) {
	p := NewPlatform(Config{Workers: 2, Transport: netstack.NewUserNet()})
	defer p.Close()
	tmpl := echoTemplate(t)
	pool := NewGraphPool(tmpl, p.Scheduler())
	pool.Prime(2)
	a := pool.Get()
	b := pool.Get()
	c := pool.Get() // pool exhausted → build
	st := pool.Stats()
	if st.Hits != 2 || st.Builds != 1 {
		t.Fatalf("stats = %+v", st)
	}
	// Simulate completion so Put can reset cleanly.
	for _, inst := range []*Instance{a, b, c} {
		inst.Close()
		pool.Put(inst)
	}
	d := pool.Get()
	if d != c && d != b && d != a {
		t.Fatal("expected a recycled instance")
	}
}

// BenchmarkGraphPoolReuse prices the graph pool (§5: "a pre-allocated pool
// of task graphs to avoid the overhead of construction") per connection:
// reuse takes a pooled instance through bind and release (Get, Bind, Put:
// the bound → idle edge), build constructs and binds a fresh one.
func BenchmarkGraphPoolReuse(b *testing.B) {
	tmpl := echoTemplate(b)
	sched := NewScheduler(1, Cooperative)
	// A UserNet connection is already a netstack.Conn, so binding it
	// starts no pump goroutine: the loops price the pool alone.
	u := netstack.NewUserNet()
	l, err := u.Listen("pool:1")
	if err != nil {
		b.Fatal(err)
	}
	conn, err := u.Dial("pool:1")
	if err != nil {
		b.Fatal(err)
	}
	peer, err := l.Accept()
	if err != nil {
		b.Fatal(err)
	}
	defer peer.Close()
	b.Run("reuse", func(b *testing.B) {
		pool := NewGraphPool(tmpl, sched)
		pool.Prime(1)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			inst := pool.Get()
			inst.Bind(0, conn.(netstack.Conn))
			pool.Put(inst)
		}
	})
	b.Run("build", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			NewInstance(tmpl, sched).Bind(0, conn.(netstack.Conn))
		}
	})
}

func TestDeployInvalidTemplate(t *testing.T) {
	p := NewPlatform(Config{Workers: 1, Transport: netstack.NewUserNet()})
	defer p.Close()
	bad := NewTemplate("bad")
	bad.AddInput("in", lineCodec) // dangling
	if _, err := p.Deploy(ServiceConfig{ListenAddr: "x:1", Template: bad}); err == nil {
		t.Fatal("invalid template deployed")
	}
}

func TestDeployBadBackendAddr(t *testing.T) {
	u := netstack.NewUserNet()
	p := startPlatform(t, u)
	svc, err := p.Deploy(ServiceConfig{
		Name:         "proxy",
		ListenAddr:   "proxy:9",
		Template:     proxyTemplate(t),
		Dispatch:     PerConnection,
		BackendAddrs: map[int]string{1: "ghost:1"},
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()
	conn, err := u.Dial("proxy:9")
	if err != nil {
		t.Fatal(err)
	}
	// The dispatcher fails to dial the backend and closes our connection.
	conn.SetReadDeadline(time.Now().Add(2 * time.Second))
	buf := make([]byte, 1)
	if _, err := conn.Read(buf); err == nil {
		t.Fatal("expected connection close")
	}
}

func TestPlatformCloseIdempotent(t *testing.T) {
	p := NewPlatform(Config{Workers: 1, Transport: netstack.NewUserNet()})
	p.Close()
	p.Close()
}
