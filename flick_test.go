package flick

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
	"time"
)

const echoProgram = `
type line: record
    line : string

proc echo: (line/line client)
    | client => identity() => client

fun identity: (msg: line) -> (line)
    msg
`

func TestCompileAndDeployEcho(t *testing.T) {
	svc, err := CompileService(echoProgram, ServiceOptions{
		Codecs: map[string]Codec{"line": LineCodec()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Graph.Name != "echo" {
		t.Fatalf("proc = %q", svc.Graph.Name)
	}
	if len(svc.Graph.Template.Nodes()) != 3 {
		t.Fatalf("tasks = %d", len(svc.Graph.Template.Nodes()))
	}
	p := NewPlatform(PlatformOptions{Workers: 2, InProcessNet: true})
	defer p.Close()
	d, err := p.Deploy(svc, "echo:1", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	if d.Addr() != "echo:1" {
		t.Fatalf("addr = %q", d.Addr())
	}

	conn, err := p.Dial("echo:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintln(conn, "round trip")
	got, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatal(err)
	}
	if strings.TrimSpace(got) != "round trip" {
		t.Fatalf("echo = %q", got)
	}
}

// TestPlatformSchedStats drives traffic through a deployed service and
// checks the scheduler counters are exposed (and moving) at the public API.
func TestPlatformSchedStats(t *testing.T) {
	svc, err := CompileService(echoProgram, ServiceOptions{
		Codecs: map[string]Codec{"line": LineCodec()},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(PlatformOptions{Workers: 2, InProcessNet: true})
	defer p.Close()
	d, err := p.Deploy(svc, "echo:stats", nil)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn, err := p.Dial("echo:stats")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	fmt.Fprintln(conn, "ping")
	if _, err := bufio.NewReader(conn).ReadString('\n'); err != nil {
		t.Fatal(err)
	}
	st := p.SchedStats()
	if st.Scheduled == 0 || st.Executed == 0 {
		t.Fatalf("scheduler stats did not move: %+v", st)
	}
}

func TestCompileServiceErrors(t *testing.T) {
	if _, err := CompileService("proc broken", ServiceOptions{}); err == nil {
		t.Fatal("syntax error accepted")
	}
	// Missing codec for a wire type without annotations.
	if _, err := CompileService(echoProgram, ServiceOptions{}); err == nil {
		t.Fatal("missing codec accepted")
	}
}

func TestDeployBackendMismatch(t *testing.T) {
	svc, err := CompileService(echoProgram, ServiceOptions{
		Codecs: map[string]Codec{"line": LineCodec()},
	})
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(PlatformOptions{Workers: 1, InProcessNet: true})
	defer p.Close()
	if _, err := p.Deploy(svc, "echo:2", []string{"ghost:1"}); err == nil {
		t.Fatal("spurious backend addresses accepted")
	}
}

func TestBuiltinCodecConstructors(t *testing.T) {
	for name, c := range map[string]Codec{
		"line":          LineCodec(),
		"memcached":     MemcachedCodec(),
		"hadoop":        HadoopKVCodec(),
		"http-request":  HTTPRequestCodec(),
		"http-response": HTTPResponseCodec(),
	} {
		if c.Decode == nil || c.Encode == nil {
			t.Fatalf("%s codec incomplete", name)
		}
		if c.Decode.Desc() == nil {
			t.Fatalf("%s codec has no descriptor", name)
		}
	}
}

func TestServiceProgramAccess(t *testing.T) {
	svc, err := CompileService(echoProgram, ServiceOptions{
		Codecs: map[string]Codec{"line": LineCodec()},
	})
	if err != nil {
		t.Fatal(err)
	}
	if svc.Program == nil || svc.Graph == nil {
		t.Fatal("program/graph accessors")
	}
	if svc.Program.Desc("line") == nil {
		t.Fatal("record descriptor missing")
	}
}

func TestPlatformKernelDefault(t *testing.T) {
	p := NewPlatform(PlatformOptions{Workers: 1})
	defer p.Close()
	if p.Transport().Name() != "kernel" {
		t.Fatalf("transport = %s", p.Transport().Name())
	}
}

// splitProgram has two channel arrays besides the client: neither is the
// only candidate backend channel, so one must be named.
const splitProgram = `
type line: record
    line : string

proc split: (line/line client, [line/-] left, [line/line] right)
    | left => client
    | right => client
    | client => to_right(right)

fun to_right: ([-/line] right, msg: line) -> ()
    msg => right[0]
`

// Regression: with two candidate backend channels the facade bound the
// addresses to whichever one a map walk met last, with no error.
func TestCompileAmbiguousBackendChannel(t *testing.T) {
	opts := ServiceOptions{
		ArraySizes: map[string]int{"left": 2, "right": 2},
		Codecs:     map[string]Codec{"line": LineCodec()},
	}
	_, err := CompileService(splitProgram, opts)
	if err == nil || !strings.Contains(err.Error(), `"left"`) || !strings.Contains(err.Error(), `"right"`) {
		t.Fatalf("ambiguous backend channel: err = %v, want one naming left and right", err)
	}

	opts.Backends = "right"
	svc, err := CompileService(splitProgram, opts)
	if err != nil {
		t.Fatal(err)
	}
	p := NewPlatform(PlatformOptions{Workers: 2, InProcessNet: true})
	defer p.Close()
	// Each backend echoes one line tagged with its address.
	for _, addr := range []string{"split:b0", "split:b1"} {
		l, err := p.Transport().Listen(addr)
		if err != nil {
			t.Fatal(err)
		}
		defer l.Close()
		go func(addr string) {
			c, err := l.Accept()
			if err != nil {
				return
			}
			defer c.Close()
			if line, err := bufio.NewReader(c).ReadString('\n'); err == nil {
				fmt.Fprintf(c, "%s %s", addr, line)
			}
		}(addr)
	}
	d, err := p.Deploy(svc, "split:1", []string{"split:b0", "split:b1"})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()
	conn, err := p.Dial("split:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	conn.SetReadDeadline(time.Now().Add(5 * time.Second))
	fmt.Fprintln(conn, "hello")
	got, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil {
		t.Fatalf("no reply through right[0]: %v", err)
	}
	if strings.TrimSpace(got) != "split:b0 hello" {
		t.Fatalf("reply = %q, want it from right[0] at split:b0", got)
	}
}
