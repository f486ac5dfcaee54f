package flick

import (
	"bufio"
	"fmt"
	"strings"
	"testing"
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
	if svc.ProcName() != "echo" {
		t.Fatalf("proc = %q", svc.ProcName())
	}
	if svc.TaskCount() != 3 {
		t.Fatalf("tasks = %d", svc.TaskCount())
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
	if svc.Program() == nil || svc.Graph() == nil {
		t.Fatal("program/graph accessors")
	}
	if svc.Program().Desc("line") == nil {
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
