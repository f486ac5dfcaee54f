package compiler

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"testing"

	"flick/internal/core"
	"flick/internal/netstack"
	"flick/internal/value"
)

// deployEcho compiles src, whose single process "echo" has one
// bidirectional channel "client" of fixed 8-byte records, deploys it on a
// user-space platform and returns a client connection to it.
func deployEcho(t *testing.T, src string, setup func(*Program)) net.Conn {
	t.Helper()
	prog, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if setup != nil {
		setup(prog)
	}
	pg, err := prog.Proc("echo")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := pg.PortIndex("client")
	if err != nil {
		t.Fatal(err)
	}
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 2, Transport: u})
	t.Cleanup(p.Close)
	svc, err := p.Deploy(core.ServiceConfig{
		Name: "echo", ListenAddr: "echo:1", Template: pg.Template,
		Dispatch: core.PerConnection, ClientPort: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(svc.Close)
	conn, err := u.Dial("echo:1")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	return conn
}

// nestedFoldSource forwards each message through three levels of user
// function calls, one of which folds a list through a fourth function.
// The list comes from the process's key/value store, so building it is not
// per-message work.
const nestedFoldSource = `
type msg: record
    key : string {size=8}

proc echo: (msg/msg client)
    global tbl := empty_dict
    | client => stage(tbl) => client

fun stage: (tbl: ref dict<string*list<string>>, m: msg) -> (msg)
    let n = fold(add, 0, tbl["words"])
    keep(m, n)

fun add: (acc: integer, w: string) -> (integer)
    acc + len(w)

fun keep: (m: msg, n: integer) -> (msg)
    pass(m, n + 1)

fun pass: (m: msg, n: integer) -> (msg)
    m
`

// TestPipelineZeroAlloc is the allocation gate for compiled programs: a
// message through a pipeline stage that calls nested user functions and a
// fold — plus the scheduler activations and codecs around it — allocates
// nothing once the instance has warmed up.
func TestPipelineZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are meaningless under -race")
	}
	conn := deployEcho(t, nestedFoldSource, func(p *Program) {
		p.Globals("echo")[0].P.(*value.Dict).Set("words", value.List(value.Str("a"), value.Str("bb"), value.Str("ccc")))
	})
	msg := []byte("k0000001")
	buf := make([]byte, len(msg))
	roundTrip := func() {
		if _, err := conn.Write(msg); err != nil {
			t.Fatal(err)
		}
		if _, err := io.ReadFull(conn, buf); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 100; i++ {
		roundTrip()
	}
	if !bytes.Equal(buf, msg) {
		t.Fatalf("echoed %q, want %q", buf, msg)
	}
	if allocs := testing.AllocsPerRun(2000, roundTrip); allocs != 0 {
		t.Fatalf("compiled pipeline allocates %.1f/message, want 0", allocs)
	}
}

// frameReuseSource keeps a value returned through two call levels in a
// local while later calls reuse the frames that produced it, and evaluates
// a call nested inside the arguments of another call.
const frameReuseSource = `
type msg: record
    key : string {size=8}

proc echo: (msg/msg client)
    | client => stage() => client

fun stage: (m: msg) -> (msg)
    let kept = outer(m.key)
    let other = outer("zzzzzzzz")
    msg(pick(kept, other, len(outer(other)) = 8))

fun outer: (k: string) -> (string)
    inner(k)

fun inner: (k: string) -> (string)
    k

fun pick: (a: string, b: string, ok: boolean) -> (string)
    if ok:
        a
    else:
        b
`

// TestFrameReuseKeepsReturnedValues pins the call-frame discipline: every
// call claims a frame below the innermost live one, so values the caller
// still holds — a local returned through two levels, an argument already
// evaluated into the callee's frame — survive the calls that reuse frames,
// message after message.
func TestFrameReuseKeepsReturnedValues(t *testing.T) {
	conn := deployEcho(t, frameReuseSource, nil)
	const messages = 64
	var want []byte
	for i := 0; i < messages; i++ {
		want = append(want, fmt.Sprintf("k%07d", i)...)
	}
	// All messages at once: the instance reuses its frames message after
	// message while earlier replies are still queued.
	if _, err := conn.Write(want); err != nil {
		t.Fatal(err)
	}
	got := make([]byte, len(want))
	if _, err := io.ReadFull(conn, got); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < messages; i++ {
		if g, w := got[i*8:i*8+8], want[i*8:i*8+8]; !bytes.Equal(g, w) {
			t.Fatalf("message %d: reply %q, want %q", i, g, w)
		}
	}
}
