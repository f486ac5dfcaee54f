package compiler

import (
	"fmt"
	"testing"

	"flick/internal/buffer"
	"flick/internal/core"
	"flick/internal/netstack"
	phttp "flick/internal/proto/http"
	"flick/internal/value"
)

// echoURISource constructs a response FROM a field of the pooled input
// message. The constructor must copy req.uri into owned memory: the
// runtime releases the request's pooled wire buffer as soon as the compute
// task returns, long before the output task serialises the response.
const echoURISource = `
type request: record
    uri : string
    keep_alive : integer

type response: record
    status : integer
    body : string

proc echo: (request/response client)
    | client => respond() => client

fun respond: (req: request) -> (response)
    response(200, req.uri)
`

// TestConstructorOwnsPooledArgs is the deterministic zero-copy regression
// test for records built by FLICK programs out of input-message fields. It
// drives the lowered `respond` closure directly with a request record whose
// uri field is a view into a pooled region, then recycles and overwrites
// that region exactly as the runtime would (release after the task, LIFO
// pool reuse on the next read) and asserts the constructed response still
// carries its own copy of the bytes.
func TestConstructorOwnsPooledArgs(t *testing.T) {
	prog, err := Compile(echoURISource, Config{Codecs: httpCodecs})
	if err != nil {
		t.Fatal(err)
	}

	pool := buffer.NewPool(4)
	ref := pool.GetRef(64)
	const uri = "/pooled-uri-0001"
	copy(ref.Bytes(), uri)
	req := phttp.RequestDesc.NewOwned(ref)
	req.SetField("uri", value.Bytes(ref.Bytes()[:len(uri)]))

	resp, err := prog.CallFunction("respond", req)
	if err != nil {
		t.Fatal(err)
	}

	// The runtime releases the request after the compute activation; the
	// pool's LIFO free list hands the same buffer to the next network read.
	req.Release()
	next := pool.GetRef(64)
	copy(next.Bytes(), "/XXXXXX-clobber!")
	defer next.Release()

	if got := resp.Field("body").AsString(); got != uri {
		t.Fatalf("constructed record's body = %q, want %q (argument view not copied out of the pooled region)", got, uri)
	}
}

// TestConstructorDetachesPooledViews pipelines requests through the full
// compiled echo service: every response must carry its own request's URI
// even as request buffers recycle underneath (end-to-end smoke for the
// same invariant TestConstructorOwnsPooledArgs pins deterministically).
func TestConstructorDetachesPooledViews(t *testing.T) {
	u := netstack.NewUserNet()
	p := core.NewPlatform(core.Config{Workers: 1, Transport: u})
	defer p.Close()

	prog, err := Compile(echoURISource, Config{Codecs: httpCodecs})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := prog.Proc("echo")
	if err != nil {
		t.Fatal(err)
	}
	cp, err := pg.PortIndex("client")
	if err != nil {
		t.Fatal(err)
	}
	svc, err := p.Deploy(core.ServiceConfig{
		Name: "echo", ListenAddr: "echo:1", Template: pg.Template,
		Dispatch: core.PerConnection, ClientPort: cp,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer svc.Close()

	conn, err := u.Dial("echo:1")
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()

	// Pipeline every request up front: while response i is still queued at
	// the output task, the input side keeps reading requests into pooled
	// chunks — the LIFO pool free list hands request i's recycled chunk
	// straight back, overwriting the bytes a leaked view would alias.
	const requests = 64
	go func() {
		var wbuf []byte
		for i := 0; i < requests; i++ {
			wbuf = phttp.BuildRequest(wbuf[:0], "GET", fmt.Sprintf("/request-%04d", i), "t", true, nil)
			if _, err := conn.Write(wbuf); err != nil {
				return
			}
		}
	}()

	q := buffer.NewQueue(nil)
	dec := phttp.ResponseFormat{}.NewDecoder()
	rbuf := make([]byte, 8192)
	for i := 0; i < requests; i++ {
		uri := fmt.Sprintf("/request-%04d", i)
		for {
			msg, ok, derr := dec.Decode(q)
			if derr != nil {
				t.Fatal(derr)
			}
			if ok {
				if got := msg.Field("body").AsString(); got != uri {
					t.Fatalf("response %d: body = %q, want %q (pooled view leaked into constructed record)", i, got, uri)
				}
				msg.Release()
				break
			}
			n, rerr := conn.Read(rbuf)
			if n > 0 {
				q.Append(rbuf[:n])
				continue
			}
			if rerr != nil {
				t.Fatal(rerr)
			}
		}
	}
}

// cacheFieldSource stores a FIELD of the pooled input message into a global
// dict and mutates a record field from another message's field — the two
// escape paths where a view crosses its message's lifetime via assignment.
const cacheFieldSource = `
type request: record
    uri : string
    keep_alive : integer

type response: record
    status : integer
    body : string

proc cached: (request/response client)
    global seen := empty_dict
    | client => remember(seen) => client

fun remember: (seen: ref dict<string*string>, req: request) -> (response)
    seen[req.uri] := req.uri
    response(200, req.uri)

fun retag: (req: request, resp: response) -> (response)
    resp.body := req.uri
    resp
`

func compileCacheField(t *testing.T) *Program {
	t.Helper()
	prog, err := Compile(cacheFieldSource, Config{Codecs: httpCodecs})
	if err != nil {
		t.Fatal(err)
	}
	return prog
}

// pooledRequest builds a request record whose uri field is a raw view into
// a pooled region, exactly as a zero-copy decoder would.
func pooledRequest(pool *buffer.Pool, uri string) value.Value {
	ref := pool.GetRef(64)
	copy(ref.Bytes(), uri)
	req := phttp.RequestDesc.NewOwned(ref)
	req.SetField("uri", value.Bytes(ref.Bytes()[:len(uri)]))
	return req
}

// TestDictAssignOwnsFieldView regression-tests the review's use-after-free:
// `seen[req.uri] := req.uri` must deep-copy the field view into the dict —
// after the runtime releases the message and the pool recycles its buffer,
// the cached entry must still read the original bytes.
func TestDictAssignOwnsFieldView(t *testing.T) {
	prog := compileCacheField(t)
	pool := buffer.NewPool(4)
	const uri = "/pooled-uri-0001"
	req := pooledRequest(pool, uri)

	cache := prog.globals["cached"][0]
	if _, err := prog.CallFunction("remember", cache, req); err != nil {
		t.Fatal(err)
	}

	req.Release()
	next := pool.GetRef(64) // LIFO reuse of the request's recycled buffer
	copy(next.Bytes(), "/XXXXXX-clobber!")
	defer next.Release()

	got, ok := cache.P.(*value.Dict).Get(uri)
	if !ok {
		t.Fatal("cached entry missing")
	}
	if got.AsString() != uri {
		t.Fatalf("cached value = %q, want %q (dict entry aliases recycled wire memory)", got.AsString(), uri)
	}
}

// TestSetFieldOwnsCrossMessageView regression-tests the field-assignment
// escape: `resp.body := req.uri` moves a view of message A into record B,
// which must survive A's release and buffer recycling.
func TestSetFieldOwnsCrossMessageView(t *testing.T) {
	prog := compileCacheField(t)
	pool := buffer.NewPool(4)
	const uri = "/pooled-uri-0002"
	req := pooledRequest(pool, uri)
	resp := phttp.ResponseDesc.New()
	resp.SetField("status", value.Int(200))
	resp.SetField("_raw", value.Bytes([]byte("HTTP/1.1 200 OK\r\n\r\nstale")))

	out, err := prog.CallFunction("retag", req, resp)
	if err != nil {
		t.Fatal(err)
	}

	req.Release()
	next := pool.GetRef(64)
	copy(next.Bytes(), "/XXXXXX-clobber!")
	defer next.Release()

	if got := out.Field("body").AsString(); got != uri {
		t.Fatalf("resp.body = %q, want %q (assigned field aliases recycled wire memory)", got, uri)
	}
	// Mutation must invalidate the captured wire image: the encoder's raw
	// fast path would otherwise emit the pre-mutation bytes verbatim.
	if !out.Field("_raw").IsNull() {
		t.Fatal("field assignment left the captured _raw image intact; encoder would emit stale wire bytes")
	}
}

// TestChanRetainsEmittedFieldView regression-tests the send path: a field
// view emitted downstream carries its record's region (value.Field attaches
// it), so Chan.Push's Retain keeps the pooled bytes alive after the producer
// releases the message, and the consumer's Release recycles them.
func TestChanRetainsEmittedFieldView(t *testing.T) {
	pool := buffer.NewPool(4)
	ref := pool.GetRef(64)
	copy(ref.Bytes(), "precious payload")
	desc := value.NewRecordDesc("t.chanrec", "data")
	rec := desc.NewOwned(ref)
	rec.L[0] = value.Bytes(ref.Bytes()[:16])

	ch := core.NewChan(8)
	ch.Push(rec.Field("data")) // producer emits a view of its message
	rec.Release()              // runtime drops the message after the task

	if pool.Stats().RefPuts != 0 {
		t.Fatal("region recycled while the channel still held the view")
	}
	v, ok, _ := ch.Pop()
	if !ok {
		t.Fatal("queued view lost")
	}
	if got := v.AsString(); got != "precious payload" {
		t.Fatalf("queued view = %q (channel did not retain the region)", got)
	}
	v.Release()
	if pool.Stats().RefPuts != 1 {
		t.Fatalf("refPuts = %d, want 1 (consumer release must recycle)", pool.Stats().RefPuts)
	}
}

// TestOwnedCopiesAliasedViews pins value.Owned's contract at the unit
// level: a byte view carved from a pooled record's region without a region
// pointer of its own (raw slot access, not Field) must be deep-copied,
// surviving recycling of the region it aliased.
func TestOwnedCopiesAliasedViews(t *testing.T) {
	pool := buffer.NewPool(4)
	ref := pool.GetRef(64)
	copy(ref.Bytes(), "precious payload")
	desc := value.NewRecordDesc("t.rec", "data")
	rec := desc.NewOwned(ref)
	rec.L[0] = value.Bytes(ref.Bytes()[:16])

	view := rec.L[0] // raw slot access: aliases the region, carries none
	owned := value.Owned(view)
	rec.Release() // region recycles

	next := pool.GetRef(64) // same class: reuses the recycled buffer
	copy(next.Bytes(), "clobbered-------")
	if got := owned.AsString(); got != "precious payload" {
		t.Fatalf("owned copy changed after region recycle: %q", got)
	}
	// Demonstrate the hazard Owned exists for: the raw view now reads the
	// recycled buffer's new contents.
	if &next.Bytes()[0] == &view.B[0] && view.AsString() == "precious payload" {
		t.Fatalf("raw view unexpectedly stable; hazard setup broken")
	}
	next.Release()
}

// TestFieldViewCarriesRegion pins the provenance rule the zero-copy escape
// paths rely on: Field attaches the record's region to byte-carrying views
// (a borrowed reference), so Detach — and therefore Dict.Set — copies them
// before the pooled bytes can recycle, while scalar fields stay region-less.
func TestFieldViewCarriesRegion(t *testing.T) {
	pool := buffer.NewPool(4)
	ref := pool.GetRef(64)
	copy(ref.Bytes(), "precious payload")
	desc := value.NewRecordDesc("t.rec", "data", "n")
	rec := desc.NewOwned(ref)
	rec.L[0] = value.Bytes(ref.Bytes()[:16])
	rec.L[1] = value.Int(7)

	view := rec.Field("data")
	if view.Region() == nil {
		t.Fatal("field view carries no region: Detach/Push cannot see its provenance")
	}
	if scalar := rec.Field("n"); scalar.Region() != nil {
		t.Fatal("scalar field should not borrow the region")
	}

	// Dict.Set detaches on store; with provenance attached the cached entry
	// must survive the record's release and the region's recycling.
	d := value.NewDict()
	d.P.(*value.Dict).Set("k", view)
	detached := value.Detach(view)
	rec.Release()

	next := pool.GetRef(64)
	copy(next.Bytes(), "clobbered-------")
	defer next.Release()

	if got, _ := d.P.(*value.Dict).Get("k"); got.AsString() != "precious payload" {
		t.Fatalf("dict entry reads recycled memory: %q", got.AsString())
	}
	if got := detached.AsString(); got != "precious payload" {
		t.Fatalf("detached view reads recycled memory: %q", got)
	}
}
