package compiler

import (
	"strings"
	"testing"

	"flick/internal/grammar"
	phttp "flick/internal/proto/http"
	"flick/internal/value"
)

func TestMultipleProcsCompile(t *testing.T) {
	src := `
type msg: record
    body : string {size=4}

proc first: (msg/msg a)
    | a => a

fun noop: (m: msg) -> (msg)
    m

proc second: (msg/msg b)
    | b => noop() => b
`
	prog, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Proc("first"); err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Proc("second"); err != nil {
		t.Fatal(err)
	}
	// Ambiguous empty name with two procs.
	if _, err := prog.Proc(""); err == nil {
		t.Fatal("ambiguous proc lookup accepted")
	}
}

func TestPrimaryChannelOverride(t *testing.T) {
	src := `
type msg: record
    body : string {size=4}

proc p: (msg/msg a, msg/msg b)
    | a => b
    | b => a
`
	prog, err := Compile(src, Config{PrimaryChannel: "b"})
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := prog.Proc("p")
	ports := pg.Template.Ports()
	bPort, _ := pg.PortIndex("b")
	aPort, _ := pg.PortIndex("a")
	if !ports[bPort].Primary || ports[aPort].Primary {
		t.Fatal("PrimaryChannel override not honoured")
	}
}

func TestPipelineChainOfStages(t *testing.T) {
	src := `
type msg: record
    n : integer {size=4}

proc p: (msg/msg c)
    | c => incr() => double() => c

fun incr: (m: msg) -> (msg)
    msg(m.n + 1)

fun double: (m: msg) -> (msg)
    msg(m.n * 2)
`
	prog, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	// Chained stages share one compute node.
	pg, _ := prog.Proc("p")
	computes := 0
	for _, n := range pg.Template.Nodes() {
		if n.Kind == 1 {
			computes++
		}
	}
	if computes != 1 {
		t.Fatalf("computes = %d, want 1 (stages fuse)", computes)
	}
	// Check semantics through the function layer: (5+1)*2 = 12.
	rec := prog.Desc("msg").New()
	rec.SetField("n", value.Int(5))
	v1, err := prog.CallFunction("incr", rec)
	if err != nil {
		t.Fatal(err)
	}
	v2, err := prog.CallFunction("double", v1)
	if err != nil {
		t.Fatal(err)
	}
	if v2.Field("n").AsInt() != 12 {
		t.Fatalf("chained result = %d", v2.Field("n").AsInt())
	}
}

func TestReadOnlyChannelHasNoOutputNode(t *testing.T) {
	src := `
type msg: record
    body : string {size=4}

proc p: (msg/- src, -/msg dst)
    | src => dst
`
	prog, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := prog.Proc("p")
	inputs, outputs := 0, 0
	for _, n := range pg.Template.Nodes() {
		switch n.Kind {
		case 0:
			inputs++
		case 2:
			outputs++
		}
	}
	if inputs != 1 || outputs != 1 {
		t.Fatalf("shape = %d inputs, %d outputs", inputs, outputs)
	}
	ports := pg.Template.Ports()
	srcPort, _ := pg.PortIndex("src")
	if ports[srcPort].Out != -1 {
		t.Fatal("read-only port has an output binding")
	}
	dstPort, _ := pg.PortIndex("dst")
	if ports[dstPort].In != -1 {
		t.Fatal("write-only port has an input binding")
	}
}

func TestAsymmetricChannelTypes(t *testing.T) {
	src := `
type req: record
    q : string {size=2}

type resp: record
    r : string {size=2}

proc p: (req/resp client)
    | client => answer() => client

fun answer: (x: req) -> (resp)
    resp(x.q)
`
	prog, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := prog.Proc("p")
	var in, out string
	for _, n := range pg.Template.Nodes() {
		switch n.Kind {
		case 0:
			in = n.Codec.FormatName()
		case 2:
			out = n.Codec.FormatName()
		}
	}
	if in != "req" || out != "resp" {
		t.Fatalf("codecs = %q/%q, want req/resp", in, out)
	}
}

func TestWrongDirectionSendRejected(t *testing.T) {
	src := `
type msg: record
    body : string {size=4}

proc p: (msg/- src, msg/- alsoread)
    | src => alsoread
`
	if _, err := Compile(src, Config{}); err == nil ||
		!strings.Contains(err.Error(), "read-only") {
		t.Fatalf("err = %v, want read-only complaint", err)
	}
}

// TestCodecBindingRejected pins the compile errors that guarantee every
// record of a type has the layout compiled field access indexes.
func TestCodecBindingRejected(t *testing.T) {
	const typed = `
type msg: record
    body : string {size=4}

proc p: (msg/msg c)
    | c => c
`
	lc := grammar.LineUnit().MustCompile()
	cases := []struct {
		name, src string
		codecs    map[string]CodecPair
		want      string
	}{
		{"no encode", typed, map[string]CodecPair{"msg": {Decode: lc}}, "must set Decode and Encode"},
		{"descriptors disagree", typed,
			map[string]CodecPair{"msg": {Decode: phttp.RequestFormat{}, Encode: phttp.ResponseFormat{}}},
			`"msg" decodes http.request records but encodes http.response records`},
		{"codec lacks a field", typed, map[string]CodecPair{"msg": {Decode: lc, Encode: lc}},
			`bound codec for "msg" lacks field "body"`},
		{"not serialisable", `
type msg: record
    body : string

proc p: (msg/msg c)
    | c => c
`, nil, `type "msg" crosses the network but is not serialisable`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Compile(tc.src, Config{Codecs: tc.codecs})
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("err = %v, want %q", err, tc.want)
			}
		})
	}
}

func TestFoldtOddMapperCount(t *testing.T) {
	src := `
type kv: record
    key : string {size=2}
    value : string {size=2}

proc p: ([kv/-] mappers, -/kv reducer)
    foldt comb keyof mappers => reducer

fun comb: (a: kv, b: kv) -> (kv)
    a

fun keyof: (e: kv) -> (string)
    e.key
`
	for mappers, wantComputes := range map[int]int{1: 1, 2: 1, 3: 2, 5: 4, 7: 6} {
		prog, err := Compile(src, Config{ArraySizes: map[string]int{"mappers": mappers}})
		if err != nil {
			t.Fatalf("mappers=%d: %v", mappers, err)
		}
		pg, _ := prog.Proc("p")
		computes := 0
		for _, n := range pg.Template.Nodes() {
			if n.Kind == 1 {
				computes++
			}
		}
		if computes != wantComputes {
			t.Fatalf("mappers=%d: computes = %d, want %d", mappers, computes, wantComputes)
		}
	}
}

func TestIfElseValueInFunction(t *testing.T) {
	src := `
type t: record
    a : integer {size=1}

fun pick: (x: t) -> (string)
    if x.a > 5:
        "big"
    else:
        "small"
`
	prog, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := prog.Desc("t").New()
	rec.SetField("a", value.Int(9))
	got, _ := prog.CallFunction("pick", rec)
	if got.AsString() != "big" {
		t.Fatalf("pick(9) = %q", got.AsString())
	}
	rec.SetField("a", value.Int(1))
	got, _ = prog.CallFunction("pick", rec)
	if got.AsString() != "small" {
		t.Fatalf("pick(1) = %q", got.AsString())
	}
}

func TestNestedFunctionCalls(t *testing.T) {
	src := `
type t: record
    a : integer {size=1}

fun f1: (x: t) -> (integer)
    f2(x) + 1

fun f2: (x: t) -> (integer)
    f3(x) * 2

fun f3: (x: t) -> (integer)
    x.a
`
	prog, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := prog.Desc("t").New()
	rec.SetField("a", value.Int(10))
	got, _ := prog.CallFunction("f1", rec)
	if got.AsInt() != 21 {
		t.Fatalf("f1 = %d", got.AsInt())
	}
}

func TestBooleanShortCircuit(t *testing.T) {
	// `or` must not evaluate the right side when the left is true: the
	// right side here would divide by zero (yielding 0, not an error, but
	// we can observe short-circuiting through a dict side effect).
	src := `
type t: record
    a : integer {size=1}

fun probe: (d: ref dict<string*t>, x: t) -> (boolean)
    mark(d, x) = 1

fun mark: (d: ref dict<string*t>, x: t) -> (integer)
    d["touched"] := x
    1

fun check: (d: ref dict<string*t>, x: t) -> (boolean)
    true or probe(d, x)
`
	prog, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := value.NewDict()
	rec := prog.Desc("t").New()
	got, _ := prog.CallFunction("check", d, rec)
	if !got.AsBool() {
		t.Fatal("check result")
	}
	if _, touched := d.P.(*value.Dict).Get("touched"); touched {
		t.Fatal("`or` evaluated its right operand despite a true left")
	}
}
