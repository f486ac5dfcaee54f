package compiler

import (
	"encoding/binary"
	"strings"
	"testing"

	"flick/internal/buffer"
	"flick/internal/grammar"
	"flick/internal/lang"
	"flick/internal/proto/hadoop"
	"flick/internal/value"
)

func TestCompileListing1(t *testing.T) {
	prog, err := Compile(lang.Listing1, Config{ArraySizes: map[string]int{"backends": 2}})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := prog.Proc("memcached")
	if err != nil {
		t.Fatal(err)
	}
	if len(pg.Ports["client"]) != 1 || len(pg.Ports["backends"]) != 2 {
		t.Fatalf("ports = %+v", pg.Ports)
	}
	// Nodes: client in/out + 2×backend in/out + 2 computes.
	if n := len(pg.Template.Nodes()); n != 8 {
		t.Fatalf("nodes = %d, want 8", n)
	}
	// The client port is primary (first bidirectional scalar).
	ports := pg.Template.Ports()
	if !ports[pg.Ports["client"][0]].Primary {
		t.Fatal("client port should be primary")
	}
	if ports[pg.Ports["backends"][0]].Primary {
		t.Fatal("backend ports should not be primary")
	}
}

func TestCompileListing3GraphShape(t *testing.T) {
	pair := CodecPair{Decode: hadoop.Codec, Encode: hadoop.Codec}
	prog, err := Compile(lang.Listing3, Config{
		ArraySizes: map[string]int{"mappers": 8},
		Codecs:     map[string]CodecPair{"kv": pair},
	})
	if err != nil {
		t.Fatal(err)
	}
	pg, err := prog.Proc("hadoop")
	if err != nil {
		t.Fatal(err)
	}
	// §6.3: "The task graph therefore has 16 tasks (8 input, 7 processing
	// and 1 output)".
	if n := len(pg.Template.Nodes()); n != 16 {
		t.Fatalf("nodes = %d, want 16", n)
	}
	inputs, computes, outputs := 0, 0, 0
	for _, n := range pg.Template.Nodes() {
		switch n.Kind {
		case 0:
			inputs++
		case 1:
			computes++
		case 2:
			outputs++
		}
	}
	if inputs != 8 || computes != 7 || outputs != 1 {
		t.Fatalf("shape = %d/%d/%d, want 8/7/1", inputs, computes, outputs)
	}
}

func TestCompileFoldtSingleMapper(t *testing.T) {
	pair := CodecPair{Decode: hadoop.Codec, Encode: hadoop.Codec}
	prog, err := Compile(lang.Listing3, Config{
		ArraySizes: map[string]int{"mappers": 1},
		Codecs:     map[string]CodecPair{"kv": pair},
	})
	if err != nil {
		t.Fatal(err)
	}
	pg, _ := prog.Proc("hadoop")
	// 1 input + 1 combine + 1 output: aggregation still happens.
	if n := len(pg.Template.Nodes()); n != 3 {
		t.Fatalf("nodes = %d, want 3", n)
	}
}

func TestCompileErrors(t *testing.T) {
	if _, err := Compile("fun f: (\n", Config{}); err == nil {
		t.Fatal("parse error not surfaced")
	}
	if _, err := Compile(`
type t: record
    a : integer
fun f: (x: t) -> (t)
    f(x)
`, Config{}); err == nil {
		t.Fatal("type error not surfaced")
	}
	// Channel array without a configured size.
	if _, err := Compile(lang.Listing1, Config{}); err == nil {
		t.Fatal("missing array size accepted")
	}
	// Wire type without codec or annotations.
	if _, err := Compile(lang.ListingProxy, Config{ArraySizes: map[string]int{"backends": 2}}); err == nil {
		t.Fatal("unserialisable wire type accepted")
	}
	// Incomplete explicit binding.
	if _, err := Compile(lang.ListingProxy, Config{
		ArraySizes: map[string]int{"backends": 2},
		Codecs:     map[string]CodecPair{"cmd": {Decode: grammar.MemcachedUnit().MustCompile()}},
	}); err == nil {
		t.Fatal("half-bound codec accepted")
	}
}

func TestCompileChannelReuseRejected(t *testing.T) {
	src := `
type t: record
    a : integer {size=1}

proc p: (t/t c)
    | c => c
    | c => c
`
	if _, err := Compile(src, Config{}); err == nil || !strings.Contains(err.Error(), "more than one pipeline") {
		t.Fatalf("err = %v", err)
	}
}

func TestProcLookup(t *testing.T) {
	prog, err := Compile(lang.Listing1, Config{ArraySizes: map[string]int{"backends": 2}})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := prog.Proc(""); err != nil {
		t.Fatal("single proc should resolve with empty name")
	}
	if _, err := prog.Proc("ghost"); err == nil {
		t.Fatal("unknown proc resolved")
	}
}

func TestSynthesizeUnitListing1(t *testing.T) {
	prog, err := Compile(lang.Listing1, Config{ArraySizes: map[string]int{"backends": 2}})
	if err != nil {
		t.Fatal(err)
	}
	pair, ok := prog.Codec("cmd")
	if !ok {
		t.Fatal("no synthesised codec for cmd")
	}
	// Round-trip a hand-built wire message through the synthesised codec.
	wire := listing1Wire(0x0c, "mykey", "myvalue")
	q := buffer.NewQueue(nil)
	q.Append(wire)
	msg, okDecoded, err := pair.Decode.NewDecoder().Decode(q)
	if err != nil || !okDecoded {
		t.Fatalf("decode: %v %v", okDecoded, err)
	}
	if msg.Field("opcode").AsInt() != 0x0c {
		t.Fatalf("opcode = %x", msg.Field("opcode").AsInt())
	}
	if msg.Field("key").AsString() != "mykey" {
		t.Fatalf("key = %q", msg.Field("key").AsString())
	}
	// Raw capture: re-encode must be byte-identical (forwarding fidelity).
	out, err := pair.Encode.Encode(nil, msg)
	if err != nil {
		t.Fatal(err)
	}
	if string(out) != string(wire) {
		t.Fatalf("re-encode differs\n% x\n% x", wire, out)
	}
}

// listing1Wire builds a message in the Listing 1 layout: opcode(1)
// keylen(2) extraslen(1) pad(3) bodylen(8) pad(12+extras) key body.
func listing1Wire(opcode byte, key, body string) []byte {
	out := []byte{opcode}
	var u16 [2]byte
	binary.BigEndian.PutUint16(u16[:], uint16(len(key)))
	out = append(out, u16[:]...)
	out = append(out, 0)       // extraslen
	out = append(out, 0, 0, 0) // pad 3
	var u64 [8]byte
	binary.BigEndian.PutUint64(u64[:], uint64(len(key)+len(body)))
	out = append(out, u64[:]...)
	out = append(out, make([]byte, 12)...) // pad 12 + extras(0)
	out = append(out, key...)
	out = append(out, body...)
	return out
}

func TestSynthesizeUnitErrors(t *testing.T) {
	cases := []string{
		// no size annotation
		"type t: record\n    a : integer\n",
		// non-constant integer size
		"type t: record\n    n : integer {size=1}\n    a : integer {size=n}\n",
	}
	for _, src := range cases {
		prog, err := lang.Parse(src)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := SynthesizeUnit(prog.Types[0]); err == nil {
			t.Errorf("SynthesizeUnit(%q) succeeded", src)
		}
	}
}

func TestSynthesizeSerializeInference(t *testing.T) {
	src := `
type msg: record
    klen : integer {size=2}
    key : string {size=klen}
`
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	unit, err := SynthesizeUnit(prog.Types[0])
	if err != nil {
		t.Fatal(err)
	}
	codec, err := unit.Compile()
	if err != nil {
		t.Fatal(err)
	}
	// Construct a record without setting klen: serialise must infer it.
	rec := codec.Desc().New()
	rec.SetField("key", value.Str("hello"))
	wire, err := codec.Encode(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	if len(wire) != 7 || wire[0] != 0 || wire[1] != 5 {
		t.Fatalf("wire = % x", wire)
	}
}

func TestCallFunction(t *testing.T) {
	src := `
type t: record
    a : integer {size=1}

fun double: (x: t) -> (integer)
    x.a * 2

fun clamp: (x: t) -> (integer)
    if x.a > 10:
        10
    else:
        x.a
`
	prog, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := prog.Desc("t").New()
	rec.SetField("a", value.Int(21))
	got, err := prog.CallFunction("double", rec)
	if err != nil {
		t.Fatal(err)
	}
	if got.AsInt() != 42 {
		t.Fatalf("double = %d", got.AsInt())
	}
	got, _ = prog.CallFunction("clamp", rec)
	if got.AsInt() != 10 {
		t.Fatalf("clamp(21) = %d", got.AsInt())
	}
	rec.SetField("a", value.Int(3))
	got, _ = prog.CallFunction("clamp", rec)
	if got.AsInt() != 3 {
		t.Fatalf("clamp(3) = %d", got.AsInt())
	}
	if _, err := prog.CallFunction("ghost"); err == nil {
		t.Fatal("unknown function callable")
	}
	if _, err := prog.CallFunction("double"); err == nil {
		t.Fatal("arity not checked")
	}
}

// TestFieldSlotAccess checks the slot-resolved field lowering: a read
// indexes the slot and an assignment nulls the captured "_raw" image, as
// SetField does.
func TestFieldSlotAccess(t *testing.T) {
	prog, err := Compile(slotSource, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := prog.Desc("t").New()
	rec.SetField("a", value.Int(1))
	rec.SetField("b", value.Int(2))
	rec.SetField("_raw", value.Bytes([]byte{1, 2}))
	if got, _ := prog.CallFunction("get_b", rec); got.AsInt() != 2 {
		t.Fatalf("get_b = %d, want 2", got.AsInt())
	}
	if _, err := prog.CallFunction("set_b", rec); err != nil {
		t.Fatal(err)
	}
	if rec.Field("b").AsInt() != 7 || !rec.Field("_raw").IsNull() {
		t.Fatalf("after set_b: b = %d, _raw = %v; want 7 and a nulled image",
			rec.Field("b").AsInt(), rec.Field("_raw"))
	}
}

const slotSource = `
type t: record
    a : integer {size=1}
    b : integer {size=1}

fun get_b: (x: t) -> (integer)
    x.b

fun set_b: (x: t) -> (t)
    x.b := 7
    x
`

// TestCallFunctionRejectsForeignLayout: a record of another layout under
// the same type name never reaches compiled code, whose field accesses
// index the type's own slots.
func TestCallFunctionRejectsForeignLayout(t *testing.T) {
	prog, err := Compile(slotSource, Config{})
	if err != nil {
		t.Fatal(err)
	}
	foreign := value.NewRecordDesc("t", "b", "a").Record(value.Int(20), value.Int(10))
	for _, fn := range []string{"get_b", "set_b"} {
		if _, err := prog.CallFunction(fn, foreign); err == nil || !strings.Contains(err.Error(), "layout") {
			t.Fatalf("%s on a foreign layout: err = %v, want a layout rejection", fn, err)
		}
	}
	if foreign.Field("b").AsInt() != 20 || foreign.Field("a").AsInt() != 10 {
		t.Fatalf("rejected call wrote the record: %v", foreign)
	}
}

// TestGlobalDictOneRecordType: a global dict's type is fixed by its first
// typed use, so two stages cannot store one record type into it and read
// another back out through the wrong slots.
func TestGlobalDictOneRecordType(t *testing.T) {
	_, err := Compile(`
type a: record
    x : integer {size=1}

type b: record
    y : integer {size=2}
    z : integer {size=1}

proc p: (a/a ca, b/b cb)
    global d := empty_dict
    | ca => put_a(d) => ca
    | cb => get_b(d) => cb

fun put_a: (d: ref dict<string*a>, m: a) -> (a)
    d["k"] := m
    m

fun get_b: (d: ref dict<string*b>, m: b) -> (b)
    if d["k"] <> None:
        m.z := d["k"].z
    m
`, Config{})
	if err == nil || !strings.Contains(err.Error(), "have dict<string*a>, want dict<string*b>") {
		t.Fatalf("err = %v, want the second use at another record type rejected", err)
	}
	// Listing 1 uses its global at one type from two stages.
	if _, err := Compile(lang.Listing1, Config{ArraySizes: map[string]int{"backends": 2}}); err != nil {
		t.Fatal(err)
	}
}

// TestFieldOfUnknownTypeRejected: a dict no typed use has fixed holds
// values of unknown type, and field access on them is a compile error.
func TestFieldOfUnknownTypeRejected(t *testing.T) {
	_, err := Compile(`
type t: record
    a : integer {size=1}

fun f: (x: t) -> (integer)
    let d = empty_dict
    d["k"].a
`, Config{})
	if err == nil || !strings.Contains(err.Error(), "field access on non-record any") {
		t.Fatalf("err = %v, want field access on an unknown type rejected", err)
	}
}

func TestIRBuiltins(t *testing.T) {
	src := `
type doc: record
    text : string {size=4}

fun wordlen: (w: string) -> (integer)
    len(w)

fun is_long: (w: string) -> (boolean)
    len(w) > 3

fun add: (acc: integer, n: string) -> (integer)
    acc + len(n)

fun analyze: (d: doc) -> (integer)
    let words = split_words(d.text)
    let longs = filter(is_long, words)
    fold(add, 0, longs)

fun roundtrip: (d: doc) -> (string)
    int_to_string(string_to_int("41") + 1)

fun hashing: (d: doc) -> (integer)
    hash(d.text) mod 100

fun concat: (d: doc) -> (string)
    d.text + "!"
`
	prog, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	doc := prog.Desc("doc").New()
	doc.SetField("text", value.Str("hi there is a longword here"))

	got, _ := prog.CallFunction("analyze", doc)
	// long words: "there"(5) + "longword"(8) + "here"(4) = 17
	if got.AsInt() != 17 {
		t.Fatalf("analyze = %d", got.AsInt())
	}
	got, _ = prog.CallFunction("roundtrip", doc)
	if got.AsString() != "42" {
		t.Fatalf("roundtrip = %q", got.AsString())
	}
	got, _ = prog.CallFunction("hashing", doc)
	if got.AsInt() < 0 || got.AsInt() >= 100 {
		t.Fatalf("hashing = %d", got.AsInt())
	}
	got, _ = prog.CallFunction("concat", doc)
	if got.AsString() != "hi there is a longword here!" {
		t.Fatalf("concat = %q", got.AsString())
	}
}

func TestIRDictOperations(t *testing.T) {
	src := `
type t: record
    k : string {size=4}

fun put: (d: ref dict<string*t>, x: t) -> ()
    d[x.k] := x

fun has: (d: ref dict<string*t>, x: t) -> (boolean)
    d[x.k] <> None
`
	prog, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	d := value.NewDict()
	rec := prog.Desc("t").New()
	rec.SetField("k", value.Str("key1"))

	got, _ := prog.CallFunction("has", d, rec)
	if got.AsBool() {
		t.Fatal("empty dict has key")
	}
	prog.CallFunction("put", d, rec)
	got, _ = prog.CallFunction("has", d, rec)
	if !got.AsBool() {
		t.Fatal("dict missing stored key")
	}
}

func TestIRDivisionByZeroSafe(t *testing.T) {
	src := `
type t: record
    a : integer {size=1}

fun div: (x: t) -> (integer)
    100 / x.a

fun modz: (x: t) -> (integer)
    100 mod x.a
`
	prog, err := Compile(src, Config{})
	if err != nil {
		t.Fatal(err)
	}
	rec := prog.Desc("t").New()
	rec.SetField("a", value.Int(0))
	got, _ := prog.CallFunction("div", rec)
	if got.AsInt() != 0 {
		t.Fatalf("div by zero = %d", got.AsInt())
	}
	got, _ = prog.CallFunction("modz", rec)
	if got.AsInt() != 0 {
		t.Fatalf("mod by zero = %d", got.AsInt())
	}
}

func TestIRStringToIntGarbage(t *testing.T) {
	if stringToInt("banana") != 0 || stringToInt(" 42 ") != 42 || stringToInt("-7") != -7 {
		t.Fatal("stringToInt behaviour")
	}
}

func TestHashValueStability(t *testing.T) {
	a := hashValue(value.Str("key"))
	b := hashValue(value.Bytes([]byte("key")))
	if a != b {
		t.Fatal("hash of equal string/bytes content differs")
	}
	if a < 0 {
		t.Fatal("hash must be non-negative for mod routing")
	}
	if hashValue(value.Str("key")) != a {
		t.Fatal("hash not deterministic")
	}
	if hashValue(value.Str("other")) == a {
		t.Fatal("suspicious collision on trivial input")
	}
	if hashValue(value.Int(7)) == hashValue(value.Int(8)) {
		t.Fatal("int hash collision")
	}
}

func TestGlobalsSharedAcrossInstances(t *testing.T) {
	prog, err := Compile(lang.Listing1, Config{ArraySizes: map[string]int{"backends": 2}})
	if err != nil {
		t.Fatal(err)
	}
	globals := prog.Globals("memcached")
	if len(globals) != 1 || globals[0].Kind != value.KindDict {
		t.Fatalf("globals = %+v", globals)
	}
}
