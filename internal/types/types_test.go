package types

import (
	"strings"
	"testing"

	"flick/internal/lang"
)

func check(t *testing.T, src string) (*Checked, error) {
	t.Helper()
	prog, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	return Check(prog)
}

func mustCheck(t *testing.T, src string) *Checked {
	t.Helper()
	out, err := check(t, src)
	if err != nil {
		t.Fatalf("check: %v", err)
	}
	return out
}

func mustFail(t *testing.T, src, wantSubstr string) {
	t.Helper()
	_, err := check(t, src)
	if err == nil {
		t.Fatalf("check succeeded, want error containing %q", wantSubstr)
	}
	if !strings.Contains(err.Error(), wantSubstr) {
		t.Fatalf("error %q does not contain %q", err.Error(), wantSubstr)
	}
}

func TestCheckListing1(t *testing.T) {
	out := mustCheck(t, lang.Listing1)
	if len(out.Types) != 1 || len(out.Funs) != 2 || len(out.Procs) != 1 {
		t.Fatal("symbol tables")
	}
	if out.GlobalTypes["memcached"]["cache"] == nil {
		t.Fatal("global cache type not recorded")
	}
}

func TestCheckListing3(t *testing.T) {
	mustCheck(t, lang.Listing3)
}

func TestRecursionRejected(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

fun f: (x: t) -> (t)
    g(x)

fun g: (x: t) -> (t)
    f(x)
`, "recursive")
}

func TestDirectRecursionRejected(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

fun f: (x: t) -> (t)
    f(x)
`, "recursive")
}

func TestRecursionViaMapRejected(t *testing.T) {
	mustFail(t, `
type t: record
    a : string

fun f: (xs: t) -> (t)
    g(xs)

fun g: (x: t) -> (t)
    h(x)

fun h: (x: t) -> (t)
    fold(f, x, map(g, split_words(x.a)))
`, "recursive")
}

func TestUnknownTypeRejected(t *testing.T) {
	mustFail(t, `
fun f: (x: ghost) -> ()
    x
`, "unknown type")
}

func TestUnknownFieldRejected(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

fun f: (x: t) -> (integer)
    x.missing
`, "no field")
}

func TestReadOnlyChannelSendRejected(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

fun f: (t/- src, x: t) -> ()
    x => src
`, "read-only")
}

func TestWriteOnlyPipelineSourceRejected(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

proc p: (-/t sink, t/t client)
    | sink => client
`, "write-only")
}

func TestChannelElementMismatchRejected(t *testing.T) {
	mustFail(t, `
type a: record
    x : integer
type b: record
    y : integer

fun f: (-/a out, v: b) -> ()
    v => out
`, "channel carries")
}

func TestReturnTypeMismatch(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

fun f: (x: t) -> (integer)
    "nope"
`, "returns string")
}

func TestMissingReturnValue(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

fun f: (x: t) -> (integer)
    let y = 1
`, "must end with an expression")
}

func TestGlobalOnlyInProc(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

fun f: (x: t) -> ()
    global g := empty_dict
`, "only allowed in process bodies")
}

func TestGlobalMustBeDict(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

proc p: (t/t c)
    global g := 5
    | c => c
`, "must be a dict")
}

func TestStageArityChecked(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

proc p: (t/t c)
    | c => f(1, 2) => c

fun f: (x: t) -> (t)
    x
`, "parameters")
}

func TestStageMessageTypeChecked(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer
type u: record
    b : integer

proc p: (t/t c)
    | c => f() => c

fun f: (x: u) -> (u)
    x
`, "consumes")
}

func TestPipelineDestinationAfterUnitStage(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

proc p: (t/t c)
    | c => f() => c

fun f: (x: t) -> ()
    let y = 1
`, "returns no value")
}

func TestFoldtSignatureChecked(t *testing.T) {
	mustFail(t, `
type kv: record
    key : string
    value : string

proc p: ([kv/-] mappers, -/kv reducer)
    foldt bad key_of mappers => reducer

fun bad: (a: kv) -> (kv)
    a

fun key_of: (e: kv) -> (string)
    e.key
`, "combine")
}

func TestFoldtOrderingChecked(t *testing.T) {
	mustFail(t, `
type kv: record
    key : string
    value : string

proc p: ([kv/-] mappers, -/kv reducer)
    foldt comb badorder mappers => reducer

fun comb: (a: kv, b: kv) -> (kv)
    a

fun badorder: (e: kv) -> (kv)
    e
`, "ordering")
}

func TestFoldtSourceMustBeArray(t *testing.T) {
	mustFail(t, `
type kv: record
    key : string
    value : string

proc p: (kv/- mapper, -/kv reducer)
    foldt comb key_of mapper => reducer

fun comb: (a: kv, b: kv) -> (kv)
    a

fun key_of: (e: kv) -> (string)
    e.key
`, "channel array")
}

func TestDictKeyTypeChecked(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

fun f: (cache: ref dict<string*t>, x: t) -> ()
    cache[x.a] := x
`, "dict key")
}

func TestIfConditionMustBeBool(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

fun f: (x: t) -> ()
    if x.a:
        let y = 1
`, "boolean")
}

func TestArithmeticTypeErrors(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer
    s : string

fun f: (x: t) -> (integer)
    x.s * 3
`, "arithmetic")
}

func TestStringConcatAllowed(t *testing.T) {
	mustCheck(t, `
type t: record
    a : string

fun f: (x: t) -> (string)
    x.a + "suffix"
`)
}

func TestCompareStringWithIntRejected(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer
    s : string

fun f: (x: t) -> (boolean)
    x.s = x.a
`, "comparing")
}

func TestNoneComparableWithDictLookup(t *testing.T) {
	mustCheck(t, `
type t: record
    k : string

fun f: (cache: ref dict<string*t>, x: t) -> (boolean)
    cache[x.k] = None
`)
}

func TestRecordConstructor(t *testing.T) {
	mustCheck(t, `
type kv: record
    key : string
    value : string

fun f: (a: kv) -> (kv)
    kv(a.key, a.value)
`)
	mustFail(t, `
type kv: record
    key : string
    value : string

fun f: (a: kv) -> (kv)
    kv(a.key)
`, "constructor")
}

func TestRecordConstructorSkipsAnonymous(t *testing.T) {
	// The constructor takes only named fields; anonymous padding is
	// filled in by the serialiser.
	mustCheck(t, `
type msg: record
    a : integer {size=1}
    _ : string {size=3}
    b : string {size=4}

fun f: (m: msg) -> (msg)
    msg(m.a, m.b)
`)
}

func TestDuplicateDeclarations(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer
type t: record
    b : integer
`, "redeclared")
	mustFail(t, `
type t: record
    a : integer

fun f: (x: t) -> (t)
    x
fun f: (x: t) -> (t)
    x
`, "redeclared")
}

func TestBuiltinShadowRejected(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

fun hash: (x: t) -> (integer)
    1
`, "shadows a builtin")
}

func TestSizeExprValidation(t *testing.T) {
	mustFail(t, `
type t: record
    s : string {size=later}
    later : integer {size=1}
`, "earlier integer field")
	mustFail(t, `
type t: record
    a : integer {size=1}
    s : string {size=a/2}
`, "only + - *")
}

func TestMapFilterFold(t *testing.T) {
	mustCheck(t, `
type doc: record
    text : string

fun upper_len: (w: string) -> (integer)
    len(w)

fun is_long: (w: string) -> (boolean)
    len(w) > 3

fun add: (acc: integer, w: string) -> (integer)
    acc + len(w)

fun f: (d: doc) -> (integer)
    let words = split_words(d.text)
    let lens = map(upper_len, words)
    let longs = filter(is_long, words)
    fold(add, 0, longs)
`)
}

func TestMapNeedsFunctionName(t *testing.T) {
	mustFail(t, `
type doc: record
    text : string

fun f: (d: doc) -> (integer)
    len(map(5, split_words(d.text)))
`, "function name")
}

func TestLenOnScalarChannelRejected(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

fun f: (-/t out, x: t) -> (integer)
    len(out)
`, "len of scalar channel")
}

func TestUndefinedNameRejected(t *testing.T) {
	mustFail(t, `
type t: record
    a : integer

fun f: (x: t) -> (integer)
    ghost
`, "undefined name")
}

// dictTwoTypes declares two record types of different layouts and the
// functions that use a dict at each of them.
const dictTwoTypes = `
type a: record
    x : integer

type b: record
    y : string

fun put_b: (d: ref dict<string*b>, m: b) -> ()
    d["k"] := m

fun read_a: (d: ref dict<string*a>) -> (integer)
    d["k"].x

fun x_of: (v: a, m: b) -> (b)
    m
`

// TestDictTypeFixedByFirstTypedUse: an empty_dict's key and value types
// are fixed by its first typed use, whichever use comes first and through
// whichever alias, and a use at another type is rejected.
func TestDictTypeFixedByFirstTypedUse(t *testing.T) {
	// A lookup read as a, then the global passed on as a dict of b.
	mustFail(t, dictTwoTypes+`
proc p: (b/b c, b/b c2)
    global d := empty_dict
    | c => x_of(d["k"]) => c
    | c2 => put_b(d) => c2
`, "have dict<string*a>, want dict<string*b>")
	// Two names for one dict.
	mustFail(t, dictTwoTypes+`
fun f: (m: b) -> (integer)
    let d = empty_dict
    let e = d
    put_b(e, m)
    read_a(d)
`, "have dict<string*b>, want dict<string*a>")
	// Two dicts whose values were unified before either was fixed.
	mustFail(t, dictTwoTypes+`
fun f: (m: b) -> (integer)
    let d = empty_dict
    let e = empty_dict
    d["k"] := e["k"]
    put_b(e, m)
    read_a(d)
`, "have dict<string*b>, want dict<string*a>")
	// One type throughout, as Listing 1 uses its cache.
	mustCheck(t, dictTwoTypes+`
fun f: (m: b) -> (b)
    let d = empty_dict
    put_b(d, m)
    put_b(d, m)
    m
`)
}

// TestUnknownTypeNotTakenApart: a value read from a dict no typed use has
// fixed cannot be indexed or iterated either.
func TestUnknownTypeNotTakenApart(t *testing.T) {
	mustFail(t, dictTwoTypes+`
fun f: (m: b) -> (integer)
    let d = empty_dict
    d["k"]["j"]
`, "cannot index any")
	mustFail(t, dictTwoTypes+`
fun g: (s: string) -> (string)
    s

fun f: (m: b) -> (b)
    let d = empty_dict
    let l = map(g, d["k"])
    m
`, "map iterates a list, got any")
}
