package value

import (
	"sync"
	"testing"
	"testing/quick"
	"unsafe"
)

func TestConstructorsAndAccessors(t *testing.T) {
	if Int(5).AsInt() != 5 {
		t.Fatal("int")
	}
	if !Bool(true).AsBool() || Bool(false).AsBool() {
		t.Fatal("bool")
	}
	if Str("hi").AsString() != "hi" {
		t.Fatal("str")
	}
	if string(Bytes([]byte("ab")).AsBytes()) != "ab" {
		t.Fatal("bytes")
	}
	if !Null.IsNull() || Int(0).IsNull() {
		t.Fatal("null")
	}
	l := List(Int(1), Int(2))
	if l.Kind != KindList || len(l.L) != 2 {
		t.Fatal("list")
	}
	if Opaque(42).P != 42 {
		t.Fatal("opaque")
	}
}

func TestKindStrings(t *testing.T) {
	kinds := []Kind{KindNull, KindBool, KindInt, KindString, KindBytes,
		KindList, KindDict, KindRecord, KindOpaque, Kind(99)}
	for _, k := range kinds {
		if k.String() == "" {
			t.Fatalf("kind %d has empty name", k)
		}
	}
}

func TestStringBytesCoercion(t *testing.T) {
	s := Str("key")
	b := Bytes([]byte("key"))
	if !Equal(s, b) || !Equal(b, s) {
		t.Fatal("string/bytes should compare equal on same data")
	}
	if s.AsString() != b.AsString() {
		t.Fatal("AsString differs")
	}
	if string(s.AsBytes()) != "key" {
		t.Fatal("AsBytes on string")
	}
}

func TestByteLen(t *testing.T) {
	if Str("abc").ByteLen() != 3 || Bytes([]byte("ab")).ByteLen() != 2 {
		t.Fatal("byte len")
	}
	if List(Int(1)).ByteLen() != 1 {
		t.Fatal("list len")
	}
	if Int(7).ByteLen() != 0 {
		t.Fatal("int len")
	}
}

func TestEqual(t *testing.T) {
	cases := []struct {
		a, b Value
		want bool
	}{
		{Null, Null, true},
		{Int(1), Int(1), true},
		{Int(1), Int(2), false},
		{Bool(true), Bool(true), true},
		{Bool(true), Int(1), false},
		{Str("a"), Str("a"), true},
		{List(Int(1)), List(Int(1)), true},
		{List(Int(1)), List(Int(2)), false},
		{List(Int(1)), List(Int(1), Int(2)), false},
	}
	for i, c := range cases {
		if Equal(c.a, c.b) != c.want {
			t.Errorf("case %d: Equal(%v, %v) != %v", i, c.a, c.b, c.want)
		}
	}
}

func TestRecordDesc(t *testing.T) {
	d := NewRecordDesc("kv", "key", "value")
	if d.FieldIndex("key") != 0 || d.FieldIndex("value") != 1 {
		t.Fatal("field index")
	}
	if d.FieldIndex("missing") != -1 {
		t.Fatal("missing field index")
	}
	r := d.Record(Str("k1"), Str("v1"))
	if r.Field("key").AsString() != "k1" {
		t.Fatal("field access")
	}
	if !r.SetField("value", Str("v2")) {
		t.Fatal("setfield failed")
	}
	if r.Field("value").AsString() != "v2" {
		t.Fatal("setfield did not stick")
	}
	if r.SetField("missing", Null) {
		t.Fatal("setfield on missing succeeded")
	}
	if !r.Field("missing").IsNull() {
		t.Fatal("missing field should be null")
	}
	empty := d.New()
	if !empty.Field("key").IsNull() {
		t.Fatal("new record fields should be null")
	}
}

func TestRecordEqualIdentity(t *testing.T) {
	d1 := NewRecordDesc("a", "x")
	d2 := NewRecordDesc("a", "x")
	r1 := d1.Record(Int(1))
	r2 := d2.Record(Int(1))
	if Equal(r1, r2) {
		t.Fatal("records of different descs should not be equal")
	}
	if !Equal(r1, d1.Record(Int(1))) {
		t.Fatal("same desc same fields should be equal")
	}
}

func TestFieldOnNonRecord(t *testing.T) {
	if !Int(1).Field("x").IsNull() {
		t.Fatal("Field on int should be null")
	}
	if Int(1).SetField("x", Null) {
		t.Fatal("SetField on int should fail")
	}
}

func TestDict(t *testing.T) {
	dv := NewDict()
	d := dv.P.(*Dict)
	if _, ok := d.Get("a"); ok {
		t.Fatal("empty dict has a")
	}
	d.Set("a", Int(1))
	v, ok := d.Get("a")
	if !ok || v.AsInt() != 1 {
		t.Fatal("get after set")
	}
	if d.Len() != 1 {
		t.Fatal("len")
	}
	d.Delete("a")
	if d.Len() != 0 {
		t.Fatal("delete")
	}
}

func TestDictRange(t *testing.T) {
	dv := NewDict()
	for _, k := range []string{"a", "b", "c"} {
		dv.P.(*Dict).Set(k, Str(k))
	}
	seen := 0
	dv.P.(*Dict).Range(func(k string, v Value) bool {
		seen++
		return true
	})
	if seen != 3 {
		t.Fatalf("range saw %d", seen)
	}
	seen = 0
	dv.P.(*Dict).Range(func(k string, v Value) bool {
		seen++
		return false
	})
	if seen != 1 {
		t.Fatalf("early-exit range saw %d", seen)
	}
}

func TestDictConcurrent(t *testing.T) {
	dv := NewDict()
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			key := string(rune('a' + g))
			for i := 0; i < 1000; i++ {
				dv.P.(*Dict).Set(key, Int(int64(i)))
				dv.P.(*Dict).Get(key)
			}
		}(g)
	}
	wg.Wait()
	if dv.P.(*Dict).Len() != 8 {
		t.Fatalf("len = %d", dv.P.(*Dict).Len())
	}
}

func TestValueString(t *testing.T) {
	d := NewRecordDesc("kv", "k")
	vals := []Value{
		Null, Bool(true), Bool(false), Int(-3), Str("s"),
		Bytes([]byte("b")), Bytes(make([]byte, 100)),
		List(Int(1), Int(2)), NewDict(), d.Record(Int(9)), Opaque("x"),
	}
	for _, v := range vals {
		if v.String() == "" {
			t.Fatalf("empty String() for kind %v", v.Kind)
		}
	}
}

// Property: Equal is reflexive for int/string/bytes/bool values.
func TestEqualReflexiveProperty(t *testing.T) {
	f := func(i int64, s string, b []byte, ok bool) bool {
		vals := []Value{Int(i), Str(s), Bytes(b), Bool(ok)}
		for _, v := range vals {
			if !Equal(v, v) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// Property: string/bytes equality matches Go string equality.
func TestStrBytesEqualProperty(t *testing.T) {
	f := func(a, b string) bool {
		return Equal(Str(a), Bytes([]byte(b))) == (a == b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestValueSize pins the Value layout: values are copied by value through
// every channel hop, record field and expression, so the struct keeps one
// slot per representation.
func TestValueSize(t *testing.T) {
	if n := unsafe.Sizeof(Value{}); n > 80 {
		t.Fatalf("unsafe.Sizeof(Value{}) = %d, want <= 80", n)
	}
}

// TestPooledRecordSlots checks slot access on a pooled record: At borrows
// the record's owner onto byte views (not onto scalars), SetAt nulls the
// "_raw" image except when it writes that slot, Desc reaches the desc
// through the owner, and Owned hands back a desc-backed copy.
func TestPooledRecordSlots(t *testing.T) {
	d := NewRecordDesc("m", "n", "b", "_raw")
	r := d.NewOwned(nil)
	defer r.Release()
	if b := Bytes(nil); r.Desc() != d || b.Desc() != nil {
		t.Fatal("Desc")
	}
	r.L[0], r.L[1], r.L[2] = Int(7), Bytes([]byte("view")), Bytes([]byte("raw"))
	if v := r.At(1); v.Region() == nil || v.AsString() != "view" {
		t.Fatalf("At(1) = %v (region %v), want a borrowed view", v, v.Region())
	}
	if n := r.At(0); n.Region() != nil || !r.At(3).IsNull() || !r.At(-1).IsNull() {
		t.Fatal("At: scalar borrowed a region, or out-of-range slot not null")
	}
	if !r.SetAt(2, Bytes([]byte("raw2"))) || r.At(2).AsString() != "raw2" {
		t.Fatal("SetAt(_raw) must keep the image it writes")
	}
	if !r.SetAt(0, Int(8)) || !r.L[2].IsNull() {
		t.Fatal("SetAt on a field must null the _raw image")
	}
	o := Owned(r)
	if o.Region() != nil || o.Desc() != d || &o.L[0] == &r.L[0] {
		t.Fatal("Owned must copy into a desc-backed record")
	}
	if Str("abc").AsBytes()[0] = 'x'; Str("abc").AsString() != "abc" {
		t.Fatal("AsBytes on a string must copy")
	}
}
