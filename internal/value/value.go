// Package value defines the runtime value representation shared by the FLICK
// grammar engine (which parses wire bytes into values), the IR evaluator
// (which computes over them) and the task runtime (whose channels carry
// them).
//
// Values use a flat tagged struct rather than interfaces so that integers,
// booleans and byte-slice fields never box. Records hold their fields in a
// slice indexed through a RecordDesc, which is how the language's static
// typing pays off at runtime: field access is an array index (At, SetAt),
// resolved to a slot once when the program or protocol adapter is built,
// not a map lookup per message.
package value

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"unsafe"
)

// Kind enumerates runtime value kinds.
type Kind uint8

// Value kinds.
const (
	KindNull Kind = iota
	KindBool
	KindInt
	KindString
	KindBytes
	KindList
	KindDict
	KindRecord
	KindOpaque
)

var kindNames = [...]string{"null", "bool", "int", "string", "bytes", "list", "dict", "record", "opaque"}

// String returns the kind name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "invalid"
}

// Value is a runtime value. The zero value is Null. Values are copied on
// every channel hop, record field and expression, so the struct keeps one
// slot per representation (80 bytes) and the kinds share them.
type Value struct {
	Kind Kind
	I    int64   // bool (0/1) and int payload
	B    []byte  // bytes payload; read-only string payload (KindString)
	L    []Value // list elements or record fields
	// P is the *Dict, the opaque payload, an owned record's *RecordDesc, or
	// a pooled record's owner — on the record, and on byte or list views
	// borrowed out of it (see Borrow). nil: a byte payload is owned.
	P any
}

// Region is a refcounted backing store for zero-copy byte views; the last
// Release recycles it. buffer.Ref and the pooled record owner below
// implement it, and values carry the owner (see Value.P).
type Region interface {
	// Retain adds one reference.
	Retain()
	// Release drops one reference, recycling the region at zero.
	Release()
}

// Retain adds a reference to the value's backing region. Owned values (no
// region) are unaffected. Every task that stores a value beyond the current
// call must Retain it; channels retain on push.
func (v *Value) Retain() {
	if o, _ := v.P.(*owner); o != nil {
		o.Retain()
	}
}

// Release drops the caller's reference to the value's backing region. After
// Release the value's byte views must not be read: the pooled memory behind
// them may be recycled for a new message.
func (v *Value) Release() {
	if o, _ := v.P.(*owner); o != nil {
		o.Release()
	}
}

// Region returns the pooled record owner backing v, or nil when v owns its
// payloads. It identifies a decoded message and keeps its bytes alive.
func (v *Value) Region() Region {
	if o, _ := v.P.(*owner); o != nil {
		return o
	}
	return nil
}

// Detach returns Owned(v) when v carries a pooled region, else v itself
// (the caller's reference is NOT released). Use it before storing a decoded
// message beyond the task processing it — the global dictionary detaches on
// Set. Field, At and the compiler's indexing attach the container's region
// to extracted views (see Borrow), so views of pooled records are detected;
// a view carved out by hand (raw v.L[i] access) carries none: use Owned.
func Detach(v Value) Value {
	if v.Region() == nil {
		return v
	}
	return Owned(v)
}

// Owned returns a copy of v that owns every byte payload it carries,
// copying unconditionally: the safe choice when a value of unknown
// provenance must outlive the message it may have come from — record
// constructors storing arguments into a new record, or field assignments
// that move a view from one message into another.
func Owned(v Value) Value {
	if o, ok := v.P.(*owner); ok {
		v.P = nil
		if v.Kind == KindRecord {
			v.P = o.desc
		}
	}
	switch v.Kind {
	case KindBytes:
		v.B = append([]byte(nil), v.B...)
	case KindList, KindRecord:
		// Record field slices are copied too: pooled records recycle them.
		l := make([]Value, len(v.L))
		for i := range v.L {
			l[i] = Owned(v.L[i])
		}
		v.L = l
	}
	return v
}

// Null is the null value.
var Null = Value{}

// Int makes an integer value.
func Int(i int64) Value { return Value{Kind: KindInt, I: i} }

// Bool makes a boolean value.
func Bool(b bool) Value {
	var i int64
	if b {
		i = 1
	}
	return Value{Kind: KindBool, I: i}
}

// Str makes a string value. B aliases the string's memory read-only:
// nothing writes through it, and AsBytes returns a copy.
func Str(s string) Value {
	return Value{Kind: KindString, B: unsafe.Slice(unsafe.StringData(s), len(s))}
}

// Bytes makes a bytes value (no copy).
func Bytes(b []byte) Value { return Value{Kind: KindBytes, B: b} }

// List makes a list value (no copy).
func List(elems ...Value) Value { return Value{Kind: KindList, L: elems} }

// Opaque wraps an arbitrary payload (used for channel references).
func Opaque(x any) Value { return Value{Kind: KindOpaque, P: x} }

// IsNull reports whether v is the null value.
func (v Value) IsNull() bool { return v.Kind == KindNull }

// AsBool returns the boolean payload (false for non-bools).
func (v Value) AsBool() bool { return v.Kind == KindBool && v.I != 0 }

// AsInt returns the integer payload, converting bools.
func (v Value) AsInt() int64 { return v.I }

// AsString returns a string form of string/bytes payloads.
func (v Value) AsString() string {
	switch v.Kind {
	case KindString:
		return unsafe.String(unsafe.SliceData(v.B), len(v.B))
	case KindBytes:
		return string(v.B)
	default:
		return ""
	}
}

// AsBytes returns the byte payload of bytes values, and a copy of string
// payloads (string memory is read-only).
func (v Value) AsBytes() []byte {
	switch v.Kind {
	case KindBytes:
		return v.B
	case KindString:
		return []byte(v.AsString())
	default:
		return nil
	}
}

// ByteLen returns the wire length of string/bytes payloads.
func (v Value) ByteLen() int {
	switch v.Kind {
	case KindBytes, KindString:
		return len(v.B)
	case KindList:
		return len(v.L)
	default:
		return 0
	}
}

// Equal compares two values structurally. Dicts compare by identity,
// opaques by interface equality.
func Equal(a, b Value) bool {
	if a.Kind != b.Kind {
		// Allow string/bytes cross-comparison: they are the same wire data.
		return (a.Kind == KindString || a.Kind == KindBytes) &&
			(b.Kind == KindString || b.Kind == KindBytes) && string(a.B) == string(b.B)
	}
	switch a.Kind {
	case KindNull:
		return true
	case KindBool, KindInt:
		return a.I == b.I
	case KindString, KindBytes:
		return string(a.B) == string(b.B)
	case KindList, KindRecord:
		if a.Kind == KindRecord && a.Desc() != b.Desc() {
			return false
		}
		if len(a.L) != len(b.L) {
			return false
		}
		for i := range a.L {
			if !Equal(a.L[i], b.L[i]) {
				return false
			}
		}
		return true
	case KindDict, KindOpaque:
		return a.P == b.P
	}
	return false
}

// String renders a value for debugging.
func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "null"
	case KindBool:
		return strconv.FormatBool(v.I != 0)
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindString:
		return strconv.Quote(v.AsString())
	case KindBytes:
		if len(v.B) > 32 {
			return fmt.Sprintf("bytes[%d]", len(v.B))
		}
		return strconv.Quote(string(v.B))
	case KindDict:
		return fmt.Sprintf("dict(%d)", v.P.(*Dict).Len())
	case KindList, KindRecord:
		var sb strings.Builder
		d, end := v.Desc(), "]"
		if d != nil {
			sb.WriteString(d.Name + "{")
			end = "}"
		} else {
			sb.WriteByte('[')
		}
		for i, e := range v.L {
			if i > 0 {
				sb.WriteString(", ")
			}
			if d != nil && i < len(d.Fields) {
				sb.WriteString(d.Fields[i] + "=")
			}
			sb.WriteString(e.String())
		}
		sb.WriteString(end)
		return sb.String()
	case KindOpaque:
		return fmt.Sprintf("opaque(%T)", v.P)
	}
	return "invalid"
}

// RecordDesc describes a record type's field layout. Descs are built once
// (at compile time) and shared by every instance, so field lookup is cheap
// and instances are just value slices.
type RecordDesc struct {
	Name   string
	Fields []string
	index  map[string]int
	raw    int       // slot of the "_raw" wire image, or -1
	owners sync.Pool // recycled *owner headers (NewOwned)
}

// NewRecordDesc builds a descriptor for the named record type.
func NewRecordDesc(name string, fields ...string) *RecordDesc {
	d := &RecordDesc{Name: name, Fields: fields, index: make(map[string]int, len(fields))}
	for i, f := range fields {
		d.index[f] = i
	}
	d.raw = d.FieldIndex("_raw")
	return d
}

// FieldIndex returns the slot of the named field, or -1. Hot paths call it
// once, when they are built, and then use At and SetAt.
func (d *RecordDesc) FieldIndex(name string) int {
	if i, ok := d.index[name]; ok {
		return i
	}
	return -1
}

// Desc returns the descriptor of a record value (nil for other kinds). A
// pooled record reaches it through its owner.
func (v *Value) Desc() *RecordDesc {
	if o, ok := v.P.(*owner); ok && v.Kind == KindRecord {
		return o.desc
	}
	d, _ := v.P.(*RecordDesc)
	return d
}

// New creates a record instance with null fields.
func (d *RecordDesc) New() Value {
	return Value{Kind: KindRecord, P: d, L: make([]Value, len(d.Fields))}
}

// owner is the per-message lifecycle of a pooled record: it refcounts the
// record and, on the last Release, recycles the field slice into the desc's
// freelist and releases the wire bytes its views alias.
type owner struct {
	refs   atomic.Int32
	region Region
	fields []Value
	desc   *RecordDesc
}

// Retain implements Region.
func (o *owner) Retain() { o.refs.Add(1) }

// Release implements Region. Releasing past zero panics: a double free
// that would recycle live memory.
func (o *owner) Release() {
	n := o.refs.Add(-1)
	if n > 0 {
		return
	}
	if n < 0 {
		panic("value: record released after refcount reached zero")
	}
	region := o.region
	o.region = nil
	clear(o.fields)
	o.desc.owners.Put(o)
	if region != nil {
		region.Release()
	}
}

// NewOwned creates a pooled record with one reference held by the caller:
// the allocation-free decode path. The field slice comes from a per-desc
// freelist and returns to it on the last Release, which also releases
// region (may be nil) — the message's pooled wire bytes.
func (d *RecordDesc) NewOwned(region Region) Value {
	o, _ := d.owners.Get().(*owner)
	if o == nil {
		o = &owner{desc: d, fields: make([]Value, len(d.Fields))}
	}
	o.refs.Store(1)
	o.region = region
	return Value{Kind: KindRecord, L: o.fields, P: o}
}

// Adopt hands region to the pooled record v (from NewOwned(nil)), for
// decoders that fill a record before they take the message's bytes.
func (v *Value) Adopt(region Region) { v.P.(*owner).region = region }

// Record builds a record instance from field values in declaration order.
func (d *RecordDesc) Record(fields ...Value) Value {
	l := make([]Value, len(d.Fields))
	copy(l, fields)
	return Value{Kind: KindRecord, P: d, L: l}
}

// Field returns the named field of a record value (Null when absent). A
// byte-carrying field of a pooled record carries the record's region as a
// borrowed reference (no Retain), so every escape mechanism — Chan.Push
// retaining, Dict.Set and Detach copying — sees its provenance.
func (v Value) Field(name string) Value {
	if d := v.Desc(); d != nil {
		return v.At(d.FieldIndex(name))
	}
	return Null
}

// At returns slot i of a record value (Null when v is no record or i is out
// of range), borrowing the record's region exactly as Field does.
func (v *Value) At(i int) Value {
	if v.Kind != KindRecord || uint(i) >= uint(len(v.L)) {
		return Value{}
	}
	return Borrow(v.L[i], v)
}

// IntAt is At(i).AsInt() without copying a Value: the integer payload of
// slot i of a record, 0 when v is no record or i is out of range.
func (v *Value) IntAt(i int) int64 {
	if v.Kind != KindRecord || uint(i) >= uint(len(v.L)) {
		return 0
	}
	return v.L[i].I
}

// BytesAt is At(i).AsBytes() without copying a Value. A byte view comes
// back without the record's region: it is valid only while v is.
func (v *Value) BytesAt(i int) []byte {
	if v.Kind != KindRecord || uint(i) >= uint(len(v.L)) {
		return nil
	}
	switch f := &v.L[i]; f.Kind {
	case KindBytes:
		return f.B
	case KindString:
		return append([]byte{}, f.B...)
	}
	return nil
}

// Borrow attaches the pooled owner of container c to a byte or list element
// extracted from it, unless the element tracks its own: a borrowed
// reference (no Retain) that makes it unmistakable for owned memory.
// Scalars and records (always Owned copies inside pooled containers, with
// their desc in P) pass through untouched.
func Borrow(f Value, c *Value) Value {
	if f.P == nil && (f.Kind == KindBytes || f.Kind == KindList) {
		if o, ok := c.P.(*owner); ok {
			f.P = o
		}
	}
	return f
}

// SetField assigns the named field of a record value in place. Mutating any
// field other than "_raw" also nulls the captured wire image (the hidden
// "_raw" slot of CaptureRaw codecs), which encoders replay verbatim: stale,
// it would drop the mutation from the wire. Decoders filling a fresh record
// write slots directly (v.L[i]).
func (v Value) SetField(name string, x Value) bool {
	d := v.Desc()
	return d != nil && v.SetAt(d.FieldIndex(name), x)
}

// SetAt assigns slot i of a record value in place and invalidates the
// "_raw" image unless i is that slot, exactly as SetField does.
func (v *Value) SetAt(i int, x Value) bool {
	d := v.Desc()
	if d == nil || uint(i) >= uint(len(v.L)) {
		return false
	}
	v.L[i] = x
	if i != d.raw && uint(d.raw) < uint(len(v.L)) {
		v.L[d.raw] = Null
	}
	return true
}

// Dict is the FLICK dictionary: string-keyed shared state. Processes declare
// one with the `global` qualifier and every instance of the service shares
// it, so access is guarded by a read/write mutex (§4.3: "Multiple instances
// of the service share the key/value store").
type Dict struct {
	mu sync.RWMutex
	m  map[string]Value
}

// NewDict creates an empty dictionary value.
func NewDict() Value {
	return Value{Kind: KindDict, P: &Dict{m: make(map[string]Value)}}
}

// Get returns the value stored under key and whether it was present.
func (d *Dict) Get(key string) (Value, bool) {
	d.mu.RLock()
	v, ok := d.m[key]
	d.mu.RUnlock()
	return v, ok
}

// Set stores v under key. The stored copy is detached from any pooled
// backing region: dictionaries outlive the message that produced the value
// (the router's cache serves entries long after the original wire buffer
// has been recycled), so Set deep-copies byte views into owned memory.
func (d *Dict) Set(key string, v Value) {
	v = Detach(v)
	d.mu.Lock()
	d.m[key] = v
	d.mu.Unlock()
}

// Delete removes key.
func (d *Dict) Delete(key string) {
	d.mu.Lock()
	delete(d.m, key)
	d.mu.Unlock()
}

// Len returns the number of entries.
func (d *Dict) Len() int {
	d.mu.RLock()
	n := len(d.m)
	d.mu.RUnlock()
	return n
}

// Range calls fn for each entry until fn returns false. The dictionary is
// locked for reading during the walk.
func (d *Dict) Range(fn func(k string, v Value) bool) {
	d.mu.RLock()
	defer d.mu.RUnlock()
	for k, v := range d.m {
		if !fn(k, v) {
			return
		}
	}
}
