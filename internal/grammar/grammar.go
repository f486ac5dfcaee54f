// Package grammar implements FLICK's message grammar subsystem (§4.2 of the
// paper), modelled on the Spicy/Binpac++ parser generator. A Unit declares
// the wire format of a message as an ordered sequence of fields — fixed-size
// integers, variable-length byte fields whose lengths are computed from
// earlier fields, literal delimiters, delimiter-terminated text fields and
// computed variables with &parse / &serialize expressions. Compiling a unit
// yields a Codec that provides:
//
//   - an incremental StreamDecoder that consumes bytes from a buffer.Queue
//     as they arrive and emits a value.Value record per complete message
//     ("it supports the incremental parsing of messages as new data
//     arrives"), and
//   - an Encode path that re-serialises records, recomputing the
//     length-bearing fields from the current field contents.
//
// Compile accepts the set of fields the FLICK program actually accesses;
// unneeded variable-length fields are skipped rather than materialised
// ("other fields are aggregated ... and then skipped or simply copied in
// their wire format representation"), which is the paper's
// application-specific parser specialisation.
package grammar

import (
	"errors"
	"fmt"

	"flick/internal/buffer"
	"flick/internal/value"
)

// ByteOrder selects the wire encoding of integer fields.
type ByteOrder int

// Byte orders. The paper's %byteorder property defaults to big-endian for
// network formats.
const (
	BigEndian ByteOrder = iota
	LittleEndian
)

// FieldKind enumerates wire field kinds.
type FieldKind int

// Field kinds.
const (
	// KindUint is a fixed-size unsigned integer (Size ∈ {1,2,4,8}).
	KindUint FieldKind = iota
	// KindBytes is a variable-length byte field; Length gives its size.
	KindBytes
	// KindFixedBytes is a fixed-length byte field (Size bytes); often
	// anonymous padding ("reserved for future use").
	KindFixedBytes
	// KindLiteral is a constant byte sequence, validated on parse and
	// emitted verbatim on serialise (delimiters like "\r\n").
	KindLiteral
	// KindUntil is a byte field terminated by Delim; the delimiter is
	// consumed but not included in the value (text protocols).
	KindUntil
	// KindVar is a computed variable: no wire bytes; its value is the
	// &parse expression evaluated over earlier fields.
	KindVar
)

// Field declares one field of a unit.
type Field struct {
	// Name is the field name; "" declares an anonymous field that cannot
	// be referenced (the paper's `_`).
	Name string
	// Kind is the wire kind.
	Kind FieldKind
	// Size is the width of KindUint (1, 2, 4, 8) or KindFixedBytes fields.
	Size int
	// Length computes the byte length of a KindBytes field from earlier
	// fields.
	Length Expr
	// Lit is the constant payload of a KindLiteral field.
	Lit []byte
	// Delim terminates a KindUntil field.
	Delim []byte
	// Parse computes a KindVar field's value during parsing.
	Parse Expr
	// Serialize, when set on a KindUint field, recomputes the field's
	// value during encoding (length fields derive from current contents).
	Serialize Expr
	// MaxLen bounds KindBytes/KindUntil fields; parsing fails with
	// ErrTooLarge beyond it. Zero means the unit default.
	MaxLen int
}

// Unit declares a message format.
type Unit struct {
	// Name identifies the format ("memcached.cmd").
	Name string
	// Order is the integer wire encoding.
	Order ByteOrder
	// Fields is the ordered field list.
	Fields []Field
	// MaxMessage bounds the total message size (default 16 MiB).
	MaxMessage int
}

// Errors reported by compilation and decoding.
var (
	ErrBadUnit    = errors.New("grammar: invalid unit")
	ErrMalformed  = errors.New("grammar: malformed message")
	ErrTooLarge   = errors.New("grammar: message exceeds size bound")
	ErrBadLiteral = errors.New("grammar: literal mismatch")
)

// DefaultMaxMessage bounds message size when the unit does not set one.
const DefaultMaxMessage = 16 << 20

// Expr is an integer expression over earlier fields of a unit, used for
// &length, &parse and &serialize annotations. Expressions are pure and are
// resolved to field slots at compile time.
type Expr interface {
	// refs appends the names this expression references.
	refs(dst []string) []string
	// resolve binds names to slots; returns an evaluable closure.
	resolve(slotOf func(string) int) (compiledExpr, error)
}

// compiledExpr evaluates over a record's field slice. lens[i] carries the
// encoded byte length of field i during serialisation (nil during parse,
// when Len() is invalid).
type compiledExpr func(fields []value.Value, lens []int) int64

type constExpr int64

// Const is a constant expression.
func Const(n int64) Expr { return constExpr(n) }

func (c constExpr) refs(dst []string) []string { return dst }
func (c constExpr) resolve(func(string) int) (compiledExpr, error) {
	return func([]value.Value, []int) int64 { return int64(c) }, nil
}

type refExpr string

// Ref reads the integer value of the named earlier field.
func Ref(name string) Expr { return refExpr(name) }

func (r refExpr) refs(dst []string) []string { return append(dst, string(r)) }
func (r refExpr) resolve(slotOf func(string) int) (compiledExpr, error) {
	i := slotOf(string(r))
	if i < 0 {
		return nil, fmt.Errorf("%w: expression references unknown field %q", ErrBadUnit, string(r))
	}
	return func(fields []value.Value, _ []int) int64 { return fields[i].I }, nil
}

type lenExpr string

// LenOf reads the byte length of the named field. During parsing this is
// the length of the already-parsed field; during serialisation it is the
// encoded length of the field's current contents.
func LenOf(name string) Expr { return lenExpr(name) }

func (l lenExpr) refs(dst []string) []string { return append(dst, string(l)) }
func (l lenExpr) resolve(slotOf func(string) int) (compiledExpr, error) {
	i := slotOf(string(l))
	if i < 0 {
		return nil, fmt.Errorf("%w: expression references unknown field %q", ErrBadUnit, string(l))
	}
	return func(fields []value.Value, lens []int) int64 {
		if lens != nil {
			return int64(lens[i])
		}
		return int64(fields[i].ByteLen())
	}, nil
}

type binExpr struct {
	op   byte
	a, b Expr
}

// Add is a + b.
func Add(a, b Expr) Expr { return binExpr{'+', a, b} }

// Sub is a - b.
func Sub(a, b Expr) Expr { return binExpr{'-', a, b} }

// Mul is a * b.
func Mul(a, b Expr) Expr { return binExpr{'*', a, b} }

func (e binExpr) refs(dst []string) []string {
	return e.b.refs(e.a.refs(dst))
}

func (e binExpr) resolve(slotOf func(string) int) (compiledExpr, error) {
	fa, err := e.a.resolve(slotOf)
	if err != nil {
		return nil, err
	}
	fb, err := e.b.resolve(slotOf)
	if err != nil {
		return nil, err
	}
	switch e.op {
	case '+':
		return func(f []value.Value, l []int) int64 { return fa(f, l) + fb(f, l) }, nil
	case '-':
		return func(f []value.Value, l []int) int64 { return fa(f, l) - fb(f, l) }, nil
	default:
		return func(f []value.Value, l []int) int64 { return fa(f, l) * fb(f, l) }, nil
	}
}

// compiledField is a field with resolved expressions.
type compiledField struct {
	Field
	slot      int // record slot (== field index)
	length    compiledExpr
	parse     compiledExpr
	serialize compiledExpr
	maxLen    int
	needed    bool // materialise the value during parse
}

// Codec is a compiled unit: an incremental decoder factory plus an encoder.
type Codec struct {
	unit    Unit
	fields  []compiledField
	desc    *value.RecordDesc
	maxMsg  int
	capture bool // keep the raw wire image of each message
	rawSlot int  // desc slot of the raw image, -1 when capture is off
}

// CompileOption adjusts codec compilation.
type CompileOption func(*compileCfg)

type compileCfg struct {
	needed  []string
	capture bool
}

// Needed restricts materialisation to the named fields (plus every integer
// field, which must always be decoded to locate later fields). With no
// Needed option all fields are materialised.
func Needed(fields ...string) CompileOption {
	return func(c *compileCfg) { c.needed = append(c.needed, fields...) }
}

// CaptureRaw keeps each message's verbatim wire image in the hidden "_raw"
// record field, enabling zero-rewrite forwarding of unmodified messages.
func CaptureRaw() CompileOption {
	return func(c *compileCfg) { c.capture = true }
}

// Compile validates the unit and builds a codec.
func (u Unit) Compile(opts ...CompileOption) (*Codec, error) {
	var cfg compileCfg
	for _, o := range opts {
		o(&cfg)
	}
	if len(u.Fields) == 0 {
		return nil, fmt.Errorf("%w: unit %q has no fields", ErrBadUnit, u.Name)
	}
	maxMsg := u.MaxMessage
	if maxMsg <= 0 {
		maxMsg = DefaultMaxMessage
	}

	names := make([]string, len(u.Fields))
	slotOfUpTo := func(limit int) func(string) int {
		return func(name string) int {
			for i := 0; i < limit; i++ {
				if names[i] == name && names[i] != "" {
					return i
				}
			}
			return -1
		}
	}
	slotOfAny := func(name string) int {
		for i, n := range names {
			if n == name && n != "" {
				return i
			}
		}
		return -1
	}

	for i, f := range u.Fields {
		name := f.Name
		if name == "" {
			name = fmt.Sprintf("_%d", i)
		}
		for j := 0; j < i; j++ {
			if names[j] == name {
				return nil, fmt.Errorf("%w: duplicate field %q in unit %q", ErrBadUnit, name, u.Name)
			}
		}
		names[i] = name
	}

	neededSet := map[string]bool{}
	pruned := len(cfg.needed) > 0
	for _, n := range cfg.needed {
		if slotOfAny(n) < 0 {
			return nil, fmt.Errorf("%w: needed field %q not in unit %q", ErrBadUnit, n, u.Name)
		}
		neededSet[n] = true
	}

	fields := make([]compiledField, len(u.Fields))
	for i, f := range u.Fields {
		cf := compiledField{Field: f, slot: i, maxLen: f.MaxLen}
		if cf.maxLen <= 0 {
			cf.maxLen = maxMsg
		}
		earlier := slotOfUpTo(i)
		var err error
		switch f.Kind {
		case KindUint:
			switch f.Size {
			case 1, 2, 4, 8:
			default:
				return nil, fmt.Errorf("%w: uint field %q has size %d", ErrBadUnit, names[i], f.Size)
			}
		case KindFixedBytes:
			if f.Size <= 0 {
				return nil, fmt.Errorf("%w: fixed bytes field %q has size %d", ErrBadUnit, names[i], f.Size)
			}
		case KindBytes:
			if f.Length == nil {
				return nil, fmt.Errorf("%w: bytes field %q has no length expression", ErrBadUnit, names[i])
			}
			if cf.length, err = f.Length.resolve(earlier); err != nil {
				return nil, err
			}
		case KindLiteral:
			if len(f.Lit) == 0 {
				return nil, fmt.Errorf("%w: literal field %q is empty", ErrBadUnit, names[i])
			}
		case KindUntil:
			if len(f.Delim) == 0 {
				return nil, fmt.Errorf("%w: until field %q has no delimiter", ErrBadUnit, names[i])
			}
		case KindVar:
			if f.Parse == nil {
				return nil, fmt.Errorf("%w: var field %q has no parse expression", ErrBadUnit, names[i])
			}
			if cf.parse, err = f.Parse.resolve(earlier); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("%w: field %q has unknown kind %d", ErrBadUnit, names[i], f.Kind)
		}
		if f.Serialize != nil {
			if f.Kind != KindUint && f.Kind != KindVar {
				return nil, fmt.Errorf("%w: serialize expression on non-integer field %q", ErrBadUnit, names[i])
			}
			// Serialize expressions may reference any field.
			if cf.serialize, err = f.Serialize.resolve(slotOfAny); err != nil {
				return nil, err
			}
		}
		// Materialisation: integer-like fields are always decoded (cheap,
		// and later lengths may depend on them). Byte-carrying fields are
		// materialised only when needed.
		switch f.Kind {
		case KindUint, KindVar:
			cf.needed = true
		case KindLiteral:
			cf.needed = false
		default:
			cf.needed = !pruned || neededSet[f.Name]
		}
		fields[i] = cf
	}

	descFields := names
	rawSlot := -1
	if cfg.capture {
		descFields = append(append([]string{}, names...), "_raw")
		rawSlot = len(descFields) - 1
	}
	return &Codec{
		unit:    u,
		fields:  fields,
		desc:    value.NewRecordDesc(u.Name, descFields...),
		maxMsg:  maxMsg,
		capture: cfg.capture,
		rawSlot: rawSlot,
	}, nil
}

// MustCompile is Compile that panics on error (for built-in grammars).
func (u Unit) MustCompile(opts ...CompileOption) *Codec {
	c, err := u.Compile(opts...)
	if err != nil {
		panic(err)
	}
	return c
}

// Desc returns the record descriptor for messages of this codec.
func (c *Codec) Desc() *value.RecordDesc { return c.desc }

// FormatName identifies the wire format.
func (c *Codec) FormatName() string { return c.unit.Name }

// Raw returns the captured wire image of a message decoded by a CaptureRaw
// codec, or nil.
func (c *Codec) Raw(msg value.Value) []byte {
	if c.rawSlot < 0 || msg.Kind != value.KindRecord || c.rawSlot >= len(msg.L) {
		return nil
	}
	return msg.L[c.rawSlot].B
}

// ClearRaw drops a message's captured wire image so that Encode rebuilds
// the message from its (possibly modified) fields.
func (c *Codec) ClearRaw(msg value.Value) {
	if c.rawSlot >= 0 && msg.Kind == value.KindRecord && c.rawSlot < len(msg.L) {
		msg.L[c.rawSlot] = value.Null
	}
}

// WireFormat is the interface shared by grammar-compiled codecs and native
// codecs (e.g. the hand-written HTTP codec): an incremental decoder factory
// plus an encoder.
type WireFormat interface {
	// FormatName identifies the format in diagnostics.
	FormatName() string
	// Desc describes the records this format produces.
	Desc() *value.RecordDesc
	// NewDecoder creates an incremental stream decoder.
	NewDecoder() StreamDecoder
	// Encode appends msg's wire form to dst and returns the extended slice.
	Encode(dst []byte, msg value.Value) ([]byte, error)
}

// ScatterEncoder is implemented by codecs that can serialise into a pooled
// scatter list: raw-captured messages are emitted as zero-copy references
// into their backing region, rebuilt messages are copied through scratch
// (returned, possibly grown, for reuse). Output tasks use it to batch many
// messages into one vectored write.
type ScatterEncoder interface {
	EncodeScatter(sc *buffer.Scatter, scratch []byte, msg value.Value) ([]byte, error)
}

// StreamDecoder incrementally decodes messages from a byte queue. One
// decoder serves one connection (§3.2: input tasks deserialise a single
// input channel's byte stream).
type StreamDecoder interface {
	// Decode consumes at most one complete message from q. It returns
	// ok=false (without consuming) when more bytes are required.
	Decode(q *buffer.Queue) (msg value.Value, ok bool, err error)
}

var (
	_ WireFormat     = (*Codec)(nil)
	_ ScatterEncoder = (*Codec)(nil)
)
