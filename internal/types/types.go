// Package types implements the FLICK static type checker. The language is
// strongly and statically typed for safety (§4.3); beyond conventional
// checking, this package enforces the restrictions that make FLICK programs
// safe to schedule cooperatively:
//
//   - functions are first-order and may not recurse, directly or indirectly
//     (§3.2 "User-defined functions in FLICK are restricted to be
//     first-order and cannot be recursive"),
//   - iteration exists only through the bounded builtins map/filter/fold
//     over finite lists — the grammar has no loop statement at all,
//   - channel direction annotations are enforced (a write-only channel
//     cannot be read, §4.1's test_cache),
//   - serialisation annotations may reference only earlier integer fields.
//
// Together with finite input these guarantee every task activation
// terminates, which is what lets the platform run task graphs without
// preemption or isolation (§5).
package types

import (
	"fmt"

	"flick/internal/lang"
)

// Kind enumerates semantic types.
type Kind int

// Type kinds.
const (
	Invalid Kind = iota
	Unit
	Int
	Str
	Bool
	Bytes
	None
	Record
	Dict
	List
	Chan
	Any
)

// String names the kind as the language spells it.
func (k Kind) String() string {
	switch k {
	case Invalid:
		return "invalid"
	case Unit:
		return "unit"
	case Int:
		return "integer"
	case Str:
		return "string"
	case Bool:
		return "boolean"
	case Bytes:
		return "bytes"
	case None:
		return "None"
	case Record:
		return "record"
	case Dict:
		return "dict"
	case List:
		return "list"
	case Chan:
		return "channel"
	case Any:
		return "any"
	}
	return "?"
}

// Type is a semantic type.
type Type struct {
	Kind  Kind
	Name  string // record type name
	Elem  *Type  // list element
	Key   *Type  // dict key
	Val   *Type  // dict value
	Recv  *Type  // channel produce side (nil when write-only)
	Send  *Type  // channel accept side (nil when read-only)
	Array bool   // channel array
	// free marks a type variable: an empty_dict's key or value type, fixed
	// in place by its first typed use (bind) for every expression sharing
	// the node. peers are the variables unified with it while unknown.
	free  bool
	peers []*Type
}

// Dir derives a channel type's direction from its populated sides.
func (t *Type) Dir() lang.ChanDir {
	switch {
	case t.Recv == nil:
		return lang.ChanWrite
	case t.Send == nil:
		return lang.ChanRead
	default:
		return lang.ChanBoth
	}
}

// Convenient singletons.
var (
	TInt   = &Type{Kind: Int}
	TStr   = &Type{Kind: Str}
	TBool  = &Type{Kind: Bool}
	TBytes = &Type{Kind: Bytes}
	TUnit  = &Type{Kind: Unit}
	TNone  = &Type{Kind: None}
	TAny   = &Type{Kind: Any}
)

// String renders the type.
func (t *Type) String() string {
	switch t.Kind {
	case Record:
		return t.Name
	case Dict:
		return "dict<" + t.Key.String() + "*" + t.Val.String() + ">"
	case List:
		return "list<" + t.Elem.String() + ">"
	case Chan:
		r, s := "-", "-"
		if t.Recv != nil {
			r = t.Recv.String()
		}
		if t.Send != nil {
			s = t.Send.String()
		}
		core := r + "/" + s
		if t.Array {
			return "[" + core + "]"
		}
		return core
	default:
		return t.Kind.String()
	}
}

// compatible reports whether a value of type got can be supplied where want
// is expected. A free variable meeting a concrete type is bound to it, so a
// dict's first typed use pins its type and a later use at another type is
// rejected; records read out of it then have the layout their type names.
// The builtins' Any parameters accept everything.
func compatible(want, got *Type) bool {
	if got.free {
		want, got = got, want // unifying a variable is symmetric
	}
	if want.free {
		switch {
		case got.free && got != want:
			want.peers, got.peers = append(want.peers, got), append(got.peers, want)
		case concrete(got):
			return bind(want, got)
		}
		return true
	}
	if want.Kind == Any || got.Kind == Any {
		return true
	}
	if want.Kind != got.Kind {
		return false
	}
	switch want.Kind {
	case Record:
		return want.Name == got.Name
	case Dict:
		return compatible(want.Key, got.Key) && compatible(want.Val, got.Val)
	case List:
		return compatible(want.Elem, got.Elem)
	case Chan:
		if want.Array != got.Array {
			return false
		}
		// Each capability the target requires must be provided with a
		// compatible type; a bidirectional channel may flow where a
		// restricted one is expected, never the reverse (§4.1).
		if want.Recv != nil && (got.Recv == nil || !compatible(want.Recv, got.Recv)) {
			return false
		}
		if want.Send != nil && (got.Send == nil || !compatible(want.Send, got.Send)) {
			return false
		}
		return true
	}
	return true
}

// bind fixes the free variable v to the concrete type t in place, then
// fixes or checks the variables unified with v.
func bind(v, t *Type) bool {
	peers := v.peers
	*v = *t
	for _, p := range peers {
		if !compatible(p, v) {
			return false
		}
	}
	return true
}

// concrete reports whether t holds no Any, free or not.
func concrete(t *Type) bool {
	for _, sub := range []*Type{t.Elem, t.Key, t.Val, t.Recv, t.Send} {
		if sub != nil && !concrete(sub) {
			return false
		}
	}
	return t.Kind != Any
}

// Checked is the result of a successful check: symbol tables the compiler
// consumes.
type Checked struct {
	Prog  *lang.Program
	Types map[string]*lang.TypeDecl
	Funs  map[string]*lang.FunDecl
	Procs map[string]*lang.ProcDecl
	// GlobalTypes maps proc name → global name → type.
	GlobalTypes map[string]map[string]*Type
	// FieldRecs maps each field access to the record type of its base, so
	// the compiler resolves the field's slot once. Every access is in it: a
	// base of unknown type is a compile error.
	FieldRecs map[*lang.FieldExpr]string
}

// Check validates a parsed program.
func Check(prog *lang.Program) (*Checked, error) {
	c := &checker{
		out: &Checked{
			Prog:        prog,
			Types:       map[string]*lang.TypeDecl{},
			Funs:        map[string]*lang.FunDecl{},
			Procs:       map[string]*lang.ProcDecl{},
			GlobalTypes: map[string]map[string]*Type{},
			FieldRecs:   map[*lang.FieldExpr]string{},
		},
	}
	if err := c.collect(prog); err != nil {
		return nil, err
	}
	if err := c.checkNoRecursion(prog); err != nil {
		return nil, err
	}
	for _, f := range prog.Funs {
		if err := c.checkFun(f); err != nil {
			return nil, err
		}
	}
	for _, p := range prog.Procs {
		if err := c.checkProc(p); err != nil {
			return nil, err
		}
	}
	return c.out, nil
}

type checker struct {
	out *Checked
}

// scope is a lexical environment.
type scope struct {
	parent *scope
	names  map[string]*Type
}

func newScope(parent *scope) *scope {
	return &scope{parent: parent, names: map[string]*Type{}}
}

func (s *scope) lookup(name string) *Type {
	for sc := s; sc != nil; sc = sc.parent {
		if t, ok := sc.names[name]; ok {
			return t
		}
	}
	return nil
}

func (s *scope) declare(name string, t *Type) bool {
	if _, ok := s.names[name]; ok {
		return false
	}
	s.names[name] = t
	return true
}

// collect gathers declarations and validates type declarations.
func (c *checker) collect(prog *lang.Program) error {
	for _, td := range prog.Types {
		if _, dup := c.out.Types[td.Name]; dup {
			return errf(td.Pos, "type %q redeclared", td.Name)
		}
		if isBaseType(td.Name) {
			return errf(td.Pos, "type %q shadows a built-in type", td.Name)
		}
		c.out.Types[td.Name] = td
	}
	for _, td := range prog.Types {
		if err := c.checkTypeDecl(td); err != nil {
			return err
		}
	}
	for _, f := range prog.Funs {
		if _, dup := c.out.Funs[f.Name]; dup {
			return errf(f.Pos, "function %q redeclared", f.Name)
		}
		if _, isB := builtinSigs[f.Name]; isB {
			return errf(f.Pos, "function %q shadows a builtin", f.Name)
		}
		if _, isT := c.out.Types[f.Name]; isT {
			return errf(f.Pos, "function %q collides with type %q", f.Name, f.Name)
		}
		c.out.Funs[f.Name] = f
	}
	for _, p := range prog.Procs {
		if _, dup := c.out.Procs[p.Name]; dup {
			return errf(p.Pos, "process %q redeclared", p.Name)
		}
		c.out.Procs[p.Name] = p
	}
	return nil
}

func isBaseType(name string) bool {
	switch name {
	case "integer", "string", "boolean", "bytes", "dict", "list":
		return true
	}
	return false
}

// checkTypeDecl validates record fields and serialisation annotations.
func (c *checker) checkTypeDecl(td *lang.TypeDecl) error {
	if len(td.Fields) == 0 {
		return errf(td.Pos, "record %q has no fields", td.Name)
	}
	seen := map[string]bool{}
	intFields := map[string]bool{} // earlier integer fields usable in sizes
	for _, f := range td.Fields {
		if f.Name != "" {
			if seen[f.Name] {
				return errf(f.Pos, "field %q redeclared in record %q", f.Name, td.Name)
			}
			seen[f.Name] = true
		}
		switch f.Type.Name {
		case "integer", "string", "bytes", "boolean":
		default:
			return errf(f.Pos, "record field %q has unsupported wire type %q", f.Name, f.Type.Name)
		}
		for _, a := range f.Attrs {
			switch a.Name {
			case "size":
				if err := c.checkSizeExpr(a.Value, intFields); err != nil {
					return err
				}
			case "signed":
				if _, ok := a.Value.(*lang.BoolLit); !ok {
					return errf(f.Pos, "signed annotation on %q must be true or false", f.Name)
				}
			default:
				return errf(f.Pos, "unknown annotation %q on field %q", a.Name, f.Name)
			}
		}
		if f.Type.Name == "integer" && f.Name != "" {
			intFields[f.Name] = true
		}
	}
	return nil
}

// checkSizeExpr restricts size annotations to integer arithmetic over
// constants and earlier integer fields.
func (c *checker) checkSizeExpr(e lang.Expr, intFields map[string]bool) error {
	switch x := e.(type) {
	case *lang.IntLit:
		return nil
	case *lang.Ident:
		if !intFields[x.Name] {
			return errf(x.Pos, "size expression references %q, which is not an earlier integer field", x.Name)
		}
		return nil
	case *lang.BinaryExpr:
		switch x.Op {
		case lang.TokPlus, lang.TokMinus, lang.TokStar:
		default:
			return errf(x.Pos, "size expressions support only + - *")
		}
		if err := c.checkSizeExpr(x.L, intFields); err != nil {
			return err
		}
		return c.checkSizeExpr(x.R, intFields)
	default:
		return errf(e.Position(), "unsupported size expression")
	}
}

// resolveTypeRef converts syntax to a semantic type.
func (c *checker) resolveTypeRef(tr *lang.TypeRef) (*Type, error) {
	switch tr.Name {
	case "integer":
		return TInt, nil
	case "string":
		return TStr, nil
	case "boolean":
		return TBool, nil
	case "bytes":
		return TBytes, nil
	case "dict":
		k, err := c.resolveTypeRef(tr.Args[0])
		if err != nil {
			return nil, err
		}
		v, err := c.resolveTypeRef(tr.Args[1])
		if err != nil {
			return nil, err
		}
		return &Type{Kind: Dict, Key: k, Val: v}, nil
	case "list":
		e, err := c.resolveTypeRef(tr.Args[0])
		if err != nil {
			return nil, err
		}
		return &Type{Kind: List, Elem: e}, nil
	default:
		if _, ok := c.out.Types[tr.Name]; !ok {
			return nil, errf(tr.Pos, "unknown type %q", tr.Name)
		}
		return &Type{Kind: Record, Name: tr.Name}, nil
	}
}

func (c *checker) chanType(ct *lang.ChanType) (*Type, error) {
	t := &Type{Kind: Chan, Array: ct.Array}
	if ct.Recv != "" {
		if _, ok := c.out.Types[ct.Recv]; !ok {
			return nil, errf(ct.Pos, "channel element type %q is not declared", ct.Recv)
		}
		t.Recv = &Type{Kind: Record, Name: ct.Recv}
	}
	if ct.Send != "" {
		if _, ok := c.out.Types[ct.Send]; !ok {
			return nil, errf(ct.Pos, "channel element type %q is not declared", ct.Send)
		}
		t.Send = &Type{Kind: Record, Name: ct.Send}
	}
	return t, nil
}

func errf(pos lang.Pos, format string, args ...any) error {
	return &lang.Error{Pos: pos, Msg: fmt.Sprintf(format, args...)}
}
