package lang

import (
	"fmt"
	"strings"
)

// Program is a parsed FLICK compilation unit.
type Program struct {
	Types []*TypeDecl
	Procs []*ProcDecl
	Funs  []*FunDecl
}

// TypeDecl declares a record type, optionally with serialisation
// annotations on its fields (Listing 1 of the paper).
type TypeDecl struct {
	Pos    Pos
	Name   string
	Fields []*FieldDecl
}

// FieldDecl is one record field. Anonymous fields ("_") consume wire bytes
// but are not addressable.
type FieldDecl struct {
	Pos   Pos
	Name  string // "" when anonymous
	Type  *TypeRef
	Attrs []Attr // serialisation annotations: size=, signed=
}

// Attr is a field annotation: name = expression (over earlier fields).
type Attr struct {
	Name  string
	Value Expr
}

// TypeRef names a type: a base type, a record type, or a parameterised
// dict/list.
type TypeRef struct {
	Pos  Pos
	Name string // "integer", "string", "boolean", "bytes", "dict", "list", or a record name
	Args []*TypeRef
}

// String renders the type reference in source syntax, e.g. dict<string*cmd>.
func (t *TypeRef) String() string {
	if len(t.Args) == 0 {
		return t.Name
	}
	parts := make([]string, len(t.Args))
	for i, a := range t.Args {
		parts[i] = a.String()
	}
	sep := "*"
	if t.Name == "list" {
		sep = ","
	}
	return t.Name + "<" + strings.Join(parts, sep) + ">"
}

// ChanDir is a channel direction annotation.
type ChanDir int

// Channel directions: both (T/T), read-only (T/-), write-only (-/T).
const (
	ChanBoth ChanDir = iota
	ChanRead
	ChanWrite
)

// String names the direction: both, read or write.
func (d ChanDir) String() string {
	switch d {
	case ChanBoth:
		return "both"
	case ChanRead:
		return "read"
	case ChanWrite:
		return "write"
	}
	return "invalid"
}

// ChanType is a channel's produce/accept types and direction. A channel
// typed `req/resp` produces values of type req (the process reads them) and
// accepts values of type resp (the process writes them); `-` on either side
// restricts the direction (§4.1: "Channels are bi-directional and typed
// according to the type of values produce/consume").
type ChanType struct {
	Pos   Pos
	Recv  string // type produced to the process ("" when write-only)
	Send  string // type accepted from the process ("" when read-only)
	Array bool   // [T/T] channel array
}

// Dir derives the direction from the populated sides.
func (c *ChanType) Dir() ChanDir {
	switch {
	case c.Recv == "":
		return ChanWrite
	case c.Send == "":
		return ChanRead
	default:
		return ChanBoth
	}
}

// Elem returns the channel's primary element type: the produce side when
// readable, otherwise the accept side.
func (c *ChanType) Elem() string {
	if c.Recv != "" {
		return c.Recv
	}
	return c.Send
}

// String renders the channel type in source syntax, e.g. [cmd/-].
func (c *ChanType) String() string {
	r, s := c.Recv, c.Send
	if r == "" {
		r = "-"
	}
	if s == "" {
		s = "-"
	}
	core := r + "/" + s
	if c.Array {
		return "[" + core + "]"
	}
	return core
}

// ProcDecl declares a process: its channel signature and body.
type ProcDecl struct {
	Pos      Pos
	Name     string
	Channels []*ChanParam
	Body     []Stmt
}

// ChanParam is one channel parameter of a process.
type ChanParam struct {
	Pos  Pos
	Name string
	Type *ChanType
}

// FunDecl declares a function. FLICK functions are first-order and may not
// recurse (§3.2 of the paper).
type FunDecl struct {
	Pos     Pos
	Name    string
	Params  []*Param
	Results []*TypeRef // empty = unit
	Body    []Stmt
}

// Param is a function parameter: a value (possibly by reference) or a
// channel (write-only channels let functions route data, Listing 1's
// test_cache).
type Param struct {
	Pos  Pos
	Name string
	// Value parameter:
	Type *TypeRef
	Ref  bool
	// Channel parameter (Type == nil):
	Chan *ChanType
}

// --- statements ---

// Stmt is a statement node.
type Stmt interface {
	stmtNode()
	Position() Pos
}

// GlobalStmt declares process-wide shared state: `global cache := empty_dict`.
type GlobalStmt struct {
	Pos  Pos
	Name string
	Init Expr
}

// LetStmt binds a local: `let target = hash(req.key) mod len(backends)`.
type LetStmt struct {
	Pos  Pos
	Name string
	Init Expr
}

// AssignStmt stores through a dict index or record field:
// `cache[resp.key] := resp`.
type AssignStmt struct {
	Pos    Pos
	Target Expr // IndexExpr or FieldExpr
	Value  Expr
}

// IfStmt is a conditional with optional else.
type IfStmt struct {
	Pos  Pos
	Cond Expr
	Then []Stmt
	Else []Stmt
}

// PipeStmt routes data in a process body:
// `backends => update_cache(cache) => client`. Src is a channel (or channel
// array); Stages are function applications; Dst, when set, receives each
// stage chain's result.
type PipeStmt struct {
	Pos    Pos
	Src    Expr
	Stages []*CallExpr // may be empty (pure forwarding)
	Dst    Expr        // nil when the last stage consumes the value
}

// SendStmt transmits a value into a channel inside a function body:
// `req => backends[target]`.
type SendStmt struct {
	Pos   Pos
	Value Expr
	Dst   Expr
}

// FoldtStmt is the parallel tree fold over a channel array (§4.3):
// `foldt combine key_of mappers => reducer`.
type FoldtStmt struct {
	Pos     Pos
	Combine string // binary aggregation function (commutative, associative)
	Order   string // key-extraction function
	Src     string // channel-array parameter name
	Dst     string // output channel parameter name
}

// ExprStmt evaluates an expression; the last expression statement executed
// in a function body is its return value.
type ExprStmt struct {
	Pos Pos
	X   Expr
}

func (*GlobalStmt) stmtNode() {}
func (*LetStmt) stmtNode()    {}
func (*AssignStmt) stmtNode() {}
func (*IfStmt) stmtNode()     {}
func (*PipeStmt) stmtNode()   {}
func (*SendStmt) stmtNode()   {}
func (*FoldtStmt) stmtNode()  {}
func (*ExprStmt) stmtNode()   {}

// Position implements Stmt.
func (s *GlobalStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *LetStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *AssignStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *IfStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *PipeStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *SendStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *FoldtStmt) Position() Pos { return s.Pos }

// Position implements Stmt.
func (s *ExprStmt) Position() Pos { return s.Pos }

// --- expressions ---

// Expr is an expression node.
type Expr interface {
	exprNode()
	Position() Pos
}

// Ident references a name.
type Ident struct {
	Pos  Pos
	Name string
}

// IntLit is an integer literal.
type IntLit struct {
	Pos Pos
	Val int64
}

// StrLit is a string literal.
type StrLit struct {
	Pos Pos
	Val string
}

// BoolLit is true/false.
type BoolLit struct {
	Pos Pos
	Val bool
}

// NoneLit is the null literal.
type NoneLit struct {
	Pos Pos
}

// FieldExpr accesses a record field: resp.key.
type FieldExpr struct {
	Pos  Pos
	X    Expr
	Name string
}

// IndexExpr indexes a dict or channel array: cache[k], backends[i].
type IndexExpr struct {
	Pos   Pos
	X     Expr
	Index Expr
}

// CallExpr applies a function or builtin.
type CallExpr struct {
	Pos  Pos
	Name string
	Args []Expr
}

// BinaryExpr combines two operands. Op is the token kind of the operator.
type BinaryExpr struct {
	Pos  Pos
	Op   TokKind
	L, R Expr
}

// UnaryExpr negates (TokMinus) or complements (TokNot) its operand.
type UnaryExpr struct {
	Pos Pos
	Op  TokKind
	X   Expr
}

func (*Ident) exprNode()      {}
func (*IntLit) exprNode()     {}
func (*StrLit) exprNode()     {}
func (*BoolLit) exprNode()    {}
func (*NoneLit) exprNode()    {}
func (*FieldExpr) exprNode()  {}
func (*IndexExpr) exprNode()  {}
func (*CallExpr) exprNode()   {}
func (*BinaryExpr) exprNode() {}
func (*UnaryExpr) exprNode()  {}

// Position implements Expr.
func (e *Ident) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *IntLit) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *StrLit) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *BoolLit) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *NoneLit) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *FieldExpr) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *IndexExpr) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *CallExpr) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *BinaryExpr) Position() Pos { return e.Pos }

// Position implements Expr.
func (e *UnaryExpr) Position() Pos { return e.Pos }

// ExprString renders an expression for diagnostics.
func ExprString(e Expr) string {
	switch x := e.(type) {
	case *Ident:
		return x.Name
	case *IntLit:
		return fmt.Sprint(x.Val)
	case *StrLit:
		return fmt.Sprintf("%q", x.Val)
	case *BoolLit:
		return fmt.Sprint(x.Val)
	case *NoneLit:
		return "None"
	case *FieldExpr:
		return ExprString(x.X) + "." + x.Name
	case *IndexExpr:
		return ExprString(x.X) + "[" + ExprString(x.Index) + "]"
	case *CallExpr:
		args := make([]string, len(x.Args))
		for i, a := range x.Args {
			args[i] = ExprString(a)
		}
		return x.Name + "(" + strings.Join(args, ", ") + ")"
	case *BinaryExpr:
		return "(" + ExprString(x.L) + " " + x.Op.String() + " " + ExprString(x.R) + ")"
	case *UnaryExpr:
		return x.Op.String() + " " + ExprString(x.X)
	}
	return "?"
}
