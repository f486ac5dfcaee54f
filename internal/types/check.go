package types

import (
	"flick/internal/lang"
)

// builtinSig describes a builtin function's signature. Builtins with
// polymorphic parameters use TAny and rely on bespoke checks below.
type builtinSig struct {
	params  []*Type
	result  *Type  // nil: a fresh dict (resultType)
	special string // "", "map", "filter", "fold", "ctor"
}

// resultType returns the builtin's result type. Each empty_dict gets its
// own key and value variables, fixed by the dict's first typed use.
func (s builtinSig) resultType() *Type {
	if s.result == nil {
		return &Type{Kind: Dict, Key: &Type{Kind: Any, free: true}, Val: &Type{Kind: Any, free: true}}
	}
	return s.result
}

var builtinSigs = map[string]builtinSig{
	"hash":          {params: []*Type{TAny}, result: TInt},
	"len":           {params: []*Type{TAny}, result: TInt},
	"empty_dict":    {params: nil},
	"string_to_int": {params: []*Type{TStr}, result: TInt},
	"int_to_string": {params: []*Type{TInt}, result: TStr},
	"instance_id":   {params: nil, result: TInt},
	"split_words":   {params: []*Type{TStr}, result: &Type{Kind: List, Elem: TStr}},
	"to_upper":      {params: []*Type{TStr}, result: TStr},
	"to_lower":      {params: []*Type{TStr}, result: TStr},
	// Bounded higher-order iteration (§3.2): translated to finite loops,
	// the function argument must be a declared first-order function name.
	"map":    {special: "map"},
	"filter": {special: "filter"},
	"fold":   {special: "fold"},
}

// checkNoRecursion rejects direct or indirect recursion by DFS over the
// call graph (including function names passed to map/filter/fold and the
// foldt combine/order arguments).
func (c *checker) checkNoRecursion(prog *lang.Program) error {
	edges := map[string][]string{}
	for _, f := range prog.Funs {
		calls := map[string]bool{}
		collectCalls(f.Body, calls)
		for callee := range calls {
			if _, ok := c.out.Funs[callee]; ok {
				edges[f.Name] = append(edges[f.Name], callee)
			}
		}
	}
	const (
		white = 0
		grey  = 1
		black = 2
	)
	color := map[string]int{}
	var visit func(string) error
	visit = func(name string) error {
		switch color[name] {
		case grey:
			return errf(c.out.Funs[name].Pos,
				"function %q is recursive (directly or indirectly), which FLICK forbids", name)
		case black:
			return nil
		}
		color[name] = grey
		for _, callee := range edges[name] {
			if err := visit(callee); err != nil {
				return err
			}
		}
		color[name] = black
		return nil
	}
	for _, f := range prog.Funs {
		if err := visit(f.Name); err != nil {
			return err
		}
	}
	return nil
}

// collectCalls records called names, including function-name arguments of
// the iteration builtins.
func collectCalls(stmts []lang.Stmt, out map[string]bool) {
	var walkExpr func(lang.Expr)
	walkExpr = func(e lang.Expr) {
		switch x := e.(type) {
		case *lang.CallExpr:
			out[x.Name] = true
			if x.Name == "map" || x.Name == "filter" || x.Name == "fold" {
				if len(x.Args) > 0 {
					if id, ok := x.Args[0].(*lang.Ident); ok {
						out[id.Name] = true
					}
				}
			}
			for _, a := range x.Args {
				walkExpr(a)
			}
		case *lang.FieldExpr:
			walkExpr(x.X)
		case *lang.IndexExpr:
			walkExpr(x.X)
			walkExpr(x.Index)
		case *lang.BinaryExpr:
			walkExpr(x.L)
			walkExpr(x.R)
		case *lang.UnaryExpr:
			walkExpr(x.X)
		}
	}
	var walkStmt func(lang.Stmt)
	walkStmt = func(s lang.Stmt) {
		switch x := s.(type) {
		case *lang.LetStmt:
			walkExpr(x.Init)
		case *lang.GlobalStmt:
			walkExpr(x.Init)
		case *lang.AssignStmt:
			walkExpr(x.Target)
			walkExpr(x.Value)
		case *lang.IfStmt:
			walkExpr(x.Cond)
			for _, t := range x.Then {
				walkStmt(t)
			}
			for _, t := range x.Else {
				walkStmt(t)
			}
		case *lang.PipeStmt:
			walkExpr(x.Src)
			for _, st := range x.Stages {
				walkExpr(st)
			}
			if x.Dst != nil {
				walkExpr(x.Dst)
			}
		case *lang.SendStmt:
			walkExpr(x.Value)
			walkExpr(x.Dst)
		case *lang.FoldtStmt:
			out[x.Combine] = true
			out[x.Order] = true
		case *lang.ExprStmt:
			walkExpr(x.X)
		}
	}
	for _, s := range stmts {
		walkStmt(s)
	}
}

// funSig resolves a function's parameter and result types.
func (c *checker) funSig(f *lang.FunDecl) (params []*Type, result *Type, err error) {
	for _, p := range f.Params {
		var t *Type
		if p.Chan != nil {
			t, err = c.chanType(p.Chan)
		} else {
			t, err = c.resolveTypeRef(p.Type)
		}
		if err != nil {
			return nil, nil, err
		}
		params = append(params, t)
	}
	switch len(f.Results) {
	case 0:
		result = TUnit
	case 1:
		result, err = c.resolveTypeRef(f.Results[0])
		if err != nil {
			return nil, nil, err
		}
	default:
		return nil, nil, errf(f.Pos, "function %q: multiple results are not supported", f.Name)
	}
	return params, result, nil
}

// checkFun validates one function body.
func (c *checker) checkFun(f *lang.FunDecl) error {
	params, result, err := c.funSig(f)
	if err != nil {
		return err
	}
	sc := newScope(nil)
	for i, p := range f.Params {
		if !sc.declare(p.Name, params[i]) {
			return errf(p.Pos, "parameter %q redeclared", p.Name)
		}
	}
	got, err := c.checkBlock(f.Body, sc, funCtx)
	if err != nil {
		return err
	}
	if result.Kind == Unit {
		return nil // values of trailing expressions are discarded
	}
	if got == nil || got.Kind == Unit {
		return errf(f.Pos, "function %q must end with an expression of type %s", f.Name, result)
	}
	if !compatible(result, got) {
		return errf(f.Pos, "function %q returns %s, declared %s", f.Name, got, result)
	}
	return nil
}

type stmtCtx int

const (
	funCtx stmtCtx = iota
	procCtx
)

// checkBlock checks statements and returns the block's trailing expression
// type (nil when the block does not end in a value).
func (c *checker) checkBlock(stmts []lang.Stmt, sc *scope, ctx stmtCtx) (*Type, error) {
	var last *Type
	for i, s := range stmts {
		t, err := c.checkStmt(s, sc, ctx)
		if err != nil {
			return nil, err
		}
		if i == len(stmts)-1 {
			last = t
		}
	}
	return last, nil
}

// checkStmt returns the statement's value type for trailing-expression
// purposes (nil for non-value statements).
func (c *checker) checkStmt(s lang.Stmt, sc *scope, ctx stmtCtx) (*Type, error) {
	switch x := s.(type) {
	case *lang.GlobalStmt:
		if ctx != procCtx {
			return nil, errf(x.Pos, "global declarations are only allowed in process bodies")
		}
		t, err := c.checkExpr(x.Init, sc)
		if err != nil {
			return nil, err
		}
		if t.Kind != Dict {
			return nil, errf(x.Pos, "global %q must be a dict (the platform's key/value store), got %s", x.Name, t)
		}
		if !sc.declare(x.Name, t) {
			return nil, errf(x.Pos, "global %q redeclared", x.Name)
		}
		return nil, nil

	case *lang.LetStmt:
		t, err := c.checkExpr(x.Init, sc)
		if err != nil {
			return nil, err
		}
		if t.Kind == Unit {
			return nil, errf(x.Pos, "let %q binds a unit value", x.Name)
		}
		if !sc.declare(x.Name, t) {
			return nil, errf(x.Pos, "%q redeclared", x.Name)
		}
		return nil, nil

	case *lang.AssignStmt:
		return nil, c.checkAssign(x, sc)

	case *lang.IfStmt:
		ct, err := c.checkExpr(x.Cond, sc)
		if err != nil {
			return nil, err
		}
		if ct.Kind != Bool {
			return nil, errf(x.Pos, "if condition must be boolean, got %s", ct)
		}
		thenT, err := c.checkBlock(x.Then, newScope(sc), ctx)
		if err != nil {
			return nil, err
		}
		if x.Else == nil {
			return nil, nil
		}
		elseT, err := c.checkBlock(x.Else, newScope(sc), ctx)
		if err != nil {
			return nil, err
		}
		if thenT != nil && elseT != nil && compatible(thenT, elseT) {
			return thenT, nil
		}
		return nil, nil

	case *lang.PipeStmt:
		if ctx == procCtx {
			return nil, c.checkProcPipe(x, sc)
		}
		return nil, c.checkSendPipe(x, sc)

	case *lang.SendStmt:
		return nil, c.checkSend(x.Pos, x.Value, x.Dst, sc)

	case *lang.FoldtStmt:
		if ctx != procCtx {
			return nil, errf(x.Pos, "foldt is only allowed in process bodies")
		}
		return nil, c.checkFoldt(x, sc)

	case *lang.ExprStmt:
		t, err := c.checkExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		return t, nil
	}
	return nil, errf(s.Position(), "unsupported statement")
}

// checkAssign validates dict-index and record-field stores.
func (c *checker) checkAssign(x *lang.AssignStmt, sc *scope) error {
	vt, err := c.checkExpr(x.Value, sc)
	if err != nil {
		return err
	}
	switch tgt := x.Target.(type) {
	case *lang.IndexExpr:
		bt, err := c.checkExpr(tgt.X, sc)
		if err != nil {
			return err
		}
		if bt.Kind != Dict {
			return errf(tgt.Pos, "cannot assign through index of %s", bt)
		}
		kt, err := c.checkExpr(tgt.Index, sc)
		if err != nil {
			return err
		}
		if !compatible(bt.Key, kt) {
			return errf(tgt.Pos, "dict key is %s, index is %s", bt.Key, kt)
		}
		if !compatible(bt.Val, vt) {
			return errf(x.Pos, "dict value is %s, assigned %s", bt.Val, vt)
		}
		return nil
	case *lang.FieldExpr:
		ft, err := c.checkExpr(tgt, sc)
		if err != nil {
			return err
		}
		if !compatible(ft, vt) {
			return errf(x.Pos, "field %q is %s, assigned %s", tgt.Name, ft, vt)
		}
		return nil
	default:
		return errf(x.Pos, "assignment target must be a dict entry or record field")
	}
}

// checkSendPipe handles `v => ch` written with pipeline syntax in functions.
func (c *checker) checkSendPipe(x *lang.PipeStmt, sc *scope) error {
	if len(x.Stages) != 0 {
		return errf(x.Pos, "pipelines with stages are only allowed in process bodies")
	}
	if x.Dst == nil {
		return errf(x.Pos, "send requires a destination channel")
	}
	return c.checkSend(x.Pos, x.Src, x.Dst, sc)
}

// checkSend validates `value => channel`.
func (c *checker) checkSend(pos lang.Pos, val, dst lang.Expr, sc *scope) error {
	vt, err := c.checkExpr(val, sc)
	if err != nil {
		return err
	}
	dt, err := c.checkExpr(dst, sc)
	if err != nil {
		return err
	}
	if dt.Kind != Chan || dt.Array {
		return errf(pos, "send destination must be a scalar channel, got %s", dt)
	}
	if dt.Send == nil {
		return errf(pos, "cannot send into read-only channel")
	}
	if !compatible(dt.Send, vt) {
		return errf(pos, "channel carries %s, sent %s", dt.Send, vt)
	}
	return nil
}

// checkProcPipe validates `src => f(args) => dst` in a process body.
func (c *checker) checkProcPipe(x *lang.PipeStmt, sc *scope) error {
	st, err := c.checkExpr(x.Src, sc)
	if err != nil {
		return err
	}
	if st.Kind != Chan {
		return errf(x.Pos, "pipeline source must be a channel, got %s", st)
	}
	if st.Recv == nil {
		return errf(x.Pos, "pipeline source channel is write-only")
	}
	cur := st.Recv // message type flowing through the pipeline
	for _, stage := range x.Stages {
		f, ok := c.out.Funs[stage.Name]
		if !ok {
			return errf(stage.Pos, "unknown function %q in pipeline", stage.Name)
		}
		params, result, err := c.funSig(f)
		if err != nil {
			return err
		}
		if len(stage.Args)+1 != len(params) {
			return errf(stage.Pos,
				"stage %q: %d explicit arguments + the message ≠ %d parameters",
				stage.Name, len(stage.Args), len(params))
		}
		for i, a := range stage.Args {
			at, err := c.checkExpr(a, sc)
			if err != nil {
				return err
			}
			if !compatible(params[i], at) {
				return errf(a.Position(), "stage %q argument %d: have %s, want %s",
					stage.Name, i+1, at, params[i])
			}
		}
		msgParam := params[len(params)-1]
		if !compatible(msgParam, cur) {
			return errf(stage.Pos, "stage %q consumes %s, pipeline carries %s",
				stage.Name, msgParam, cur)
		}
		if result.Kind == Unit {
			cur = nil
		} else {
			cur = result
		}
		if cur == nil && stage != x.Stages[len(x.Stages)-1] {
			return errf(stage.Pos, "stage %q returns no value but the pipeline continues", stage.Name)
		}
	}
	if x.Dst != nil {
		if cur == nil {
			return errf(x.Pos, "pipeline has a destination but the last stage returns no value")
		}
		dt, err := c.checkExpr(x.Dst, sc)
		if err != nil {
			return err
		}
		if dt.Kind != Chan || dt.Array {
			return errf(x.Dst.Position(), "pipeline destination must be a scalar channel, got %s", dt)
		}
		if dt.Send == nil {
			return errf(x.Dst.Position(), "pipeline destination channel is read-only")
		}
		if !compatible(dt.Send, cur) {
			return errf(x.Dst.Position(), "destination carries %s, pipeline delivers %s", dt.Send, cur)
		}
	}
	return nil
}

// checkFoldt validates the parallel tree fold (§4.3): combine must be a
// commutative, associative (T,T)→T and order a key extractor (T)→string|int.
func (c *checker) checkFoldt(x *lang.FoldtStmt, sc *scope) error {
	srcT := sc.lookup(x.Src)
	if srcT == nil || srcT.Kind != Chan || !srcT.Array {
		return errf(x.Pos, "foldt source %q must be a channel array", x.Src)
	}
	if srcT.Recv == nil {
		return errf(x.Pos, "foldt source channels are write-only")
	}
	dstT := sc.lookup(x.Dst)
	if dstT == nil || dstT.Kind != Chan || dstT.Array {
		return errf(x.Pos, "foldt destination %q must be a scalar channel", x.Dst)
	}
	if dstT.Send == nil {
		return errf(x.Pos, "foldt destination channel is read-only")
	}
	elem := srcT.Recv

	comb, ok := c.out.Funs[x.Combine]
	if !ok {
		return errf(x.Pos, "unknown combine function %q", x.Combine)
	}
	cp, cr, err := c.funSig(comb)
	if err != nil {
		return err
	}
	if len(cp) != 2 || !compatible(cp[0], elem) || !compatible(cp[1], elem) || !compatible(cr, elem) {
		return errf(x.Pos, "combine %q must have type (%s, %s) -> (%s)", x.Combine, elem, elem, elem)
	}
	ord, ok := c.out.Funs[x.Order]
	if !ok {
		return errf(x.Pos, "unknown ordering function %q", x.Order)
	}
	op, or, err := c.funSig(ord)
	if err != nil {
		return err
	}
	if len(op) != 1 || !compatible(op[0], elem) || (or.Kind != Str && or.Kind != Int) {
		return errf(x.Pos, "ordering %q must have type (%s) -> (string|integer)", x.Order, elem)
	}
	if !compatible(dstT.Send, elem) {
		return errf(x.Pos, "foldt destination carries %s, source elements are %s", dstT.Send, elem)
	}
	return nil
}

// checkProc validates a process declaration.
func (c *checker) checkProc(p *lang.ProcDecl) error {
	sc := newScope(nil)
	globals := map[string]*Type{}
	c.out.GlobalTypes[p.Name] = globals
	for _, ch := range p.Channels {
		t, err := c.chanType(ch.Type)
		if err != nil {
			return err
		}
		if !sc.declare(ch.Name, t) {
			return errf(ch.Pos, "channel %q redeclared", ch.Name)
		}
	}
	for _, s := range p.Body {
		if _, err := c.checkStmt(s, sc, procCtx); err != nil {
			return err
		}
		if g, ok := s.(*lang.GlobalStmt); ok {
			globals[g.Name] = sc.lookup(g.Name)
		}
	}
	return nil
}
