package types

import (
	"flick/internal/lang"
)

// checkExpr types an expression.
func (c *checker) checkExpr(e lang.Expr, sc *scope) (*Type, error) {
	switch x := e.(type) {
	case *lang.IntLit:
		return TInt, nil
	case *lang.StrLit:
		return TStr, nil
	case *lang.BoolLit:
		return TBool, nil
	case *lang.NoneLit:
		return TNone, nil

	case *lang.Ident:
		if t := sc.lookup(x.Name); t != nil {
			return t, nil
		}
		// Niladic builtins may be written without parentheses
		// (Listing 1: `global cache := empty_dict`).
		if sig, ok := builtinSigs[x.Name]; ok && sig.special == "" && len(sig.params) == 0 {
			return sig.resultType(), nil
		}
		return nil, errf(x.Pos, "undefined name %q", x.Name)

	case *lang.FieldExpr:
		xt, err := c.checkExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		if xt.Kind != Record {
			return nil, errf(x.Pos, "field access on non-record %s", xt)
		}
		td := c.out.Types[xt.Name]
		for _, f := range td.Fields {
			if f.Name == x.Name {
				c.out.FieldRecs[x] = xt.Name
				return c.fieldType(f), nil
			}
		}
		return nil, errf(x.Pos, "record %q has no field %q", xt.Name, x.Name)

	case *lang.IndexExpr:
		xt, err := c.checkExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		it, err := c.checkExpr(x.Index, sc)
		if err != nil {
			return nil, err
		}
		switch xt.Kind {
		case Dict:
			if !compatible(xt.Key, it) {
				return nil, errf(x.Pos, "dict key is %s, index is %s", xt.Key, it)
			}
			return xt.Val, nil
		case List:
			if it.Kind != Int {
				return nil, errf(x.Pos, "list index must be integer, got %s", it)
			}
			return xt.Elem, nil
		case Chan:
			if !xt.Array {
				return nil, errf(x.Pos, "indexing a scalar channel")
			}
			if it.Kind != Int {
				return nil, errf(x.Pos, "channel array index must be integer, got %s", it)
			}
			return &Type{Kind: Chan, Recv: xt.Recv, Send: xt.Send}, nil
		default:
			return nil, errf(x.Pos, "cannot index %s", xt)
		}

	case *lang.CallExpr:
		return c.checkCall(x, sc)

	case *lang.BinaryExpr:
		return c.checkBinary(x, sc)

	case *lang.UnaryExpr:
		xt, err := c.checkExpr(x.X, sc)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case lang.TokMinus:
			if xt.Kind != Int && xt.Kind != Any {
				return nil, errf(x.Pos, "unary - on %s", xt)
			}
			return TInt, nil
		case lang.TokNot:
			if xt.Kind != Bool && xt.Kind != Any {
				return nil, errf(x.Pos, "not on %s", xt)
			}
			return TBool, nil
		}
		return nil, errf(x.Pos, "unsupported unary operator")
	}
	return nil, errf(e.Position(), "unsupported expression")
}

// fieldType maps a record field's wire type to a semantic type.
func (c *checker) fieldType(f *lang.FieldDecl) *Type {
	switch f.Type.Name {
	case "integer":
		return TInt
	case "boolean":
		return TBool
	case "bytes":
		return TBytes
	default:
		return TStr
	}
}

// checkCall types user-function calls, record constructors and builtins.
func (c *checker) checkCall(x *lang.CallExpr, sc *scope) (*Type, error) {
	// Record constructor: typeName(field values in declared order).
	if td, ok := c.out.Types[x.Name]; ok {
		var named []*lang.FieldDecl
		for _, f := range td.Fields {
			if f.Name != "" {
				named = append(named, f)
			}
		}
		if len(x.Args) != len(named) {
			return nil, errf(x.Pos, "constructor %q takes %d named fields, got %d arguments",
				x.Name, len(named), len(x.Args))
		}
		for i, a := range x.Args {
			at, err := c.checkExpr(a, sc)
			if err != nil {
				return nil, err
			}
			want := c.fieldType(named[i])
			if !compatible(want, at) {
				return nil, errf(a.Position(), "constructor %q field %q: have %s, want %s",
					x.Name, named[i].Name, at, want)
			}
		}
		return &Type{Kind: Record, Name: x.Name}, nil
	}

	// User-defined function.
	if f, ok := c.out.Funs[x.Name]; ok {
		params, result, err := c.funSig(f)
		if err != nil {
			return nil, err
		}
		if len(x.Args) != len(params) {
			return nil, errf(x.Pos, "%q takes %d arguments, got %d", x.Name, len(params), len(x.Args))
		}
		for i, a := range x.Args {
			at, err := c.checkExpr(a, sc)
			if err != nil {
				return nil, err
			}
			if !compatible(params[i], at) {
				return nil, errf(a.Position(), "%q argument %d: have %s, want %s",
					x.Name, i+1, at, params[i])
			}
		}
		return result, nil
	}

	// Builtins.
	sig, ok := builtinSigs[x.Name]
	if !ok {
		return nil, errf(x.Pos, "unknown function %q", x.Name)
	}
	switch sig.special {
	case "map", "filter", "fold":
		return c.checkIterBuiltin(x, sc, sig.special)
	}
	if len(x.Args) != len(sig.params) {
		return nil, errf(x.Pos, "%q takes %d arguments, got %d", x.Name, len(sig.params), len(x.Args))
	}
	for i, a := range x.Args {
		at, err := c.checkExpr(a, sc)
		if err != nil {
			return nil, err
		}
		if !compatible(sig.params[i], at) {
			return nil, errf(a.Position(), "%q argument %d: have %s, want %s",
				x.Name, i+1, at, sig.params[i])
		}
		// len() accepts only sized things.
		if x.Name == "len" {
			switch at.Kind {
			case Str, Bytes, List, Dict, Any:
			case Chan:
				if !at.Array {
					return nil, errf(a.Position(), "len of scalar channel")
				}
			default:
				return nil, errf(a.Position(), "len of %s", at)
			}
		}
	}
	return sig.resultType(), nil
}

// checkIterBuiltin types map/filter/fold: the function argument must be a
// declared function name (first-order discipline: function values do not
// exist; these forms compile to finite loops, §4.3).
func (c *checker) checkIterBuiltin(x *lang.CallExpr, sc *scope, which string) (*Type, error) {
	wantArgs := 2
	if which == "fold" {
		wantArgs = 3
	}
	if len(x.Args) != wantArgs {
		return nil, errf(x.Pos, "%s takes %d arguments, got %d", which, wantArgs, len(x.Args))
	}
	fid, ok := x.Args[0].(*lang.Ident)
	if !ok {
		return nil, errf(x.Args[0].Position(), "%s's first argument must be a function name", which)
	}
	f, ok := c.out.Funs[fid.Name]
	if !ok {
		return nil, errf(fid.Pos, "unknown function %q", fid.Name)
	}
	params, result, err := c.funSig(f)
	if err != nil {
		return nil, err
	}
	listArg := x.Args[len(x.Args)-1]
	lt, err := c.checkExpr(listArg, sc)
	if err != nil {
		return nil, err
	}
	if lt.Kind != List {
		return nil, errf(listArg.Position(), "%s iterates a list, got %s", which, lt)
	}
	elem := lt.Elem
	switch which {
	case "map":
		if len(params) != 1 || !compatible(params[0], elem) {
			return nil, errf(x.Pos, "map function %q must take one %s", fid.Name, elem)
		}
		if result.Kind == Unit {
			return nil, errf(x.Pos, "map function %q returns no value", fid.Name)
		}
		return &Type{Kind: List, Elem: result}, nil
	case "filter":
		if len(params) != 1 || !compatible(params[0], elem) || result.Kind != Bool {
			return nil, errf(x.Pos, "filter function %q must be a (%s) -> (boolean) predicate", fid.Name, elem)
		}
		return lt, nil
	default: // fold
		accT, err := c.checkExpr(x.Args[1], sc)
		if err != nil {
			return nil, err
		}
		if len(params) != 2 || !compatible(params[0], accT) || !compatible(params[1], elem) || !compatible(accT, result) {
			return nil, errf(x.Pos, "fold function %q must have type (%s, %s) -> (%s)", fid.Name, accT, elem, accT)
		}
		return accT, nil
	}
}

// checkBinary types operators.
func (c *checker) checkBinary(x *lang.BinaryExpr, sc *scope) (*Type, error) {
	lt, err := c.checkExpr(x.L, sc)
	if err != nil {
		return nil, err
	}
	rt, err := c.checkExpr(x.R, sc)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case lang.TokPlus, lang.TokMinus, lang.TokStar, lang.TokSlash, lang.TokMod:
		// `+` concatenates strings as well.
		if x.Op == lang.TokPlus && (lt.Kind == Str || rt.Kind == Str) {
			if isStrOrAny(lt) && isStrOrAny(rt) {
				return TStr, nil
			}
			return nil, errf(x.Pos, "cannot concatenate %s and %s", lt, rt)
		}
		if isIntOrAny(lt) && isIntOrAny(rt) {
			return TInt, nil
		}
		return nil, errf(x.Pos, "arithmetic on %s and %s", lt, rt)

	case lang.TokEq, lang.TokNotEq:
		if lt.Kind == None || rt.Kind == None || lt.Kind == Any || rt.Kind == Any {
			return TBool, nil
		}
		if lt.Kind == rt.Kind {
			if lt.Kind == Record && lt.Name != rt.Name {
				return nil, errf(x.Pos, "comparing %s with %s", lt, rt)
			}
			return TBool, nil
		}
		// string/bytes compare by content.
		if (lt.Kind == Str && rt.Kind == Bytes) || (lt.Kind == Bytes && rt.Kind == Str) {
			return TBool, nil
		}
		return nil, errf(x.Pos, "comparing %s with %s", lt, rt)

	case lang.TokLess, lang.TokGreater, lang.TokLessEq, lang.TokGreaterEq:
		ordered := func(t *Type) bool {
			return t.Kind == Int || t.Kind == Str || t.Kind == Any
		}
		if ordered(lt) && ordered(rt) && (lt.Kind == rt.Kind || lt.Kind == Any || rt.Kind == Any) {
			return TBool, nil
		}
		return nil, errf(x.Pos, "ordering comparison on %s and %s", lt, rt)

	case lang.TokAnd, lang.TokOr:
		if (lt.Kind == Bool || lt.Kind == Any) && (rt.Kind == Bool || rt.Kind == Any) {
			return TBool, nil
		}
		return nil, errf(x.Pos, "boolean operator on %s and %s", lt, rt)
	}
	return nil, errf(x.Pos, "unsupported binary operator")
}

func isIntOrAny(t *Type) bool { return t.Kind == Int || t.Kind == Any }
func isStrOrAny(t *Type) bool { return t.Kind == Str || t.Kind == Any || t.Kind == Bytes }
