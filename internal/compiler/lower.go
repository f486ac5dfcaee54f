package compiler

import (
	"fmt"
	"strings"

	"flick/internal/lang"
	"flick/internal/value"
)

// lowerer converts checked AST to closure IR.
type lowerer struct {
	prog *Program // being built; funs resolved lazily by name

	// current function scope: name → local slot
	scopes []map[string]int
	nSlots int
	max    int

	// proc-level environment for pipeline-stage arguments: channels and
	// globals referenced by name.
	chanEnv   map[string]value.Value // name → ChanRef / list-of-ChanRef constant
	globalIdx map[string]int         // name → program global slot
}

func (lw *lowerer) pushScope() { lw.scopes = append(lw.scopes, map[string]int{}) }
func (lw *lowerer) popScope() {
	top := lw.scopes[len(lw.scopes)-1]
	lw.nSlots -= len(top)
	lw.scopes = lw.scopes[:len(lw.scopes)-1]
}

func (lw *lowerer) declare(name string) int {
	slot := lw.nSlots
	lw.scopes[len(lw.scopes)-1][name] = slot
	lw.nSlots++
	if lw.nSlots > lw.max {
		lw.max = lw.nSlots
	}
	return slot
}

func (lw *lowerer) lookup(name string) (int, bool) {
	for i := len(lw.scopes) - 1; i >= 0; i-- {
		if s, ok := lw.scopes[i][name]; ok {
			return s, true
		}
	}
	return 0, false
}

// lowerFun compiles one function declaration into cf.
func (lw *lowerer) lowerFun(f *lang.FunDecl, cf *compiledFun) error {
	lw.scopes = nil
	lw.nSlots, lw.max = 0, 0
	lw.pushScope()
	for _, p := range f.Params {
		lw.declare(p.Name)
	}
	body, err := lw.lowerBlock(f.Body)
	if err != nil {
		return err
	}
	cf.nParams, cf.nLocals, cf.body = len(f.Params), lw.max, body
	lw.popScope()
	return nil
}

func (lw *lowerer) lowerBlock(stmts []lang.Stmt) ([]stmtFn, error) {
	out := make([]stmtFn, 0, len(stmts))
	for _, s := range stmts {
		fn, err := lw.lowerStmt(s)
		if err != nil {
			return nil, err
		}
		out = append(out, fn)
	}
	return out, nil
}

func (lw *lowerer) lowerStmt(s lang.Stmt) (stmtFn, error) {
	switch x := s.(type) {
	case *lang.LetStmt:
		init, err := lw.lowerExpr(x.Init)
		if err != nil {
			return nil, err
		}
		slot := lw.declare(x.Name)
		return func(fr *Frame) { fr.locals[slot] = init(fr) }, nil

	case *lang.AssignStmt:
		return lw.lowerAssign(x)

	case *lang.IfStmt:
		cond, err := lw.lowerExpr(x.Cond)
		if err != nil {
			return nil, err
		}
		lw.pushScope()
		then, err := lw.lowerBlock(x.Then)
		lw.popScope()
		if err != nil {
			return nil, err
		}
		var els []stmtFn
		if x.Else != nil {
			lw.pushScope()
			els, err = lw.lowerBlock(x.Else)
			lw.popScope()
			if err != nil {
				return nil, err
			}
		}
		return func(fr *Frame) {
			if cond(fr).AsBool() {
				for _, st := range then {
					st(fr)
				}
			} else {
				for _, st := range els {
					st(fr)
				}
			}
		}, nil

	case *lang.PipeStmt:
		// Inside functions, pipelines are sends: value => channel.
		return lw.lowerSend(x.Src, x.Dst)

	case *lang.SendStmt:
		return lw.lowerSend(x.Value, x.Dst)

	case *lang.ExprStmt:
		e, err := lw.lowerExpr(x.X)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) { fr.ret = e(fr) }, nil
	}
	return nil, fmt.Errorf("compiler: unsupported statement at %s", s.Position())
}

func (lw *lowerer) lowerAssign(x *lang.AssignStmt) (stmtFn, error) {
	val, err := lw.lowerExpr(x.Value)
	if err != nil {
		return nil, err
	}
	switch tgt := x.Target.(type) {
	case *lang.IndexExpr:
		base, err := lw.lowerExpr(tgt.X)
		if err != nil {
			return nil, err
		}
		key, err := lw.lowerExpr(tgt.Index)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) {
			d := base(fr)
			if d.Kind == value.KindDict {
				// Own the stored value unconditionally: the dict outlives
				// the message, and an RHS like req.value may alias pooled
				// wire bytes through any depth of nesting (a region pointer
				// only marks the top level, so Set's Detach alone is not
				// enough for hand-carved nested views).
				d.P.(*value.Dict).Set(key(fr).AsString(), value.Owned(val(fr)))
			}
		}, nil
	case *lang.FieldExpr:
		base, err := lw.lowerExpr(tgt.X)
		if err != nil {
			return nil, err
		}
		slot := lw.fieldSlot(tgt)
		return func(fr *Frame) {
			// Own the assigned value: storing a view of message A into
			// record B moves it across message lifetimes — B's region (if
			// any) holds no reference to A's, so once the runtime releases
			// A the view would read recycled pool memory. SetAt also
			// invalidates any captured "_raw" wire image, so the encoder
			// rebuilds the mutated message instead of replaying stale bytes.
			b := base(fr)
			b.SetAt(slot, value.Owned(val(fr)))
		}, nil
	}
	return nil, fmt.Errorf("compiler: bad assignment target at %s", x.Pos)
}

// fieldSlot resolves a field access to its slot in the descriptor of its
// base's record type. The compiled access indexes it unchecked: every
// record held under a type has the type's descriptor, since its codec
// pair decodes and encodes one descriptor holding every declared field
// (resolveCodecs), the checker fixes each dict's record type and rejects
// field access on unknown types, and CallFunction refuses other layouts.
func (lw *lowerer) fieldSlot(x *lang.FieldExpr) int {
	return lw.prog.descs[lw.prog.checked.FieldRecs[x]].FieldIndex(x.Name)
}

func (lw *lowerer) lowerSend(valExpr, dstExpr lang.Expr) (stmtFn, error) {
	val, err := lw.lowerExpr(valExpr)
	if err != nil {
		return nil, err
	}
	dst, err := lw.lowerExpr(dstExpr)
	if err != nil {
		return nil, err
	}
	return func(fr *Frame) {
		d := dst(fr)
		if ref, ok := d.P.(ChanRef); ok && fr.sc.node != nil {
			// No copy: emitted values carry their backing region (whole
			// pooled records via NewOwned, field/element views via
			// value.Borrow in the access lowerings), and Chan.Push retains
			// that region for the downstream consumer.
			fr.sc.node.Emit(ref.Out, val(fr))
		}
	}, nil
}

func (lw *lowerer) lowerExpr(e lang.Expr) (exprFn, error) {
	switch x := e.(type) {
	case *lang.IntLit:
		v := value.Int(x.Val)
		return func(*Frame) value.Value { return v }, nil
	case *lang.StrLit:
		v := value.Str(x.Val)
		return func(*Frame) value.Value { return v }, nil
	case *lang.BoolLit:
		v := value.Bool(x.Val)
		return func(*Frame) value.Value { return v }, nil
	case *lang.NoneLit:
		return func(*Frame) value.Value { return value.Null }, nil

	case *lang.Ident:
		if slot, ok := lw.lookup(x.Name); ok {
			return func(fr *Frame) value.Value { return fr.locals[slot] }, nil
		}
		if lw.chanEnv != nil {
			if cv, ok := lw.chanEnv[x.Name]; ok {
				return func(*Frame) value.Value { return cv }, nil
			}
		}
		if lw.globalIdx != nil {
			if gi, ok := lw.globalIdx[x.Name]; ok {
				return func(fr *Frame) value.Value { return fr.sc.globals[gi] }, nil
			}
		}
		// Niladic builtins usable without parentheses.
		switch x.Name {
		case "empty_dict":
			return func(*Frame) value.Value { return value.NewDict() }, nil
		case "instance_id":
			return func(fr *Frame) value.Value { return value.Int(fr.sc.instID) }, nil
		}
		return nil, fmt.Errorf("compiler: unresolved name %q at %s", x.Name, x.Pos)

	case *lang.FieldExpr:
		base, err := lw.lowerExpr(x.X)
		if err != nil {
			return nil, err
		}
		slot := lw.fieldSlot(x)
		return func(fr *Frame) value.Value {
			b := base(fr)
			return b.At(slot)
		}, nil

	case *lang.IndexExpr:
		base, err := lw.lowerExpr(x.X)
		if err != nil {
			return nil, err
		}
		idx, err := lw.lowerExpr(x.Index)
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) value.Value {
			b := base(fr)
			switch b.Kind {
			case value.KindDict:
				return dictGet(b, idx(fr))
			case value.KindList:
				i := idx(fr).AsInt()
				if i < 0 || i >= int64(len(b.L)) {
					return value.Null
				}
				// Elements of a region-backed list (e.g. a list field of a
				// pooled message) alias that region; carry it on the view.
				return value.Borrow(b.L[i], &b)
			}
			return value.Null
		}, nil

	case *lang.CallExpr:
		return lw.lowerCall(x)

	case *lang.BinaryExpr:
		return lw.lowerBinary(x)

	case *lang.UnaryExpr:
		sub, err := lw.lowerExpr(x.X)
		if err != nil {
			return nil, err
		}
		if x.Op == lang.TokMinus {
			return func(fr *Frame) value.Value { return value.Int(-sub(fr).AsInt()) }, nil
		}
		return func(fr *Frame) value.Value { return value.Bool(!sub(fr).AsBool()) }, nil
	}
	return nil, fmt.Errorf("compiler: unsupported expression at %s", e.Position())
}

func (lw *lowerer) lowerBinary(x *lang.BinaryExpr) (exprFn, error) {
	if x.Op == lang.TokMod {
		if fn, ok, err := lw.lowerRoutedMod(x); err != nil {
			return nil, err
		} else if ok {
			return fn, nil
		}
	}
	l, err := lw.lowerExpr(x.L)
	if err != nil {
		return nil, err
	}
	r, err := lw.lowerExpr(x.R)
	if err != nil {
		return nil, err
	}
	switch x.Op {
	case lang.TokPlus:
		return func(fr *Frame) value.Value { return binAdd(l(fr), r(fr)) }, nil
	case lang.TokMinus:
		return func(fr *Frame) value.Value { return value.Int(l(fr).I - r(fr).I) }, nil
	case lang.TokStar:
		return func(fr *Frame) value.Value { return value.Int(l(fr).I * r(fr).I) }, nil
	case lang.TokSlash:
		return func(fr *Frame) value.Value { return binDiv(l(fr), r(fr)) }, nil
	case lang.TokMod:
		return func(fr *Frame) value.Value { return binMod(l(fr), r(fr)) }, nil
	case lang.TokEq:
		return func(fr *Frame) value.Value { return value.Bool(value.Equal(l(fr), r(fr))) }, nil
	case lang.TokNotEq:
		return func(fr *Frame) value.Value { return value.Bool(!value.Equal(l(fr), r(fr))) }, nil
	case lang.TokLess:
		return func(fr *Frame) value.Value { return value.Bool(compareOrdered(l(fr), r(fr)) < 0) }, nil
	case lang.TokGreater:
		return func(fr *Frame) value.Value { return value.Bool(compareOrdered(l(fr), r(fr)) > 0) }, nil
	case lang.TokLessEq:
		return func(fr *Frame) value.Value { return value.Bool(compareOrdered(l(fr), r(fr)) <= 0) }, nil
	case lang.TokGreaterEq:
		return func(fr *Frame) value.Value { return value.Bool(compareOrdered(l(fr), r(fr)) >= 0) }, nil
	case lang.TokAnd:
		return func(fr *Frame) value.Value {
			if !l(fr).AsBool() {
				return value.Bool(false)
			}
			return value.Bool(r(fr).AsBool())
		}, nil
	case lang.TokOr:
		return func(fr *Frame) value.Value {
			if l(fr).AsBool() {
				return value.Bool(true)
			}
			return value.Bool(r(fr).AsBool())
		}, nil
	}
	return nil, fmt.Errorf("compiler: unsupported operator at %s", x.Pos)
}

// lowerRoutedMod recognises the backend-selection idioms
//
//	hash(key) mod len(backends)          (proxy, router: per-key)
//	instance_id() mod len(backends)      (HTTP LB: per-connection)
//
// and lowers them through the instance's topology router when one is
// installed (scratch.route — set by the graph dispatcher from
// core.Instance.Router). With a consistent-hash ring as router, a live
// backend add/remove moves only ~1/(B+1) of the key space; without a
// router (fixed topology) routing is the plain modulo. The channel-array
// check happens at run time on the len() argument's value — the array
// reaches function bodies as an ordinary parameter, so only the runtime
// shape (a list of ChanRefs) identifies it — which keeps
// `hash(x) mod len(some_string)` on the plain modulo path.
func (lw *lowerer) lowerRoutedMod(x *lang.BinaryExpr) (exprFn, bool, error) {
	shadowed := func(name string) bool {
		// Record constructors and user functions shadow builtins in call
		// position; leave those to the generic path.
		if _, isCtor := lw.prog.descs[name]; isCtor {
			return true
		}
		_, isFun := lw.prog.funs[name]
		return isFun
	}
	var seed exprFn // produces the value the router maps to a backend
	switch hcall, ok := x.L.(*lang.CallExpr); {
	case ok && hcall.Name == "hash" && len(hcall.Args) == 1 && !shadowed("hash"):
		arg, err := lw.lowerExpr(hcall.Args[0])
		if err != nil {
			return nil, false, err
		}
		seed = func(fr *Frame) value.Value { return value.Int(hashValue(arg(fr))) }
	case ok && hcall.Name == "instance_id" && len(hcall.Args) == 0 && !shadowed("instance_id"):
		seed = func(fr *Frame) value.Value { return value.Int(fr.sc.instID) }
	default:
		return nil, false, nil
	}
	lcall, ok := x.R.(*lang.CallExpr)
	if !ok || lcall.Name != "len" || len(lcall.Args) != 1 || shadowed("len") {
		return nil, false, nil
	}
	larg, err := lw.lowerExpr(lcall.Args[0])
	if err != nil {
		return nil, false, err
	}
	return func(fr *Frame) value.Value {
		h := seed(fr).AsInt()
		xs := larg(fr)
		if fr.sc.route != nil && isChanList(xs) {
			return value.Int(int64(fr.sc.route(h)))
		}
		n := lenValue(xs)
		if n == 0 {
			return value.Int(0)
		}
		return value.Int(h % n)
	}, true, nil
}

func (lw *lowerer) lowerCall(x *lang.CallExpr) (exprFn, error) {
	// Record constructor.
	if desc, ok := lw.prog.descs[x.Name]; ok {
		slots := lw.prog.ctorSlots[x.Name]
		args := make([]exprFn, len(x.Args))
		for i, a := range x.Args {
			f, err := lw.lowerExpr(a)
			if err != nil {
				return nil, err
			}
			args[i] = f
		}
		return func(fr *Frame) value.Value {
			rec := desc.New()
			for i, af := range args {
				// Own every byte payload: an argument like req.uri is a
				// view into the input message's pooled region, but the
				// constructed record carries no reference to it — once the
				// runtime releases the input after this task activation,
				// the view's bytes would be recycled under the new record.
				rec.L[slots[i]] = value.Owned(af(fr))
			}
			return rec
		}, nil
	}

	// User function. Every function has its compiledFun before any body
	// is lowered (Compile), so the callee binds here whatever the
	// declaration order; its body may still be empty at this point.
	if callee, ok := lw.prog.funs[x.Name]; ok {
		args := make([]exprFn, len(x.Args))
		for i, a := range x.Args {
			f, err := lw.lowerExpr(a)
			if err != nil {
				return nil, err
			}
			args[i] = f
		}
		return func(fr *Frame) value.Value {
			cfr := fr.sc.enter(callee)
			for i, af := range args {
				cfr.locals[i] = af(fr)
			}
			return callee.call(cfr)
		}, nil
	}

	// Iteration builtins: compile to finite loops (§4.3: "functions such
	// as fold are translated into finite for-loops").
	switch x.Name {
	case "map", "filter", "fold":
		return lw.lowerIter(x)
	}

	// Plain builtins.
	args := make([]exprFn, len(x.Args))
	for i, a := range x.Args {
		f, err := lw.lowerExpr(a)
		if err != nil {
			return nil, err
		}
		args[i] = f
	}
	switch x.Name {
	case "hash":
		return func(fr *Frame) value.Value { return value.Int(hashValue(args[0](fr))) }, nil
	case "len":
		return func(fr *Frame) value.Value { return value.Int(lenValue(args[0](fr))) }, nil
	case "empty_dict":
		return func(*Frame) value.Value { return value.NewDict() }, nil
	case "instance_id":
		return func(fr *Frame) value.Value { return value.Int(fr.sc.instID) }, nil
	case "string_to_int":
		return func(fr *Frame) value.Value { return value.Int(stringToInt(args[0](fr).AsString())) }, nil
	case "int_to_string":
		return func(fr *Frame) value.Value {
			return value.Str(fmt.Sprintf("%d", args[0](fr).AsInt()))
		}, nil
	case "split_words":
		return func(fr *Frame) value.Value { return splitWords(args[0](fr).AsString()) }, nil
	case "to_upper":
		return func(fr *Frame) value.Value {
			return value.Str(strings.ToUpper(args[0](fr).AsString()))
		}, nil
	case "to_lower":
		return func(fr *Frame) value.Value {
			return value.Str(strings.ToLower(args[0](fr).AsString()))
		}, nil
	}
	return nil, fmt.Errorf("compiler: unknown function %q at %s", x.Name, x.Pos)
}

// lowerIter compiles map/filter/fold.
func (lw *lowerer) lowerIter(x *lang.CallExpr) (exprFn, error) {
	f := lw.prog.funs[x.Args[0].(*lang.Ident).Name]
	switch x.Name {
	case "map":
		list, err := lw.lowerExpr(x.Args[1])
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) value.Value {
			xs := list(fr)
			out := make([]value.Value, len(xs.L))
			for i, el := range xs.L {
				// Detach per element: a body returning a region-backed view
				// would leave the result list with elements whose lifetime
				// the list's (nil) region cannot express.
				out[i] = value.Detach(fr.sc.apply(f, value.Borrow(el, &xs)))
			}
			return value.List(out...)
		}, nil
	case "filter":
		list, err := lw.lowerExpr(x.Args[1])
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) value.Value {
			xs := list(fr)
			var out []value.Value
			for _, el := range xs.L {
				if fr.sc.apply(f, value.Borrow(el, &xs)).AsBool() {
					out = append(out, el)
				}
			}
			// Passed-through elements still alias the source list's region;
			// the result list borrows it so escapes stay tracked.
			return value.Borrow(value.List(out...), &xs)
		}, nil
	default: // fold
		acc, err := lw.lowerExpr(x.Args[1])
		if err != nil {
			return nil, err
		}
		list, err := lw.lowerExpr(x.Args[2])
		if err != nil {
			return nil, err
		}
		return func(fr *Frame) value.Value {
			a := acc(fr)
			xs := list(fr)
			for _, el := range xs.L {
				a = fr.sc.apply(f, a, value.Borrow(el, &xs))
			}
			return a
		}, nil
	}
}
