// Package compiler lowers type-checked FLICK programs to executable form:
// function bodies become closure-tree IR evaluated over runtime values, and
// process declarations become core task-graph templates whose input/output
// tasks carry grammar codecs (synthesised from the program's serialisation
// annotations or bound externally).
//
// The compilation pipeline mirrors §4.3 of the paper: "Loops and branching
// are compiled to their native counterparts … Channel- and process-related
// code is translated to API calls exposed by the platform". In this
// reproduction the native counterpart is closure IR instead of C++, which
// preserves the language's bounded-work guarantees (no recursion, finite
// iteration) while staying inside one address space with the scheduler.
package compiler

import (
	"strconv"
	"strings"

	"flick/internal/core"
	"flick/internal/value"
)

// Frame is one function activation: its local slot array and the
// evaluation state it shares with every other frame of the same compute
// node. Frames are reused rather than allocated per call — the scratch keeps
// one per call depth — so a call costs what a stack frame would. A frame's
// locals are cleared when its call returns, so a reused frame never pins a
// message value.
type Frame struct {
	locals []value.Value
	sc     *scratch
	ret    value.Value
}

// scratch is the evaluation state of one compute node of one instance: the
// pipeline's top frame (stage arguments evaluate there), the node context
// sends go through, and a stack of callee frames indexed by call depth. The
// checker rejects recursion (types.checkNoRecursion), so call depth is
// bounded by the program's longest call chain: frames are added on first
// use and reused for the life of the instance (core.NodeCtx.Scratch).
type scratch struct {
	top    Frame
	frames []*Frame
	depth  int // frames[:depth] belong to live calls

	globals []value.Value // shared per deployed program
	// node is the executing compute node's context, through which sends
	// emit (nil outside a deployed graph: sends are dropped).
	node   *core.NodeCtx
	instID int64
	// route, when non-nil, is the instance's backend-topology router
	// (core.Instance.Router): the `hash(k) mod len(backends)` idiom routes
	// through it (consistent-hash ring) instead of plain modulo, so a
	// live backend change moves ~1/(B+1) of the key space. Nil preserves
	// mod-B over the compiled channel-array capacity.
	route func(hash int64) int
}

func newScratch(globals []value.Value) *scratch {
	sc := &scratch{globals: globals}
	sc.top.sc = sc
	return sc
}

// nodeScratch returns the compute node's scratch bound to the current
// activation, building it on the instance's first message.
func nodeScratch(ctx *core.NodeCtx, globals []value.Value) *scratch {
	sc, _ := ctx.Scratch.(*scratch)
	if sc == nil {
		sc = newScratch(globals)
		ctx.Scratch = sc
	}
	inst := ctx.Instance()
	sc.node, sc.instID, sc.route = ctx, inst.ID(), inst.Router()
	return sc
}

// enter claims the frame for a call of f, one level below the innermost
// live call. The call site evaluates f's arguments straight into the
// frame's first locals — calls nested in those arguments claim deeper
// frames — and then runs f with call.
func (sc *scratch) enter(f *compiledFun) *Frame {
	if sc.depth == len(sc.frames) || cap(sc.frames[sc.depth].locals) < f.nLocals {
		sc.grow(f.nLocals)
	}
	fr := sc.frames[sc.depth]
	sc.depth++
	fr.locals = fr.locals[:f.nLocals]
	return fr
}

// grow makes room for n locals in the frame at the current depth, adding
// the frame on the first call that reaches the depth. It runs only until
// the instance has executed its deepest and widest calls once.
func (sc *scratch) grow(n int) {
	if sc.depth == len(sc.frames) {
		sc.frames = append(sc.frames, &Frame{sc: sc})
	}
	if fr := sc.frames[sc.depth]; cap(fr.locals) < n {
		fr.locals = make([]value.Value, n)
	}
}

// exprFn evaluates an expression.
type exprFn func(fr *Frame) value.Value

// stmtFn executes a statement.
type stmtFn func(fr *Frame)

// compiledFun is an executable FLICK function.
type compiledFun struct {
	name    string
	nParams int
	nLocals int // params + lets (maximum over all paths)
	body    []stmtFn
}

// apply calls f with already-evaluated arguments.
func (sc *scratch) apply(f *compiledFun, args ...value.Value) value.Value {
	fr := sc.enter(f)
	copy(fr.locals, args)
	return f.call(fr)
}

// call runs f in fr — claimed by enter, arguments in place — and releases
// the frame.
func (f *compiledFun) call(fr *Frame) value.Value {
	for _, s := range f.body {
		s(fr)
	}
	ret := fr.ret
	clear(fr.locals)
	fr.ret = value.Null
	fr.sc.depth--
	return ret
}

// ChanRef is the runtime representation of a scalar channel value: the
// out-edge index of the compute node executing the current frame.
type ChanRef struct {
	Out int
}

// chanRefValue wraps a ChanRef as a value.
func chanRefValue(out int) value.Value { return value.Opaque(ChanRef{Out: out}) }

// isChanList reports whether v is a channel-array value (a list of
// ChanRefs) — the shape `len(backends)` sees in both pipeline-stage
// arguments (compile-time chanEnv constants) and function bodies (the
// array passed as an argument).
func isChanList(v value.Value) bool {
	if v.Kind != value.KindList || len(v.L) == 0 {
		return false
	}
	_, ok := v.L[0].P.(ChanRef)
	return ok
}

// --- builtin implementations ---

// hashValue is the `hash` builtin: FNV-1a over the value's byte content.
func hashValue(v value.Value) int64 {
	const (
		offset = 14695981039346656037
		prime  = 1099511628211
	)
	h := uint64(offset)
	mix := func(b []byte) {
		for _, x := range b {
			h ^= uint64(x)
			h *= prime
		}
	}
	switch v.Kind {
	case value.KindString, value.KindBytes:
		mix(v.B)
	case value.KindInt, value.KindBool:
		u := uint64(v.I)
		for i := 0; i < 8; i++ {
			h ^= u & 0xff
			h *= prime
			u >>= 8
		}
	case value.KindRecord, value.KindList:
		for _, f := range v.L {
			h ^= uint64(hashValue(f))
			h *= prime
		}
	}
	return int64(h & 0x7fffffffffffffff) // keep mod-friendly (non-negative)
}

// lenValue is the `len` builtin.
func lenValue(v value.Value) int64 {
	switch v.Kind {
	case value.KindString, value.KindBytes:
		return int64(len(v.B))
	case value.KindList:
		return int64(len(v.L))
	case value.KindDict:
		return int64(v.P.(*value.Dict).Len())
	}
	return 0
}

// stringToInt is the `string_to_int` builtin; malformed input yields 0
// (grammar default behaviour, §4.2).
func stringToInt(s string) int64 {
	n, err := strconv.ParseInt(strings.TrimSpace(s), 10, 64)
	if err != nil {
		return 0
	}
	return n
}

// splitWords is the `split_words` builtin.
func splitWords(s string) value.Value {
	fields := strings.Fields(s)
	out := make([]value.Value, len(fields))
	for i, f := range fields {
		out[i] = value.Str(f)
	}
	return value.List(out...)
}

// dictGet reads a dict entry, yielding Null on miss (compared as None).
func dictGet(d value.Value, key value.Value) value.Value {
	if d.Kind != value.KindDict {
		return value.Null
	}
	v, ok := d.P.(*value.Dict).Get(key.AsString())
	if !ok {
		return value.Null
	}
	return v
}

// binOp implements the arithmetic/comparison/boolean operators over runtime
// values. Type checking has already guaranteed operand kinds.
func binAdd(a, b value.Value) value.Value {
	if a.Kind == value.KindString || a.Kind == value.KindBytes ||
		b.Kind == value.KindString || b.Kind == value.KindBytes {
		return value.Str(a.AsString() + b.AsString())
	}
	return value.Int(a.I + b.I)
}

func binDiv(a, b value.Value) value.Value {
	if b.I == 0 {
		return value.Int(0) // checked language: division by zero yields 0
	}
	return value.Int(a.I / b.I)
}

func binMod(a, b value.Value) value.Value {
	if b.I == 0 {
		return value.Int(0)
	}
	return value.Int(a.I % b.I)
}

func compareOrdered(a, b value.Value) int {
	if a.Kind == value.KindInt || a.Kind == value.KindBool {
		switch {
		case a.I < b.I:
			return -1
		case a.I > b.I:
			return 1
		}
		return 0
	}
	return strings.Compare(a.AsString(), b.AsString())
}
