package compiler

import (
	"fmt"

	"flick/internal/grammar"
	"flick/internal/lang"
	"flick/internal/types"
	"flick/internal/value"
)

// CodecPair binds a record type to wire formats for each direction. Decode
// parses bytes read from connections; Encode serialises values written to
// them. Both must build records of one descriptor, the layout compiled
// field access indexes. For symmetric protocols (Memcached binary) both
// are the same codec; the HTTP load balancer encodes requests through a
// format that rewrites one header.
type CodecPair struct {
	Decode grammar.WireFormat
	Encode grammar.WireFormat
}

// Config parameterises compilation.
type Config struct {
	// ArraySizes fixes the length of each channel-array parameter
	// (channels cannot be created at runtime, §4.3, so array sizes are a
	// deployment-time constant).
	ArraySizes map[string]int
	// Codecs binds record type names to external wire formats. Types
	// whose declarations carry complete serialisation annotations do not
	// need a binding: their codec is synthesised from the grammar in the
	// program (§4.2).
	Codecs map[string]CodecPair
	// PrimaryChannel names the client-facing channel whose EOF shuts the
	// instance down. Defaults to the first bidirectional scalar channel.
	PrimaryChannel string
}

// Program is a compiled FLICK program: executable functions plus one task
// graph template per process.
type Program struct {
	checked *types.Checked
	funs    map[string]*compiledFun

	descs     map[string]*value.RecordDesc
	ctorSlots map[string][]int
	codecs    map[string]CodecPair

	globals map[string][]value.Value // proc name → shared global slots
	gslots  map[string]map[string]int

	templates map[string]*ProcGraph
}

// Compile parses, checks and lowers a FLICK program.
func Compile(src string, cfg Config) (*Program, error) {
	ast, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	checked, err := types.Check(ast)
	if err != nil {
		return nil, err
	}
	p := &Program{
		checked:   checked,
		funs:      map[string]*compiledFun{},
		descs:     map[string]*value.RecordDesc{},
		ctorSlots: map[string][]int{},
		codecs:    map[string]CodecPair{},
		globals:   map[string][]value.Value{},
		gslots:    map[string]map[string]int{},
		templates: map[string]*ProcGraph{},
	}
	if err := p.resolveCodecs(cfg); err != nil {
		return nil, err
	}
	// Every function gets its compiledFun before any body is lowered, so
	// call sites bind callees directly (lowerCall).
	for name := range checked.Funs {
		p.funs[name] = &compiledFun{name: name}
	}
	lw := &lowerer{prog: p}
	for name, f := range checked.Funs {
		if err := lw.lowerFun(f, p.funs[name]); err != nil {
			return nil, err
		}
	}
	for _, proc := range checked.Prog.Procs {
		pg, err := p.buildProcGraph(proc, cfg)
		if err != nil {
			return nil, err
		}
		p.templates[proc.Name] = pg
	}
	return p, nil
}

// Proc returns the compiled graph for the named process (or the sole one
// when name is empty).
func (p *Program) Proc(name string) (*ProcGraph, error) {
	if name == "" {
		if len(p.templates) != 1 {
			return nil, fmt.Errorf("compiler: program has %d processes; name one", len(p.templates))
		}
		for _, pg := range p.templates {
			return pg, nil
		}
	}
	pg, ok := p.templates[name]
	if !ok {
		return nil, fmt.Errorf("compiler: no process %q", name)
	}
	return pg, nil
}

// Codec returns the codec pair resolved for a record type.
func (p *Program) Codec(typeName string) (CodecPair, bool) {
	c, ok := p.codecs[typeName]
	return c, ok
}

// Desc returns the runtime record descriptor for a record type.
func (p *Program) Desc(typeName string) *value.RecordDesc { return p.descs[typeName] }

// CallFunction invokes a compiled FLICK function directly (tests, REPL-style
// tooling). Channel-valued parameters cannot be supplied this way. A record
// argument must carry its parameter type's descriptor: compiled field
// access indexes that layout's slots.
func (p *Program) CallFunction(name string, args ...value.Value) (value.Value, error) {
	f, ok := p.funs[name]
	if !ok {
		return value.Null, fmt.Errorf("compiler: no function %q", name)
	}
	if len(args) != f.nParams {
		return value.Null, fmt.Errorf("compiler: %q takes %d arguments, got %d", name, f.nParams, len(args))
	}
	for i, prm := range p.checked.Funs[name].Params {
		if prm.Type != nil && p.descs[prm.Type.Name] != nil && args[i].Desc() != p.descs[prm.Type.Name] {
			return value.Null, fmt.Errorf("compiler: %q argument %q is not a record of %s's layout", name, prm.Name, prm.Type.Name)
		}
	}
	return newScratch(nil).apply(f, args...), nil
}

// Globals exposes a process's shared global values (diagnostics/tests).
func (p *Program) Globals(proc string) []value.Value { return p.globals[proc] }

// resolveCodecs binds or synthesises a codec (and record descriptor) for
// every declared record type.
func (p *Program) resolveCodecs(cfg Config) error {
	// Which types flow over channels (those must be serialisable)?
	onWire := map[string]bool{}
	for _, proc := range p.checked.Prog.Procs {
		for _, ch := range proc.Channels {
			if ch.Type.Recv != "" {
				onWire[ch.Type.Recv] = true
			}
			if ch.Type.Send != "" {
				onWire[ch.Type.Send] = true
			}
		}
	}
	for name, td := range p.checked.Types {
		if pair, ok := cfg.Codecs[name]; ok {
			if pair.Decode == nil || pair.Encode == nil {
				return fmt.Errorf("compiler: codec binding for %q must set Decode and Encode", name)
			}
			if dd, ed := pair.Decode.Desc(), pair.Encode.Desc(); dd != ed {
				return fmt.Errorf("compiler: codec binding for %q decodes %s records but encodes %s records",
					name, dd.Name, ed.Name)
			}
			p.codecs[name] = pair
			p.descs[name] = pair.Decode.Desc()
		} else if unit, err := SynthesizeUnit(td); err == nil {
			codec, cerr := unit.Compile(grammar.CaptureRaw())
			if cerr != nil {
				return fmt.Errorf("compiler: synthesised grammar for %q: %w", name, cerr)
			}
			p.codecs[name] = CodecPair{Decode: codec, Encode: codec}
			p.descs[name] = codec.Desc()
		} else if onWire[name] {
			return fmt.Errorf("compiler: type %q crosses the network but is not serialisable: %v (bind a codec)", name, err)
		} else {
			// Internal-only record: plain descriptor.
			fields := make([]string, len(td.Fields))
			for i, f := range td.Fields {
				if f.Name == "" {
					fields[i] = fmt.Sprintf("_%d", i)
				} else {
					fields[i] = f.Name
				}
			}
			p.descs[name] = value.NewRecordDesc(name, fields...)
		}
		// Constructor slots: named fields in declaration order.
		desc := p.descs[name]
		var slots []int
		for _, f := range td.Fields {
			if f.Name == "" {
				continue
			}
			s := desc.FieldIndex(f.Name)
			if s < 0 {
				return fmt.Errorf("compiler: bound codec for %q lacks field %q", name, f.Name)
			}
			slots = append(slots, s)
		}
		p.ctorSlots[name] = slots
	}
	return nil
}

// SynthesizeUnit builds a grammar unit from a record declaration's
// serialisation annotations (§4.2). Every field needs a size annotation;
// integer sizes must be 1, 2, 4 or 8 bytes. Length-bearing integer fields
// (those whose value is exactly the size of one later field) gain
// &serialize expressions so constructed messages are framed correctly.
func SynthesizeUnit(td *lang.TypeDecl) (grammar.Unit, error) {
	u := grammar.Unit{Name: td.Name, Order: grammar.BigEndian}
	// First pass: map field name → size-source for serialize inference.
	sizeRef := map[string]string{} // int field name → later field name sized by it
	for _, f := range td.Fields {
		for _, a := range f.Attrs {
			if a.Name != "size" {
				continue
			}
			if id, ok := a.Value.(*lang.Ident); ok && f.Name != "" {
				if _, taken := sizeRef[id.Name]; taken {
					delete(sizeRef, id.Name) // sized more than one field: ambiguous
				} else {
					sizeRef[id.Name] = f.Name
				}
			}
		}
	}
	for _, f := range td.Fields {
		var sizeAttr lang.Expr
		for _, a := range f.Attrs {
			if a.Name == "size" {
				sizeAttr = a.Value
			}
		}
		if sizeAttr == nil {
			return u, fmt.Errorf("field %q has no size annotation", fieldLabel(f))
		}
		switch f.Type.Name {
		case "integer":
			lit, ok := sizeAttr.(*lang.IntLit)
			if !ok {
				return u, fmt.Errorf("integer field %q must have a constant size", fieldLabel(f))
			}
			gf := grammar.Field{Name: f.Name, Kind: grammar.KindUint, Size: int(lit.Val)}
			if sized, ok := sizeRef[f.Name]; ok {
				gf.Serialize = grammar.LenOf(sized)
			}
			u.Fields = append(u.Fields, gf)
		case "string", "bytes":
			if lit, ok := sizeAttr.(*lang.IntLit); ok {
				u.Fields = append(u.Fields, grammar.Field{
					Name: f.Name, Kind: grammar.KindFixedBytes, Size: int(lit.Val)})
				continue
			}
			le, err := sizeToGrammarExpr(sizeAttr)
			if err != nil {
				return u, err
			}
			u.Fields = append(u.Fields, grammar.Field{
				Name: f.Name, Kind: grammar.KindBytes, Length: le})
		default:
			return u, fmt.Errorf("field %q: wire type %q not serialisable", fieldLabel(f), f.Type.Name)
		}
	}
	return u, nil
}

func fieldLabel(f *lang.FieldDecl) string {
	if f.Name == "" {
		return "_"
	}
	return f.Name
}

// sizeToGrammarExpr converts a checked size annotation to a grammar length
// expression.
func sizeToGrammarExpr(e lang.Expr) (grammar.Expr, error) {
	switch x := e.(type) {
	case *lang.IntLit:
		return grammar.Const(x.Val), nil
	case *lang.Ident:
		return grammar.Ref(x.Name), nil
	case *lang.BinaryExpr:
		l, err := sizeToGrammarExpr(x.L)
		if err != nil {
			return nil, err
		}
		r, err := sizeToGrammarExpr(x.R)
		if err != nil {
			return nil, err
		}
		switch x.Op {
		case lang.TokPlus:
			return grammar.Add(l, r), nil
		case lang.TokMinus:
			return grammar.Sub(l, r), nil
		case lang.TokStar:
			return grammar.Mul(l, r), nil
		}
	}
	return nil, fmt.Errorf("unsupported size expression")
}
