package compiler

import (
	"fmt"

	"flick/internal/core"
	"flick/internal/lang"
	"flick/internal/value"
)

// ProcGraph is a compiled process: a validated task-graph template plus the
// port layout the deployer needs to wire connections.
type ProcGraph struct {
	Name     string
	Template *core.Template
	// Ports maps channel parameter names to port indices (arrays map to
	// one port per element, in order).
	Ports map[string][]int
}

// PortIndex returns the single port index of a scalar channel.
func (pg *ProcGraph) PortIndex(channel string) (int, error) {
	ps, ok := pg.Ports[channel]
	if !ok || len(ps) != 1 {
		return 0, fmt.Errorf("compiler: channel %q has %d ports", channel, len(ps))
	}
	return ps[0], nil
}

// chanNodes is the runtime realisation of one channel parameter.
type chanNodes struct {
	param *lang.ChanParam
	ins   []*core.Node // input (deserialiser) nodes, len == array size
	outs  []*core.Node // output (serialiser) nodes
	used  bool         // already consumed as a pipeline source
}

// buildProcGraph lowers one process declaration to a task-graph template.
func (p *Program) buildProcGraph(proc *lang.ProcDecl, cfg Config) (*ProcGraph, error) {
	tmpl := core.NewTemplate(proc.Name)
	pg := &ProcGraph{Name: proc.Name, Template: tmpl, Ports: map[string][]int{}}

	primary := cfg.PrimaryChannel
	if primary == "" {
		for _, ch := range proc.Channels {
			if ch.Type.Dir() == lang.ChanBoth && !ch.Type.Array {
				primary = ch.Name
				break
			}
		}
	}

	channels := map[string]*chanNodes{}
	for _, ch := range proc.Channels {
		n := 1
		if ch.Type.Array {
			n = cfg.ArraySizes[ch.Name]
			if n <= 0 {
				return nil, fmt.Errorf("compiler: channel array %q needs Config.ArraySizes[%q] > 0", ch.Name, ch.Name)
			}
		}
		cn := &chanNodes{param: ch}
		for i := 0; i < n; i++ {
			suffix := ""
			if ch.Type.Array {
				suffix = fmt.Sprintf("[%d]", i)
			}
			var in, out *core.Node
			// A channel decodes through the codec of the type it produces
			// and encodes through that of the type it accepts; both cross
			// the network, so resolveCodecs bound them.
			if ch.Type.Recv != "" {
				in = tmpl.AddInput(ch.Name+suffix+"_in", p.codecs[ch.Type.Recv].Decode)
				cn.ins = append(cn.ins, in)
			}
			if ch.Type.Send != "" {
				out = tmpl.AddOutput(ch.Name+suffix+"_out", p.codecs[ch.Type.Send].Encode)
				cn.outs = append(cn.outs, out)
			}
			idx := tmpl.AddPort(ch.Name+suffix, in, out, ch.Name == primary)
			pg.Ports[ch.Name] = append(pg.Ports[ch.Name], idx)
		}
		channels[ch.Name] = cn
	}

	// Globals: evaluated once per compiled program; all instances share
	// them (§4.3: "Multiple instances of the service share the key/value
	// store").
	p.gslots[proc.Name] = map[string]int{}
	var globalVals []value.Value
	gsc := newScratch(nil)
	for _, s := range proc.Body {
		g, ok := s.(*lang.GlobalStmt)
		if !ok {
			continue
		}
		lw := &lowerer{prog: p}
		lw.pushScope()
		init, err := lw.lowerExpr(g.Init)
		if err != nil {
			return nil, err
		}
		p.gslots[proc.Name][g.Name] = len(globalVals)
		globalVals = append(globalVals, init(&gsc.top))
	}
	p.globals[proc.Name] = globalVals

	stageIdx := 0
	for _, s := range proc.Body {
		switch x := s.(type) {
		case *lang.GlobalStmt:
			// handled above
		case *lang.PipeStmt:
			if err := p.buildPipeNode(proc, tmpl, channels, x, stageIdx); err != nil {
				return nil, err
			}
			stageIdx++
		case *lang.FoldtStmt:
			if err := p.buildFoldt(proc, tmpl, channels, x); err != nil {
				return nil, err
			}
		default:
			return nil, fmt.Errorf("compiler: process body statement at %s not supported at top level", s.Position())
		}
	}

	if err := tmpl.Validate(); err != nil {
		return nil, err
	}
	return pg, nil
}

// stageSpec is one compiled pipeline stage.
type stageSpec struct {
	fun  *compiledFun
	args []exprFn
}

// buildPipeNode lowers `src => f(a) => g(b) => dst` to one compute node.
// The node receives every message of the source channel(s); stage argument
// expressions see proc channels as constant ChanRefs bound to this node's
// out-edges, so sends inside the stage functions become ctx.Emit calls
// (Figure 3b's compute task fanning out to the serialiser tasks).
func (p *Program) buildPipeNode(proc *lang.ProcDecl, tmpl *core.Template,
	channels map[string]*chanNodes, pipe *lang.PipeStmt, idx int) error {

	srcName, ok := identName(pipe.Src)
	if !ok {
		return fmt.Errorf("compiler: pipeline source at %s must be a channel name", pipe.Src.Position())
	}
	src := channels[srcName]
	if src == nil {
		return fmt.Errorf("compiler: unknown pipeline source %q", srcName)
	}
	if src.used {
		return fmt.Errorf("compiler: channel %q feeds more than one pipeline", srcName)
	}
	src.used = true

	name := fmt.Sprintf("pipe%d", idx)
	if len(pipe.Stages) > 0 {
		name += "_" + pipe.Stages[0].Name
	} else {
		name += "_forward"
	}

	// Plan out-edges: destination channel first, then every channel
	// referenced by stage arguments (dedup, in appearance order).
	type edgePlan struct {
		name  string
		nodes []*core.Node // output node(s)
		first int          // assigned edge index of nodes[0]
	}
	var plan []*edgePlan
	planned := map[string]*edgePlan{}
	addChannel := func(chName string) error {
		if planned[chName] != nil {
			return nil
		}
		cn := channels[chName]
		if cn == nil {
			return nil // not a channel (global or local) — ignore
		}
		if len(cn.outs) == 0 {
			return fmt.Errorf("compiler: channel %q is read-only but is written by pipeline %d", chName, idx)
		}
		ep := &edgePlan{name: chName, nodes: cn.outs}
		planned[chName] = ep
		plan = append(plan, ep)
		return nil
	}

	var dstName string
	if pipe.Dst != nil {
		dn, ok := identName(pipe.Dst)
		if !ok {
			return fmt.Errorf("compiler: pipeline destination at %s must be a channel name", pipe.Dst.Position())
		}
		dstName = dn
		if err := addChannel(dn); err != nil {
			return err
		}
	}
	for _, st := range pipe.Stages {
		for _, a := range st.Args {
			for _, ref := range channelRefs(a, channels) {
				if err := addChannel(ref); err != nil {
					return err
				}
			}
		}
	}

	comp := tmpl.AddCompute(name, nil) // body assigned below
	for _, in := range src.ins {
		tmpl.Connect(in, comp)
	}
	edge := 0
	for _, ep := range plan {
		ep.first = edge
		for _, out := range ep.nodes {
			tmpl.Connect(comp, out)
			edge++
		}
	}

	// Lower stage arguments with channels bound to edge indices.
	chanEnv := map[string]value.Value{}
	for _, ep := range plan {
		if len(ep.nodes) == 1 && !channels[ep.name].param.Type.Array {
			chanEnv[ep.name] = chanRefValue(ep.first)
		} else {
			refs := make([]value.Value, len(ep.nodes))
			for i := range ep.nodes {
				refs[i] = chanRefValue(ep.first + i)
			}
			chanEnv[ep.name] = value.List(refs...)
		}
	}
	lw := &lowerer{prog: p, chanEnv: chanEnv, globalIdx: p.gslots[proc.Name]}
	lw.pushScope()
	var stages []stageSpec
	for _, st := range pipe.Stages {
		spec := stageSpec{fun: p.funs[st.Name]}
		for _, a := range st.Args {
			af, err := lw.lowerExpr(a)
			if err != nil {
				return err
			}
			spec.args = append(spec.args, af)
		}
		stages = append(stages, spec)
	}

	dstEdge := -1
	if pipe.Dst != nil {
		dstEdge = planned[dstName].first
	}

	globals := p.globals[proc.Name]
	comp.Fn = func(ctx *core.NodeCtx, v value.Value, _ int) {
		sc := nodeScratch(ctx, globals)
		cur := v
		for _, st := range stages {
			fr := sc.enter(st.fun)
			for i, af := range st.args {
				fr.locals[i] = af(&sc.top)
			}
			fr.locals[len(st.args)] = cur
			cur = st.fun.call(fr)
		}
		if dstEdge >= 0 {
			ctx.Emit(dstEdge, cur)
		}
	}
	return nil
}

// identName unwraps a bare identifier expression.
func identName(e lang.Expr) (string, bool) {
	id, ok := e.(*lang.Ident)
	if !ok {
		return "", false
	}
	return id.Name, true
}

// channelRefs walks an expression for identifiers naming channels.
func channelRefs(e lang.Expr, channels map[string]*chanNodes) []string {
	var out []string
	var walk func(lang.Expr)
	walk = func(e lang.Expr) {
		switch x := e.(type) {
		case *lang.Ident:
			if channels[x.Name] != nil {
				out = append(out, x.Name)
			}
		case *lang.FieldExpr:
			walk(x.X)
		case *lang.IndexExpr:
			walk(x.X)
			walk(x.Index)
		case *lang.CallExpr:
			for _, a := range x.Args {
				walk(a)
			}
		case *lang.BinaryExpr:
			walk(x.L)
			walk(x.R)
		case *lang.UnaryExpr:
			walk(x.X)
		}
	}
	walk(e)
	return out
}

// foldtState accumulates per-key partial aggregates in one tree node.
type foldtState struct {
	acc       map[string]value.Value
	order     []string // insertion order for stable flushing
	remaining int      // open in-edges
}

// buildFoldt expands `foldt combine order mappers => reducer` into a binary
// aggregation tree (§4.3: "combining elements in a pair-wise manner until
// only the result remains"; Figure 3c). With k mapper channels the tree has
// k input tasks, k-1 (or 1 when k==1) combine tasks and one output task.
func (p *Program) buildFoldt(proc *lang.ProcDecl, tmpl *core.Template,
	channels map[string]*chanNodes, x *lang.FoldtStmt) error {

	src := channels[x.Src]
	dst := channels[x.Dst]
	if src == nil || dst == nil {
		return fmt.Errorf("compiler: foldt channels %q/%q not found", x.Src, x.Dst)
	}
	if src.used {
		return fmt.Errorf("compiler: channel %q feeds more than one pipeline", x.Src)
	}
	src.used = true
	if len(dst.outs) != 1 {
		return fmt.Errorf("compiler: foldt destination %q must be a scalar writable channel", x.Dst)
	}

	globals := p.globals[proc.Name]
	combine, order := p.funs[x.Combine], p.funs[x.Order]

	makeCombine := func(level, i, fanIn int) *core.Node {
		n := tmpl.AddCompute(fmt.Sprintf("combine_L%d_%d", level, i), nil)
		n.NewState = func() any {
			return &foldtState{acc: map[string]value.Value{}, remaining: fanIn}
		}
		n.Fn = func(ctx *core.NodeCtx, v value.Value, _ int) {
			st := ctx.State.(*foldtState)
			sc := nodeScratch(ctx, globals)
			key := sc.apply(order, v).AsString()
			if prev, ok := st.acc[key]; ok {
				// Own unconditionally: a combine function may return v
				// itself, a record carrying v's region, or a nested view of
				// v that carries no region pointer at all — in every case
				// the pooled bytes die when the runtime releases v after
				// this activation, and only an unconditional deep copy
				// cannot be fooled by region-less aliases.
				st.acc[key] = value.Owned(sc.apply(combine, prev, v))
			} else {
				// The accumulator outlives this task activation, but v's
				// byte views die with the pooled wire buffer when the
				// runtime releases the message after Fn returns — store an
				// owned copy.
				st.acc[key] = value.Owned(v)
				st.order = append(st.order, key)
			}
		}
		n.OnEOF = func(ctx *core.NodeCtx, _ int) {
			st := ctx.State.(*foldtState)
			st.remaining--
			if st.remaining > 0 {
				return
			}
			// All inputs drained: flush partial aggregates downstream in
			// key order (the k-way-merge discipline of §4.3).
			keys := append([]string{}, st.order...)
			sortStrings(keys)
			for _, k := range keys {
				ctx.Emit(0, st.acc[k])
			}
			st.acc = map[string]value.Value{}
			st.order = nil
		}
		return n
	}

	// Level 0: one combine node per pair of inputs.
	level := 0
	streams := make([]*core.Node, len(src.ins))
	copy(streams, src.ins)
	if len(streams) == 1 {
		c := makeCombine(0, 0, 1)
		tmpl.Connect(streams[0], c)
		streams = []*core.Node{c}
	}
	for len(streams) > 1 {
		var next []*core.Node
		for i := 0; i+1 < len(streams); i += 2 {
			c := makeCombine(level, i/2, 2)
			tmpl.Connect(streams[i], c)
			tmpl.Connect(streams[i+1], c)
			next = append(next, c)
		}
		if len(streams)%2 == 1 {
			next = append(next, streams[len(streams)-1])
		}
		streams = next
		level++
	}
	tmpl.Connect(streams[0], dst.outs[0])
	return nil
}

func sortStrings(xs []string) {
	// insertion sort: flush key sets are small and nearly sorted
	for i := 1; i < len(xs); i++ {
		for j := i; j > 0 && xs[j] < xs[j-1]; j-- {
			xs[j], xs[j-1] = xs[j-1], xs[j]
		}
	}
}
