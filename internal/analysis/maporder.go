package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// maporder is the flow-sensitive map-iteration-order analyzer. Go randomizes
// map iteration per run; any value whose identity or position derives from
// ranging over a map is therefore schedule-nondeterministic, and letting it
// reach a determinism-sensitive sink — sim event scheduling, partitioned-API
// calls, blocking primitives, trace rows, metric/CSV/stdout emission —
// breaks the byte-identical golden gate and the shuffle gate's
// schedule-invariance requirement.
//
// The engine is a may-taint dataflow over the per-function CFG:
//
//	gen:  `for k, v := range m` with m map-typed taints k and v;
//	      ranging over an already-tainted slice taints the new bindings;
//	      assignments and appends propagate taint through expressions;
//	kill: sort.Strings/Ints/Float64s/Slice/SliceStable/... and
//	      slices.Sort* sanitize their argument (the canonical
//	      extract-keys-and-sort idiom), and strong updates overwrite.
//
// Facts join by union at CFG merge points, so a sort that happens on only
// one branch does NOT sanitize the join — the path-sensitive case the
// straight-line v2 engine could not express.

// MapOrderAnalyzer flags map-iteration-ordered values reaching
// determinism-sensitive sinks.
var MapOrderAnalyzer = &Analyzer{
	Name:      "maporder",
	Doc:       "forbid map-iteration-ordered values flowing into determinism-sensitive sinks (scheduling, partitioned API, emission)",
	SkipTests: true,
	Run:       runMapOrder,
}

// ordOrigin records where a tainted value's map-order dependence began.
type ordOrigin struct {
	expr string    // rendered source expression, e.g. "c.sends"
	pos  token.Pos // position of the originating range statement
}

// ordFact maps identifier name -> origin of its map-order taint.
type ordFact map[string]ordOrigin

func (f ordFact) clone() ordFact {
	c := make(ordFact, len(f))
	for k, v := range f {
		c[k] = v
	}
	return c
}

func ordJoin(a, b ordFact) ordFact {
	if len(a) == 0 {
		return b
	}
	if len(b) == 0 {
		return a
	}
	u := a.clone()
	for k, v := range b {
		if old, ok := u[k]; !ok || v.pos < old.pos {
			u[k] = v
		}
	}
	return u
}

func ordEqual(a, b ordFact) bool {
	if len(a) != len(b) {
		return false
	}
	for k, v := range a {
		if o, ok := b[k]; !ok || o != v {
			return false
		}
	}
	return true
}

// sortSanitizers are the pkg.Func calls that establish a deterministic order
// on their first argument.
var sortSanitizers = map[string]bool{
	"sort.Strings": true, "sort.Ints": true, "sort.Float64s": true,
	"sort.Slice": true, "sort.SliceStable": true, "sort.Sort": true, "sort.Stable": true,
	"slices.Sort": true, "slices.SortFunc": true, "slices.SortStableFunc": true,
}

// orderSimSinks are internal/sim methods (Recv.Name) whose invocation order
// is observable scheduler/trace state.
var orderSimSinks = map[string]bool{
	"Kernel.At": true, "Kernel.After": true, "Kernel.Go": true, "Kernel.GoDaemon": true,
	"Queue.Push": true, "Gate.Open": true, "Counter.Add": true,
	"Cond.Signal": true, "Cond.Broadcast": true,
	"Tracer.Span": true, "Tracer.Instant": true,
}

// ordState is the per-function analysis context shared by maporder and
// floatorder.
type ordState struct {
	prog  *Program
	node  *FuncNode
	info  *types.Info
	sites map[*ast.CallExpr]*CallSite
}

func newOrdState(prog *Program, node *FuncNode) *ordState {
	st := &ordState{
		prog: prog, node: node, info: node.Pkg.Info,
		sites: make(map[*ast.CallExpr]*CallSite, len(node.Calls)),
	}
	for _, s := range node.Calls {
		st.sites[s.Call] = s
	}
	return st
}

// solveOrderTaint runs the taint dataflow over node's body and returns the
// CFG plus per-block facts.
func (st *ordState) solveOrderTaint() (*CFG, FlowResult[ordFact]) {
	cfg := BuildCFG(st.node.Body())
	res := Solve(cfg, FlowProblem[ordFact]{
		Boundary: ordFact{},
		Init:     ordFact{},
		Join:     ordJoin,
		Transfer: func(b *CFGBlock, in ordFact) ordFact {
			cur := in
			for _, n := range b.Nodes {
				cur = st.step(n, cur)
			}
			return cur
		},
		Equal: ordEqual,
	})
	return cfg, res
}

// isMapExpr reports whether e is map-typed (type-informed, with a syntactic
// fallback for partially-typed fixtures).
func (st *ordState) isMapExpr(e ast.Expr) bool {
	if st.info != nil {
		if tv, ok := st.info.Types[e]; ok && tv.Type != nil {
			_, isMap := tv.Type.Underlying().(*types.Map)
			return isMap
		}
	}
	switch x := ast.Unparen(e).(type) {
	case *ast.CompositeLit:
		_, ok := x.Type.(*ast.MapType)
		return ok
	case *ast.CallExpr:
		if id, ok := x.Fun.(*ast.Ident); ok && id.Name == "make" && len(x.Args) > 0 {
			_, ok := x.Args[0].(*ast.MapType)
			return ok
		}
	}
	return false
}

// taintOf returns the origin of e's map-order taint, if any.
func (st *ordState) taintOf(e ast.Expr, f ordFact) (ordOrigin, bool) {
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		o, ok := f[x.Name]
		return o, ok
	case *ast.BinaryExpr:
		if o, ok := st.taintOf(x.X, f); ok {
			return o, true
		}
		return st.taintOf(x.Y, f)
	case *ast.UnaryExpr:
		return st.taintOf(x.X, f)
	case *ast.StarExpr:
		return st.taintOf(x.X, f)
	case *ast.SelectorExpr:
		return st.taintOf(x.X, f)
	case *ast.IndexExpr:
		if o, ok := st.taintOf(x.X, f); ok {
			return o, true
		}
		return st.taintOf(x.Index, f)
	case *ast.SliceExpr:
		return st.taintOf(x.X, f)
	case *ast.KeyValueExpr:
		return st.taintOf(x.Value, f)
	case *ast.CompositeLit:
		for _, el := range x.Elts {
			if o, ok := st.taintOf(el, f); ok {
				return o, true
			}
		}
	case *ast.TypeAssertExpr:
		return st.taintOf(x.X, f)
	case *ast.CallExpr:
		return st.callResultTaint(x, f)
	}
	return ordOrigin{}, false
}

// callResultTaint decides whether a call's result carries map-order taint:
// conversions and most calls propagate their arguments' taint; len/cap are
// order-independent; maps.Keys/maps.Values introduce taint directly.
func (st *ordState) callResultTaint(call *ast.CallExpr, f ordFact) (ordOrigin, bool) {
	if id, ok := ast.Unparen(call.Fun).(*ast.Ident); ok {
		switch id.Name {
		case "len", "cap", "make", "new":
			if isBuiltin(st.info, id) {
				return ordOrigin{}, false
			}
		case "append":
			if isBuiltin(st.info, id) {
				for _, arg := range call.Args {
					if o, ok := st.taintOf(arg, f); ok {
						return o, true
					}
				}
				return ordOrigin{}, false
			}
		}
	}
	if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
		if pkgSel, ok := isPkgSelAny(sel); ok && pkgSel == "maps" {
			if sel.Sel.Name == "Keys" || sel.Sel.Name == "Values" {
				expr := "maps." + sel.Sel.Name
				if len(call.Args) == 1 {
					expr += "(" + exprText(call.Args[0]) + ")"
				}
				return ordOrigin{expr: expr, pos: call.Pos()}, true
			}
		}
		// Method call on a tainted receiver yields taint.
		if o, ok := st.taintOf(sel.X, f); ok {
			return o, true
		}
	}
	for _, arg := range call.Args {
		if o, ok := st.taintOf(arg, f); ok {
			return o, true
		}
	}
	return ordOrigin{}, false
}

// isPkgSelAny returns the package name of a pkg.Sel selector whose base is an
// unresolved identifier (heuristic package reference).
func isPkgSelAny(sel *ast.SelectorExpr) (string, bool) {
	id, ok := sel.X.(*ast.Ident)
	if !ok || id.Obj != nil {
		return "", false
	}
	return id.Name, true
}

// sanitizerTarget returns the root identifier sanitized by a sort call, or "".
func sanitizerTarget(call *ast.CallExpr) string {
	sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr)
	if !ok {
		return ""
	}
	pkg, ok := isPkgSelAny(sel)
	if !ok || !sortSanitizers[pkg+"."+sel.Sel.Name] {
		return ""
	}
	if len(call.Args) == 0 {
		return ""
	}
	return rootIdent(call.Args[0])
}

// rootIdent returns the base identifier name of a (possibly wrapped)
// expression, or "".
func rootIdent(e ast.Expr) string {
	for {
		switch x := ast.Unparen(e).(type) {
		case *ast.Ident:
			return x.Name
		case *ast.IndexExpr:
			e = x.X
		case *ast.SliceExpr:
			e = x.X
		case *ast.StarExpr:
			e = x.X
		case *ast.CallExpr:
			// sort.Sort(byName(xs)): conversion/wrapper keeps the operand.
			if len(x.Args) == 1 {
				e = x.Args[0]
				continue
			}
			return ""
		default:
			return ""
		}
	}
}

// step applies one CFG node's gen/kill effect to the fact.
func (st *ordState) step(n ast.Node, f ordFact) ordFact {
	switch t := n.(type) {
	case *ast.RangeStmt:
		var origin ordOrigin
		tainted := false
		if st.isMapExpr(t.X) {
			origin = ordOrigin{expr: exprText(t.X), pos: t.Pos()}
			tainted = true
		} else if o, ok := st.taintOf(t.X, f); ok {
			origin, tainted = o, true
		}
		out := f
		copied := false
		for _, bind := range []ast.Expr{t.Key, t.Value} {
			id, ok := bind.(*ast.Ident)
			if !ok || id.Name == "_" {
				continue
			}
			_, had := f[id.Name]
			switch {
			case tainted:
				if !copied {
					out, copied = f.clone(), true
				}
				out[id.Name] = origin
			case had:
				// Ranging a deterministic sequence strongly rebinds the loop
				// variables: stale taint from an earlier loop dies here.
				if !copied {
					out, copied = f.clone(), true
				}
				delete(out, id.Name)
			}
		}
		return out

	case *ast.AssignStmt:
		out := f
		copied := false
		mutate := func() ordFact {
			if !copied {
				out = f.clone()
				copied = true
			}
			return out
		}
		for i, lhs := range t.Lhs {
			var rhs ast.Expr
			if len(t.Rhs) == len(t.Lhs) {
				rhs = t.Rhs[i]
			} else if len(t.Rhs) == 1 {
				rhs = t.Rhs[0]
			}
			switch l := ast.Unparen(lhs).(type) {
			case *ast.Ident:
				if l.Name == "_" {
					continue
				}
				if t.Tok == token.ASSIGN || t.Tok == token.DEFINE {
					if rhs != nil {
						if o, ok := st.taintOf(rhs, f); ok {
							mutate()[l.Name] = o
						} else if _, had := f[l.Name]; had {
							delete(mutate(), l.Name) // strong update kills
						}
					}
				} else if rhs != nil { // compound ops accumulate
					if o, ok := st.taintOf(rhs, f); ok {
						if _, had := f[l.Name]; !had {
							mutate()[l.Name] = o
						}
					}
				}
			case *ast.IndexExpr:
				// Writing a tainted value (or through a tainted index) into a
				// container taints the container: its content layout is now
				// iteration-order-dependent.
				if rhs != nil {
					if o, ok := st.taintOf(rhs, f); ok {
						if base := rootIdent(l.X); base != "" {
							if _, had := f[base]; !had {
								mutate()[base] = o
							}
						}
					} else if o, ok := st.taintOf(l.Index, f); ok {
						if base := rootIdent(l.X); base != "" {
							if _, had := f[base]; !had {
								mutate()[base] = o
							}
						}
					}
				}
			}
		}
		return out

	case *ast.ExprStmt:
		if call, ok := t.X.(*ast.CallExpr); ok {
			if target := sanitizerTarget(call); target != "" {
				if _, had := f[target]; had {
					out := f.clone()
					delete(out, target)
					return out
				}
			}
		}
	}
	return f
}

// ordWalk visits the call expressions lexically inside a CFG node, skipping
// nested function literals (their bodies are separate call-graph nodes) and
// the statement bodies of compound nodes that live whole in a block
// (RangeStmt, SelectStmt — their bodies are separate CFG blocks).
func ordWalk(n ast.Node, visit func(call *ast.CallExpr)) {
	ast.Inspect(n, func(m ast.Node) bool {
		switch t := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.RangeStmt:
			ordWalkExpr(t.X, visit)
			return false
		case *ast.SelectStmt:
			return false
		case *ast.CallExpr:
			visit(t)
		}
		return true
	})
}

func ordWalkExpr(e ast.Expr, visit func(call *ast.CallExpr)) {
	if e == nil {
		return
	}
	ast.Inspect(e, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok {
			return false
		}
		if call, ok := m.(*ast.CallExpr); ok {
			visit(call)
		}
		return true
	})
}

// orderSink classifies a resolved call site as a determinism-sensitive sink,
// returning a description and (for summary-derived sinks) the effect that
// justifies it.
func (st *ordState) orderSink(site *CallSite) (string, *FuncNode, Effect, bool) {
	for _, ext := range site.External {
		key := calleeKey(ext.RecvName, ext.Name)
		switch {
		case isSimPkg(ext.PkgPath) && orderSimSinks[key]:
			return "sim scheduling call sim." + key, nil, 0, true
		case isCorePkg(ext.PkgPath) && (isPartReqRecv(ext.RecvName) || isPartInitName(ext.Name)):
			return "partitioned-API call core." + key, nil, 0, true
		}
		if set, desc := classifyExternal(ext); set.Has(EffHostIO) {
			return "output emission " + desc, nil, 0, true
		}
	}
	for _, callee := range site.Callees {
		key := calleeKey(callee.RecvName, callee.Name)
		switch {
		case isSimPkg(callee.PkgPath) && orderSimSinks[key]:
			return "sim scheduling call sim." + key, nil, 0, true
		case isCorePkg(callee.PkgPath) && (isPartReqRecv(callee.RecvName) || isPartInitName(callee.Name)):
			return "partitioned-API call core." + key, nil, 0, true
		}
		sum := st.prog.Summary(callee)
		for _, e := range []Effect{EffBlocks, EffIssuesPready, EffIssuesParrived, EffHostIO} {
			if sum.Effects.Has(e) {
				return effectNames[e] + " via " + callee.ShortName(), callee, e, true
			}
		}
	}
	return "", nil, 0, false
}

// isPartReqRecv reports whether recv is one of the partitioned request types.
func isPartReqRecv(recv string) bool { return partReqTypeNames[recv] }

// isPartInitName reports whether name is a partitioned-channel constructor.
func isPartInitName(name string) bool {
	return strings.HasPrefix(name, "PsendInit") || strings.HasPrefix(name, "PrecvInit")
}

func runMapOrder(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	for _, node := range prog.Nodes {
		if node.Pkg != pass.Pkg || node.Body() == nil {
			continue
		}
		st := newOrdState(prog, node)
		cfg, res := st.solveOrderTaint()
		for _, blk := range cfg.Blocks {
			if !cfg.Reachable(blk) {
				continue
			}
			cur := res.In[blk.Index]
			for _, n := range blk.Nodes {
				st.checkOrderSinks(pass, n, cur)
				cur = st.step(n, cur)
			}
		}
	}
}

// checkOrderSinks reports tainted operands reaching sink calls inside node n
// under fact f.
func (st *ordState) checkOrderSinks(pass *Pass, n ast.Node, f ordFact) {
	if len(f) == 0 {
		return
	}
	ordWalk(n, func(call *ast.CallExpr) {
		site := st.sites[call]
		if site == nil {
			return
		}
		desc, callee, eff, isSink := st.orderSink(site)
		if !isSink {
			return
		}
		// A tainted receiver or argument makes the sink order-dependent.
		var origin ordOrigin
		var via string
		found := false
		if sel, ok := ast.Unparen(call.Fun).(*ast.SelectorExpr); ok {
			if o, ok := st.taintOf(sel.X, f); ok {
				origin, via, found = o, exprText(sel.X), true
			}
		}
		if !found {
			for _, arg := range call.Args {
				if o, ok := st.taintOf(arg, f); ok {
					origin, via, found = o, exprText(arg), true
					break
				}
			}
		}
		if !found {
			return
		}
		var chain []ChainStep
		if callee != nil {
			chain = st.prog.chainFromSite(site, st.node, callee, eff)
		}
		pos := st.node.Pkg.Fset.Position(origin.pos)
		pass.ReportfChain(call.Pos(), chain,
			"map-iteration-ordered value %s (from range over %s at line %d) reaches %s: extract the keys and sort them first",
			via, origin.expr, pos.Line, desc)
	})
}
