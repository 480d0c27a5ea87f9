package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// TaskStateAnalyzer checks the continuation-Task discipline introduced by the
// proc-free leaf actors (internal/sim/task.go). Step functions run on the
// scheduler itself — they must never block the proc they do not have — and a
// task may hold at most one outstanding suspension. The runtime enforces
// these rules with panics at simulation time; this analyzer enforces them
// statically, over every converted actor in mpi, gpu, ucx, and core.
//
// Four checks:
//
//   - blocking-in-step: a Task-context function (any non-sim function with a
//     *sim.Task parameter — step functions and their helpers) calls a
//     function that transitively reaches a proc parking primitive
//     (Proc.Wait, Cond.Wait, Queue.Pop, …). Blocking work must be written
//     as Await/Then continuations. Reported with the call chain to the
//     parking site.
//   - proc-only API in Task context: a direct call of a sim parking
//     primitive from a Task-context function.
//   - double suspension: a path-sensitive typestate automaton over the Task
//     parameter — states {running, parked} — reusing the partitionedflow
//     CFG-typestate pattern. Sleep/SleepUntil and Cond.Await park
//     unconditionally; Gate.Await, Counter.AwaitAtLeast, and Queue.PopAwait
//     may park (the automaton forks). A park op where the task is parked on
//     EVERY incoming path is reported (must-violation semantics: a
//     branch-correlated maybe-park followed by a park on the non-parked
//     branch stays silent). Helpers taking the task are spliced by their own
//     bottom-up park summary {none, may, must, opaque}; opaque uses drop
//     tracking rather than report.
//   - spawner arming: Then/Sleep/SleepUntil called on the result of
//     SpawnTask/SpawnTaskDaemon from the spawning function. The spawner is
//     not the running step; continuations must be armed from the task's own
//     step functions (engine-style bound fields, assigned to struct state,
//     are not flagged — only locally-spawned task variables).
var TaskStateAnalyzer = &Analyzer{
	Name:      "taskstate",
	Doc:       "continuation-Task discipline: no proc blocking in steps, single outstanding suspension, arming only from the task's own steps",
	SkipTests: true,
	Run:       runTaskState,
}

// Park-summary lattice for a Task-context function (and for each task op).
const (
	tsParkNone   int8 = iota // never parks the task
	tsParkMay                // parks on some paths
	tsParkMust               // parks on every path
	tsParkOpaque             // unmodelled use: drop tracking
)

// taskParkMethods classifies the sim continuation-wait primitives by
// (receiver, method) identity: Cond.Await parks unconditionally, the
// condition-checking variants park only when not ready.
var taskParkMethods = map[string]int8{
	"Cond.Await":           tsParkMust,
	"Gate.Await":           tsParkMay,
	"Counter.AwaitAtLeast": tsParkMay,
	"Queue.PopAwait":       tsParkMay,
}

// taskSpawnFuncs are the Kernel methods that create a Task.
var taskSpawnFuncs = map[string]bool{
	"SpawnTask": true, "SpawnTaskID": true,
	"SpawnTaskDaemon": true, "SpawnTaskDaemonID": true,
}

// taskHarmlessMethods are Task methods with no suspension semantics.
var taskHarmlessMethods = map[string]bool{
	"Now": true, "Name": true, "Kernel": true,
}

// tsWitness records how a function acquired the proc-blocking bit.
type tsWitness struct {
	pos    token.Pos
	callee *FuncNode // nil for a direct primitive call
	desc   string
}

// tsOp is one Task operation found in a CFG node, in source order.
type tsOp struct {
	pos   token.Pos
	kind  int8 // tsParkNone ops are not emitted; kinds here are may/must/opaque
	desc  string
	chain []ChainStep
}

// tsFact is the typestate fact: the set of automaton states the task may be
// in. Bit 1 = running, bit 2 = parked; mask 0 = tracking dropped.
type tsFact struct {
	top  bool
	mask uint8
}

const (
	tsRun    uint8 = 1
	tsParked uint8 = 2
)

func tsJoin(a, b tsFact) tsFact {
	if a.top {
		return b
	}
	if b.top {
		return a
	}
	if a.mask == 0 || b.mask == 0 {
		return tsFact{}
	}
	return tsFact{mask: a.mask | b.mask}
}

func tsEqual(a, b tsFact) bool { return a.top == b.top && a.mask == b.mask }

type tsCtx struct {
	prog     *Program
	blockBit []bool
	blockWit []tsWitness
	// parkSumm/parkWit summarize each Task-context node's effect on its
	// task parameter, bottom-up over SCCs.
	parkSumm map[int]int8
	parkWit  map[int]tsWitness
	// taskParam caches the *sim.Task parameter object per node index
	// (nil = not a Task-context function).
	taskParam map[int]*types.Var
}

func isTaskPtrType(t types.Type) bool {
	p, ok := t.(*types.Pointer)
	if !ok {
		return false
	}
	named, ok := p.Elem().(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil {
		return false
	}
	return named.Obj().Name() == "Task" && isSimPkg(named.Obj().Pkg().Path())
}

// taskParamOf returns the first *sim.Task parameter of node, or nil.
func (cx *tsCtx) taskParamOf(node *FuncNode) *types.Var {
	if v, ok := cx.taskParam[node.index]; ok {
		return v
	}
	var sig *types.Signature
	info := node.Pkg.Info
	if info != nil {
		switch {
		case node.Decl != nil:
			if f, ok := info.Defs[node.Decl.Name].(*types.Func); ok {
				sig, _ = f.Type().(*types.Signature)
			}
		case node.Lit != nil:
			if tv, ok := info.Types[node.Lit]; ok {
				sig, _ = tv.Type.(*types.Signature)
			}
		}
	}
	var found *types.Var
	if sig != nil {
		for i := 0; i < sig.Params().Len(); i++ {
			if p := sig.Params().At(i); isTaskPtrType(p.Type()) {
				found = p
				break
			}
		}
	}
	cx.taskParam[node.index] = found
	return found
}

// isTaskCtx reports whether node is a Task-context function outside the sim
// runtime (the runtime's own internals legitimately manipulate tasks).
func (cx *tsCtx) isTaskCtx(node *FuncNode) bool {
	return !isSimPkg(node.PkgPath) && cx.taskParamOf(node) != nil
}

// computeBlockBits propagates "transitively parks the proc" bottom-up.
// Unlike EffBlocks, edges INTO the sim package do not recurse: only the
// identity-seeded parking primitives count, so calling Broadcast (which
// wakes waiters via internal queues) stays clean.
func (cx *tsCtx) computeBlockBits() {
	for _, comp := range cx.prog.sccs {
		for changed := true; changed; {
			changed = false
			for _, vi := range comp {
				node := cx.prog.Nodes[vi]
				if isSimPkg(node.PkgPath) || cx.blockBit[vi] {
					continue
				}
				for _, site := range node.Calls {
					if site.Spawned {
						continue
					}
					for _, ext := range site.External {
						if isSimPkg(ext.PkgPath) && simBlockingPrimitives[calleeKey(ext.RecvName, ext.Name)] {
							cx.blockBit[vi] = true
							cx.blockWit[vi] = tsWitness{pos: site.Pos, desc: "sim." + calleeKey(ext.RecvName, ext.Name)}
						}
					}
					for _, c := range site.Callees {
						if cx.blockBit[vi] {
							break
						}
						if isSimPkg(c.PkgPath) {
							if simBlockingPrimitives[calleeKey(c.RecvName, c.Name)] {
								cx.blockBit[vi] = true
								cx.blockWit[vi] = tsWitness{pos: site.Pos, callee: c, desc: "sim." + calleeKey(c.RecvName, c.Name)}
							}
							continue
						}
						if cx.blockBit[c.index] {
							cx.blockBit[vi] = true
							cx.blockWit[vi] = tsWitness{pos: site.Pos, callee: c}
						}
					}
					if cx.blockBit[vi] {
						break
					}
				}
				if cx.blockBit[vi] {
					changed = true
				}
			}
			if len(comp) == 1 {
				break
			}
		}
	}
}

// blockChain renders the call chain from a blocking call site down to the
// parking primitive.
func (cx *tsCtx) blockChain(owner *FuncNode, w tsWitness) []ChainStep {
	var steps []ChainStep
	node := owner
	for hop := 0; hop < 20; hop++ {
		pos := node.Pkg.Fset.Position(w.pos)
		if w.callee == nil || isSimPkg(w.callee.PkgPath) {
			desc := w.desc
			if desc == "" && w.callee != nil {
				desc = w.callee.ShortName()
			}
			steps = append(steps, ChainStep{Desc: desc, File: pos.Filename, Line: pos.Line, Col: pos.Column})
			return steps
		}
		steps = append(steps, ChainStep{Func: w.callee.ShortName(), File: pos.Filename, Line: pos.Line, Col: pos.Column})
		node = w.callee
		w = cx.blockWit[node.index]
		if w.pos == token.NoPos {
			return steps
		}
	}
	return steps
}

func runTaskState(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	cx := &tsCtx{
		prog:      prog,
		blockBit:  make([]bool, len(prog.Nodes)),
		blockWit:  make([]tsWitness, len(prog.Nodes)),
		parkSumm:  map[int]int8{},
		parkWit:   map[int]tsWitness{},
		taskParam: map[int]*types.Var{},
	}
	cx.computeBlockBits()
	cx.computeParkSummaries()

	for _, node := range prog.Nodes {
		if node.Pkg != pass.Pkg || isSimPkg(node.PkgPath) || node.Body() == nil {
			continue
		}
		if cx.isTaskCtx(node) {
			cx.checkBlocking(pass, node)
			cx.runTypestateOn(pass, node)
		}
		cx.checkSpawnerArming(pass, node)
	}
}

// checkBlocking reports proc parking reachable from a Task-context function:
// direct primitive calls and calls of transitively-blocking non-sim
// functions. Callees that are themselves Task-context are skipped — the
// violation is reported inside them, next to the blocking call.
func (cx *tsCtx) checkBlocking(pass *Pass, node *FuncNode) {
	for _, site := range node.Calls {
		if site.Spawned {
			continue
		}
		for _, ext := range site.External {
			if isSimPkg(ext.PkgPath) && simBlockingPrimitives[calleeKey(ext.RecvName, ext.Name)] {
				pass.Reportf(site.Pos,
					"proc-only blocking API sim.%s called from Task context: steps run on the scheduler; use Await/Then continuations",
					calleeKey(ext.RecvName, ext.Name))
			}
		}
		for _, c := range site.Callees {
			if isSimPkg(c.PkgPath) {
				if simBlockingPrimitives[calleeKey(c.RecvName, c.Name)] {
					pass.Reportf(site.Pos,
						"proc-only blocking API sim.%s called from Task context: steps run on the scheduler; use Await/Then continuations",
						calleeKey(c.RecvName, c.Name))
				}
				continue
			}
			if cx.isTaskCtx(c) {
				continue
			}
			if cx.blockBit[c.index] {
				w := tsWitness{pos: site.Pos, callee: c}
				pass.ReportfChain(site.Pos, cx.blockChain(node, w),
					"call of %s from Task context transitively parks the proc: blocking work must use Await/Then continuations",
					c.ShortName())
			}
		}
	}
}

// computeParkSummaries computes each Task-context node's park summary
// bottom-up over SCCs; recursive nodes are seeded opaque so splicing
// terminates.
func (cx *tsCtx) computeParkSummaries() {
	for _, comp := range cx.prog.sccs {
		for _, vi := range comp {
			node := cx.prog.Nodes[vi]
			if !cx.isTaskCtx(node) || node.Body() == nil {
				continue
			}
			if len(comp) > 1 || cx.selfRecursive(node) {
				cx.parkSumm[vi] = tsParkOpaque
				continue
			}
			cx.parkSumm[vi] = cx.runTypestateOn(nil, node)
		}
	}
}

func (cx *tsCtx) selfRecursive(node *FuncNode) bool {
	for _, site := range node.Calls {
		for _, c := range site.Callees {
			if c == node {
				return true
			}
		}
	}
	return false
}

// runTypestateOn solves the suspension typestate over node's CFG and returns
// the exit-state park summary. When pass is non-nil, reachable blocks are
// replayed on their fixpoint in-facts and violations reported.
func (cx *tsCtx) runTypestateOn(pass *Pass, node *FuncNode) int8 {
	body := node.Body()
	param := cx.taskParamOf(node)
	if body == nil || param == nil {
		return tsParkOpaque
	}
	cfg := BuildCFG(body)

	// Ops per CFG node, computed once.
	ops := map[ast.Node][]tsOp{}
	for _, blk := range cfg.Blocks {
		for _, n := range blk.Nodes {
			ops[n] = cx.opsInNode(node, param, n)
		}
	}

	apply := func(fact tsFact, op tsOp, report bool) tsFact {
		if fact.top {
			return fact
		}
		switch op.kind {
		case tsParkOpaque:
			return tsFact{}
		case tsParkMust:
			if fact.mask == tsParked && report {
				pass.ReportfChain(op.pos, op.chain,
					"task suspended twice in one step: %s parks while a suspension is already outstanding on every path here",
					op.desc)
			}
			if fact.mask != 0 {
				return tsFact{mask: tsParked}
			}
			return fact
		case tsParkMay:
			if fact.mask == tsParked && report {
				pass.ReportfChain(op.pos, op.chain,
					"task may be suspended twice in one step: %s can park while a suspension is already outstanding on every path here",
					op.desc)
			}
			if fact.mask != 0 {
				return tsFact{mask: fact.mask | tsParked}
			}
			return fact
		}
		return fact
	}
	transferWith := func(blk *CFGBlock, in tsFact, report bool) tsFact {
		fact := in
		for _, n := range blk.Nodes {
			for _, op := range ops[n] {
				fact = apply(fact, op, report)
			}
		}
		return fact
	}
	res := Solve(cfg, FlowProblem[tsFact]{
		Boundary: tsFact{mask: tsRun},
		Init:     tsFact{top: true},
		Join:     tsJoin,
		Transfer: func(blk *CFGBlock, in tsFact) tsFact { return transferWith(blk, in, false) },
		Equal:    tsEqual,
	})
	if pass != nil {
		for _, blk := range cfg.Blocks {
			if !cfg.Reachable(blk) || res.In[blk.Index].top {
				continue
			}
			transferWith(blk, res.In[blk.Index], true)
		}
	}

	exit := res.In[cfg.Exit.Index]
	switch {
	case exit.top:
		return tsParkNone // exit unreachable (daemon-style infinite loop)
	case exit.mask == 0:
		return tsParkOpaque
	case exit.mask == tsRun:
		return tsParkNone
	case exit.mask == tsParked:
		if _, ok := cx.parkWit[node.index]; !ok {
			cx.parkWit[node.index] = tsWitness{pos: body.Pos(), desc: "parks"}
		}
		return tsParkMust
	default:
		return tsParkMay
	}
}

// opsInNode extracts the Task operations of one CFG node in source order.
// param is the task parameter's object; identity-based resolution keeps
// shadowing and same-named fields out.
func (cx *tsCtx) opsInNode(node *FuncNode, param *types.Var, n ast.Node) []tsOp {
	info := node.Pkg.Info
	var out []tsOp
	claimed := map[token.Pos]bool{}
	isParam := func(e ast.Expr) (*ast.Ident, bool) {
		id, ok := ast.Unparen(e).(*ast.Ident)
		if !ok {
			return nil, false
		}
		return id, info.Uses[id] == param
	}

	// A RangeStmt/SelectStmt CFG node is just the header: the body
	// statements live in their own blocks and must not be scanned here.
	roots := []ast.Node{n}
	switch t := n.(type) {
	case *ast.RangeStmt:
		roots = roots[:0]
		for _, e := range []ast.Expr{t.Key, t.Value, t.X} {
			if e != nil {
				roots = append(roots, e)
			}
		}
	case *ast.SelectStmt:
		roots = nil
	}

	inspect := func(root ast.Node, fn func(ast.Node) bool) {
		ast.Inspect(root, fn)
	}
	for _, root := range roots {
		inspect(root, func(m ast.Node) bool {
			switch t := m.(type) {
			case *ast.FuncLit:
				if usesIdent(t.Body, param.Name()) {
					out = append(out, tsOp{pos: t.Pos(), kind: tsParkOpaque,
						desc: "closure capturing " + param.Name()})
				}
				return false
			case *ast.CallExpr:
				if sel, ok := t.Fun.(*ast.SelectorExpr); ok {
					if id, ok := isParam(sel.X); ok {
						claimed[id.Pos()] = true
						switch {
						case sel.Sel.Name == "Then":
							// Inline arming: legal in any state, including
							// immediately after a park.
						case sel.Sel.Name == "Sleep" || sel.Sel.Name == "SleepUntil":
							out = append(out, tsOp{pos: t.Pos(), kind: tsParkMust,
								desc: param.Name() + "." + sel.Sel.Name})
						case taskHarmlessMethods[sel.Sel.Name]:
						default:
							out = append(out, tsOp{pos: t.Pos(), kind: tsParkOpaque,
								desc: param.Name() + "." + sel.Sel.Name})
						}
						return true
					}
				}
				argUsed := false
				for _, a := range t.Args {
					if id, ok := isParam(a); ok {
						claimed[id.Pos()] = true
						argUsed = true
					}
				}
				if argUsed {
					out = append(out, cx.spliceTaskCall(node, t, param))
				}
			}
			return true
		})
	}

	// Any remaining use of the param (assignment into a variable, field
	// store, …) is unmodelled: drop tracking at that point.
	for _, root := range roots {
		inspect(root, func(m ast.Node) bool {
			if _, ok := m.(*ast.FuncLit); ok {
				return false
			}
			if id, ok := m.(*ast.Ident); ok && info.Uses[id] == param && !claimed[id.Pos()] {
				out = append(out, tsOp{pos: id.Pos(), kind: tsParkOpaque,
					desc: param.Name() + " escapes"})
			}
			return true
		})
	}

	sort.SliceStable(out, func(i, j int) bool { return out[i].pos < out[j].pos })
	return out
}

// spliceTaskCall classifies a call that receives the task as an argument:
// sim wait primitives by identity, in-program Task-context helpers by their
// park summary, anything else opaque.
func (cx *tsCtx) spliceTaskCall(node *FuncNode, call *ast.CallExpr, param *types.Var) tsOp {
	op := tsOp{pos: call.Pos(), kind: tsParkOpaque, desc: calleeName(call) + "(" + param.Name() + ")"}
	site := cx.prog.siteOf(node, call)
	if site == nil || site.Spawned {
		return op
	}
	kind := int8(-1)
	joinKind := func(k int8) {
		switch {
		case kind == -1:
			kind = k
		case k == tsParkOpaque || kind == tsParkOpaque:
			kind = tsParkOpaque
		case k != kind:
			kind = tsParkMay
		}
	}
	var helper *FuncNode
	for _, ext := range site.External {
		if isSimPkg(ext.PkgPath) {
			if k, ok := taskParkMethods[calleeKey(ext.RecvName, ext.Name)]; ok {
				joinKind(k)
				op.desc = "sim." + calleeKey(ext.RecvName, ext.Name)
				continue
			}
		}
		joinKind(tsParkOpaque)
	}
	for _, c := range site.Callees {
		if isSimPkg(c.PkgPath) {
			if k, ok := taskParkMethods[calleeKey(c.RecvName, c.Name)]; ok {
				joinKind(k)
				op.desc = "sim." + calleeKey(c.RecvName, c.Name)
				continue
			}
			joinKind(tsParkOpaque)
			continue
		}
		if s, ok := cx.parkSumm[c.index]; ok {
			joinKind(s)
			if s == tsParkMay || s == tsParkMust {
				helper = c
			}
			continue
		}
		joinKind(tsParkOpaque)
	}
	if kind == -1 {
		kind = tsParkOpaque
	}
	op.kind = kind
	if helper != nil {
		op.desc = fmt.Sprintf("%s (parks %s)", helper.ShortName(), param.Name())
		p := node.Pkg.Fset.Position(call.Pos())
		op.chain = []ChainStep{{Func: helper.ShortName(), File: p.Filename, Line: p.Line, Col: p.Column}}
		if w, ok := cx.parkWit[helper.index]; ok && w.pos != token.NoPos {
			wp := helper.Pkg.Fset.Position(w.pos)
			op.chain = append(op.chain, ChainStep{Desc: w.desc, File: wp.Filename, Line: wp.Line, Col: wp.Column})
		}
	}
	return op
}

// checkSpawnerArming flags suspension/arming APIs called on a freshly
// spawned task from the spawning function. Engine-style actors store the
// task in a struct field and arm from step functions; a local variable
// pattern `tk := k.SpawnTask(...); tk.Sleep(...)` runs the arming on the
// wrong side of the spawn boundary.
func (cx *tsCtx) checkSpawnerArming(pass *Pass, node *FuncNode) {
	body := node.Body()
	if body == nil {
		return
	}
	tracked := map[string]bool{}
	ast.Inspect(body, func(m ast.Node) bool {
		switch t := m.(type) {
		case *ast.FuncLit:
			return false
		case *ast.AssignStmt:
			if len(t.Lhs) == 1 && len(t.Rhs) == 1 {
				if id, ok := t.Lhs[0].(*ast.Ident); ok {
					if call, ok := ast.Unparen(t.Rhs[0]).(*ast.CallExpr); ok && cx.isSpawnCall(node, call) {
						tracked[id.Name] = true
						return true
					}
					delete(tracked, id.Name)
				}
				return true
			}
			for _, lhs := range t.Lhs {
				if id, ok := lhs.(*ast.Ident); ok {
					delete(tracked, id.Name)
				}
			}
		case *ast.CallExpr:
			if sel, ok := t.Fun.(*ast.SelectorExpr); ok {
				if id, ok := ast.Unparen(sel.X).(*ast.Ident); ok && tracked[id.Name] {
					switch sel.Sel.Name {
					case "Then", "Sleep", "SleepUntil":
						pass.Reportf(t.Pos(),
							"%s.%s called from the spawning function: the spawner is not the running step; arm continuations from the task's own step functions",
							id.Name, sel.Sel.Name)
					}
					return true
				}
			}
			// The task escaping into a call drops tracking.
			for _, a := range t.Args {
				if id, ok := ast.Unparen(a).(*ast.Ident); ok {
					delete(tracked, id.Name)
				}
			}
		}
		return true
	})
}

// isSpawnCall reports whether call is Kernel.SpawnTask{,ID,Daemon,DaemonID}.
func (cx *tsCtx) isSpawnCall(node *FuncNode, call *ast.CallExpr) bool {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok || !taskSpawnFuncs[sel.Sel.Name] {
		return false
	}
	site := cx.prog.siteOf(node, call)
	if site == nil {
		return false
	}
	for _, ext := range site.External {
		if isSimPkg(ext.PkgPath) && ext.RecvName == "Kernel" {
			return true
		}
	}
	for _, c := range site.Callees {
		if isSimPkg(c.PkgPath) && c.RecvName == "Kernel" {
			return true
		}
	}
	return false
}
