package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// PartitionedFlowAnalyzer owns the partitioned-API state machine (the misuse
// classes Bridges et al. catalog for GPU-triggered MPI): Pready, PbufPrepare
// or Wait before Start, double Start, duplicate or out-of-range literal
// Pready/Parrived, Free of an active request, any use after Free, and reads
// of a receive buffer inside an open epoch before Parrived/Wait. It sees the
// misuse on one straight line, along branch paths, and across function
// boundaries:
//
//   - a helper performs state-machine operations on a request-typed
//     parameter (directly or through further helpers), and the call site's
//     tracked state makes those operations illegal — e.g. `kickoff(req)`
//     calling `readyAll(req)` calling `req.Pready(...)` before the caller
//     ever issued Start;
//   - a helper returns a freshly-initialized request (wrapping P*Init),
//     so tracking starts at the helper call in the caller.
//
// Helper behaviour is summarized bottom-up over the call-graph SCCs as an
// ordered operation list per request-typed parameter. A parameter that
// escapes the straight-line view (compound control flow, unknown callees,
// stores, returns) degrades to an opaque summary, and the caller stops
// tracking at the call — recall traded for zero false positives.
//
// The caller side is a path-sensitive typestate automaton solved over the
// per-function CFG: each tracked request carries the SET of protocol states
// (init -> started -> pready -> arrived) it can be in, joined as a union
// across branches. A violation is reported only when the operation is illegal
// in EVERY possible state — must-violation semantics, so correlated branches
// (`if x { r.Start(p) } ... if x { r.Wait(p) }`) stay silent — and the
// diagnostic carries the branch path from the initialization to the
// violation.
var PartitionedFlowAnalyzer = &Analyzer{
	Name:      "partitionedflow",
	Doc:       "flag partitioned-API state-machine misuse on straight lines, branch paths and through helpers (Pready before Start, use after Free, ...)",
	SkipTests: true, // tests exercise misuse on purpose (mustPanic)
	Run:       runPartitionedFlow,
}

// partInitCalls maps initializer names to the request direction.
var partInitCalls = map[string]string{
	"PsendInit":           "send",
	"PsendInitParts":      "send",
	"PsendInitPersistent": "send",
	"PrecvInit":           "recv",
	"PrecvInitParts":      "recv",
	"PrecvInitPersistent": "recv",
}

// partOp is one state-machine operation a helper applies to a request-typed
// parameter, in straight-line order.
type partOp struct {
	method string // Start, Pready, Parrived, Wait, Test, Free, PbufPrepare
	part   int    // literal partition argument, -1 when absent/non-literal
	pos    token.Pos
	// via is the deeper helper this op was spliced from (nil: direct).
	via *FuncNode
}

// partParamSummary describes what a function does to one request parameter.
type partParamSummary struct {
	ops    []partOp
	opaque bool // parameter escapes the straight-line view
}

// partFnSummary is the per-function partitioned-protocol summary.
type partFnSummary struct {
	// params maps parameter index -> summary, only for request-typed params.
	params map[int]*partParamSummary
	// retDir is "send"/"recv" when the function returns a freshly
	// initialized request; retOps are the operations already applied to it
	// (in order) before it is returned.
	retDir string
	retOps []partOp
}

// partReqTypeNames are the internal/core request types the flow tracks.
var partReqTypeNames = map[string]bool{
	"SendRequest": true, "RecvRequest": true, "Prequest": true,
}

// isPartReqType reports whether t is (a pointer to) one of the request
// types, and the direction it implies.
func isPartReqType(t types.Type) bool {
	if t == nil {
		return false
	}
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	return obj != nil && obj.Pkg() != nil &&
		strings.HasSuffix(obj.Pkg().Path(), "internal/core") &&
		partReqTypeNames[obj.Name()]
}

// partStateOps are the state-machine methods the summaries record.
var partStateOps = map[string]bool{
	"Start": true, "Pready": true, "Parrived": true, "Wait": true,
	"Test": true, "Free": true, "PbufPrepare": true,
}

// partLiteralArg extracts the literal partition argument of an op, by
// method-specific position.
func partLiteralArg(method string, call *ast.CallExpr) int {
	idx := -1
	switch method {
	case "Pready":
		idx = 1 // Pready(p, part)
	case "Parrived":
		idx = 0 // Parrived(part)
	}
	if idx < 0 || idx >= len(call.Args) {
		return -1
	}
	if v, ok := intLit(call.Args[idx]); ok {
		return v
	}
	return -1
}

// computePartSummaries fills prog.partSumm bottom-up over the SCCs.
func (prog *Program) computePartSummaries() {
	prog.partSumm = make([]*partFnSummary, len(prog.Nodes))
	for _, comp := range prog.sccs {
		// Within an SCC, recursion through a request parameter cannot be
		// summarized straight-line; seed members opaque, then compute once
		// (a second pass would not refine an opaque-seeded fixpoint).
		for _, vi := range comp {
			prog.partSumm[vi] = &partFnSummary{params: map[int]*partParamSummary{}}
		}
		for _, vi := range comp {
			prog.partSumm[vi] = prog.analyzePartFn(prog.Nodes[vi])
		}
	}
}

// reqParamIndexes maps parameter names to indexes for request-typed params.
func reqParamIndexes(node *FuncNode) map[string]int {
	info := node.Pkg.Info
	out := map[string]int{}
	var ft *ast.FuncType
	if node.Decl != nil {
		ft = node.Decl.Type
	} else {
		ft = node.Lit.Type
	}
	if ft.Params == nil || info == nil {
		return out
	}
	i := 0
	for _, fld := range ft.Params.List {
		n := len(fld.Names)
		if n == 0 {
			n = 1
		}
		for j := 0; j < n; j++ {
			if j < len(fld.Names) {
				name := fld.Names[j].Name
				if tv, ok := info.Types[fld.Type]; ok && isPartReqType(tv.Type) {
					out[name] = i
				}
			}
			i++
		}
	}
	return out
}

// analyzePartFn computes one function's summary given current callee
// summaries.
func (prog *Program) analyzePartFn(node *FuncNode) *partFnSummary {
	s := &partFnSummary{params: map[int]*partParamSummary{}}
	body := node.Body()
	if body == nil {
		return s
	}
	reqParams := reqParamIndexes(node)
	for name, idx := range reqParams {
		s.params[idx] = prog.summarizeParam(node, body, name)
	}
	prog.summarizeReturn(node, body, s)
	return s
}

// summarizeParam computes the straight-line op list applied to parameter
// name over the top-level statements of body. Deferred ops run at function
// exit, which from the caller's perspective is the end of the op sequence,
// so they are appended (LIFO) after the straight-line ops.
func (prog *Program) summarizeParam(node *FuncNode, body *ast.BlockStmt, name string) *partParamSummary {
	ps := &partParamSummary{}
	var deferred []partOp
	for _, stmt := range body.List {
		switch st := stmt.(type) {
		case *ast.ExprStmt:
			call, ok := st.X.(*ast.CallExpr)
			if !ok {
				if usesIdent(st, name) {
					ps.opaque = true
					return ps
				}
				continue
			}
			if ops, ok := prog.opsOfCall(node, call, name); ok {
				ps.ops = append(ps.ops, ops...)
				continue
			}
			if usesIdent(st, name) {
				ps.opaque = true
				return ps
			}
		case *ast.DeferStmt:
			if ops, ok := prog.opsOfCall(node, st.Call, name); ok {
				deferred = append(append([]partOp{}, ops...), deferred...)
				continue
			}
			if usesIdent(st, name) {
				ps.opaque = true
				return ps
			}
		case *ast.ReturnStmt:
			if usesIdent(st, name) {
				ps.opaque = true
				return ps
			}
			ps.ops = append(ps.ops, deferred...)
			return ps
		default:
			if usesIdent(stmt, name) {
				ps.opaque = true
				return ps
			}
		}
	}
	ps.ops = append(ps.ops, deferred...)
	return ps
}

// opsOfCall interprets one call statement with respect to request variable
// name: a direct state-machine method (`name.Start(p)`), or a helper call
// passing name whose parameter summary can be spliced in. ok=false means the
// call does not involve name at all, or involves it in a way that cannot be
// summarized (the caller then degrades to opaque via usesIdent).
func (prog *Program) opsOfCall(node *FuncNode, call *ast.CallExpr, name string) ([]partOp, bool) {
	// Direct method call name.M(...).
	if id := recvIdent(call); id != nil && id.Name == name {
		method := calleeName(call)
		if partStateOps[method] {
			return []partOp{{method: method, part: partLiteralArg(method, call), pos: call.Pos()}}, true
		}
		// Unknown method on the request (NParts, Pending, ...): harmless.
		for _, arg := range call.Args {
			if usesIdent(arg, name) {
				return nil, false
			}
		}
		return nil, true
	}
	// Helper call with name as a plain argument.
	argIdx := -1
	for i, arg := range call.Args {
		if id, ok := ast.Unparen(arg).(*ast.Ident); ok && id.Name == name {
			if argIdx >= 0 {
				return nil, false // passed twice: too clever to summarize
			}
			argIdx = i
		} else if usesIdent(arg, name) {
			return nil, false // nested use (field, closure capture, ...)
		}
	}
	if argIdx < 0 {
		if usesIdent(call.Fun, name) {
			return nil, false
		}
		return nil, true // call does not involve the request
	}
	site := prog.siteOf(node, call)
	if site == nil || len(site.Callees) != 1 || len(site.External) > 0 {
		return nil, false
	}
	callee := site.Callees[0]
	cs := prog.partSumm[callee.index]
	if cs == nil {
		return nil, false
	}
	psum, ok := cs.params[argIdx]
	if !ok {
		// Callee does not treat this position as a request parameter
		// (degraded type info): be conservative.
		return nil, false
	}
	if psum.opaque {
		return nil, false
	}
	ops := make([]partOp, len(psum.ops))
	for i, op := range psum.ops {
		spliced := op
		spliced.pos = call.Pos()
		if spliced.via == nil {
			spliced.via = callee
		}
		ops[i] = spliced
	}
	return ops, true
}

// siteOf finds the recorded call site of call inside node.
func (prog *Program) siteOf(node *FuncNode, call *ast.CallExpr) *CallSite {
	for _, s := range node.Calls {
		if s.Call == call {
			return s
		}
	}
	return nil
}

// summarizeReturn detects the returns-fresh-request pattern: a local bound
// to P*Init (or to a returns-init helper), operated on in straight lines,
// then returned.
func (prog *Program) summarizeReturn(node *FuncNode, body *ast.BlockStmt, s *partFnSummary) {
	var local string
	var dir string
	var ops []partOp
	for _, stmt := range body.List {
		switch st := stmt.(type) {
		case *ast.AssignStmt:
			if len(st.Lhs) != 1 || len(st.Rhs) != 1 {
				if local != "" && usesIdent(st, local) {
					return
				}
				continue
			}
			lhs, ok := st.Lhs[0].(*ast.Ident)
			if !ok {
				continue
			}
			call, ok := st.Rhs[0].(*ast.CallExpr)
			if !ok {
				if lhs.Name == local {
					return // rebound
				}
				continue
			}
			if d, isInit := partInitCalls[calleeName(call)]; isInit {
				local, dir, ops = lhs.Name, d, nil
				continue
			}
			if site := prog.siteOf(node, call); site != nil && len(site.Callees) == 1 {
				ccs := prog.partSumm[site.Callees[0].index]
				if ccs != nil && ccs.retDir != "" {
					local, dir = lhs.Name, ccs.retDir
					ops = append([]partOp{}, ccs.retOps...)
					for i := range ops {
						ops[i].pos = call.Pos()
						if ops[i].via == nil {
							ops[i].via = site.Callees[0]
						}
					}
					continue
				}
			}
			if lhs.Name == local {
				return
			}
		case *ast.ExprStmt:
			if local == "" {
				continue
			}
			if call, ok := st.X.(*ast.CallExpr); ok {
				if o, ok := prog.opsOfCall(node, call, local); ok {
					ops = append(ops, o...)
					continue
				}
			}
			if usesIdent(st, local) {
				return
			}
		case *ast.ReturnStmt:
			if local == "" {
				return
			}
			if len(st.Results) == 1 {
				if id, ok := ast.Unparen(st.Results[0]).(*ast.Ident); ok && id.Name == local {
					s.retDir, s.retOps = dir, ops
				}
			}
			return
		default:
			if local != "" && usesIdent(stmt, local) {
				return
			}
		}
	}
}

// ---- the analyzer: caller-side path-sensitive typestate dataflow ----

// pflowState is one possible protocol state of a tracked request variable
// along some set of CFG paths.
type pflowState struct {
	dir     string
	nparts  int // -1 when unknown
	started bool
	freed   bool
	// readied is the bitmask of literal partitions (< 64) marked ready in
	// the current epoch; larger literals simply forgo duplicate detection.
	readied uint64
	// buf is the receive buffer identifier of a recv request initialized
	// with a plain-identifier buffer ("" otherwise); arrived records a
	// Parrived/Wait/Test (or a reported read) since the last Start.
	buf     string
	arrived bool
	// initBlock/initPos anchor where tracking began, for branch-path
	// rendering in diagnostics.
	initBlock int
	initPos   token.Pos
}

// pflowMaxStates bounds the state set per variable; a variable whose set
// outgrows it (pathological branching) is dropped rather than approximated.
const pflowMaxStates = 8

// pflowFact maps request variable -> set of possible states. top is the
// solver's optimistic identity ("no path information yet"); it only exists
// transiently during iteration.
type pflowFact struct {
	top  bool
	vars map[string][]pflowState
}

func (f pflowFact) clone() pflowFact {
	if f.top {
		return f
	}
	out := pflowFact{vars: make(map[string][]pflowState, len(f.vars))}
	for k, v := range f.vars {
		out.vars[k] = v // state slices are never mutated in place
	}
	return out
}

// pflowCanon dedupes and canonically orders a state set; nil (drop the
// variable) when the set exceeds pflowMaxStates. The input slice must be
// freshly allocated by the caller.
func pflowCanon(states []pflowState) []pflowState {
	seen := make(map[pflowState]bool, len(states))
	out := states[:0]
	for _, st := range states {
		if !seen[st] {
			seen[st] = true
			out = append(out, st)
		}
	}
	if len(out) > pflowMaxStates {
		return nil
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.initPos != b.initPos {
			return a.initPos < b.initPos
		}
		if a.initBlock != b.initBlock {
			return a.initBlock < b.initBlock
		}
		if a.dir != b.dir {
			return a.dir < b.dir
		}
		if a.nparts != b.nparts {
			return a.nparts < b.nparts
		}
		if a.started != b.started {
			return !a.started
		}
		if a.freed != b.freed {
			return !a.freed
		}
		if a.readied != b.readied {
			return a.readied < b.readied
		}
		if a.buf != b.buf {
			return a.buf < b.buf
		}
		return !a.arrived && b.arrived
	})
	return out
}

// pflowJoin unions the state sets of variables tracked on BOTH paths; a
// variable untracked on either side stops being tracked (must-style key
// intersection keeps the all-states invariant the reporting rests on).
func pflowJoin(a, b pflowFact) pflowFact {
	if a.top {
		return b
	}
	if b.top {
		return a
	}
	out := pflowFact{vars: map[string][]pflowState{}}
	for name, as := range a.vars {
		bs, ok := b.vars[name]
		if !ok {
			continue
		}
		merged := pflowCanon(append(append([]pflowState{}, as...), bs...))
		if merged != nil {
			out.vars[name] = merged
		}
	}
	return out
}

func pflowEqual(a, b pflowFact) bool {
	if a.top != b.top || len(a.vars) != len(b.vars) {
		return false
	}
	for name, as := range a.vars {
		bs, ok := b.vars[name]
		if !ok || len(as) != len(bs) {
			return false
		}
		for i := range as {
			if as[i] != bs[i] {
				return false
			}
		}
	}
	return true
}

// pflowNames returns the tracked variable names in deterministic order.
func pflowNames(f pflowFact) []string {
	names := make([]string, 0, len(f.vars))
	for n := range f.vars {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// pflowCtx carries the per-function analysis state.
type pflowCtx struct {
	pass      *Pass
	prog      *Program
	node      *FuncNode
	cfg       *CFG
	reporting bool // false during Solve, true during the replay pass
}

func runPartitionedFlow(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	for _, node := range prog.Nodes {
		if node.Pkg != pass.Pkg || node.Body() == nil {
			continue
		}
		if node.File != nil && node.File.Test {
			continue
		}
		cx := &pflowCtx{pass: pass, prog: prog, node: node}
		cx.cfg = BuildCFG(node.Body())
		res := Solve(cx.cfg, FlowProblem[pflowFact]{
			Boundary: pflowFact{vars: map[string][]pflowState{}},
			Init:     pflowFact{top: true},
			Join:     pflowJoin,
			Transfer: cx.transfer,
			Equal:    pflowEqual,
		})
		// Replay each reachable block once on its fixpoint in-fact with
		// reporting enabled.
		cx.reporting = true
		for _, blk := range cx.cfg.Blocks {
			if cx.cfg.Reachable(blk) && !res.In[blk.Index].top {
				cx.transfer(blk, res.In[blk.Index])
			}
		}
	}
}

func (cx *pflowCtx) transfer(blk *CFGBlock, in pflowFact) pflowFact {
	if in.top {
		return in
	}
	f := in.clone()
	for _, n := range blk.Nodes {
		f = cx.step(blk, n, f)
	}
	return f
}

// step interprets one CFG node. Statements that use a tracked request in any
// way the automaton does not model drop the variable (zero false positives
// over recall, as everywhere in this engine).
func (cx *pflowCtx) step(blk *CFGBlock, n ast.Node, f pflowFact) pflowFact {
	cx.checkBufferReads(blk, n, f)
	switch s := n.(type) {
	case *ast.AssignStmt:
		cx.stepAssign(blk, s, f)
	case *ast.ExprStmt:
		if call, ok := s.X.(*ast.CallExpr); ok {
			cx.stepCall(blk, call, f)
		} else {
			cx.dropUses(s, f)
		}
	case *ast.DeferStmt:
		// defer x.Free()/x.Wait(p) is well-formed cleanup at exit: stop
		// tracking the variable.
		if id := recvIdent(s.Call); id != nil {
			delete(f.vars, id.Name)
		} else {
			cx.dropUses(s, f)
		}
	case *ast.RangeStmt:
		// Only the range header lives in this block (the body has its own
		// blocks): drop on use in the ranged expression or on rebinding of a
		// tracked name as the loop variable.
		for _, name := range pflowNames(f) {
			if usesIdent(s.X, name) || pflowBinds(s.Key, name) || pflowBinds(s.Value, name) {
				delete(f.vars, name)
			}
		}
	default:
		// Conditions (bare exprs), select, return, send, incdec, decl, go:
		// any mention of a tracked request escapes the automaton.
		cx.dropUses(n, f)
	}
	return f
}

// checkBufferReads reports a node that mentions the receive buffer of a
// request whose epoch is open with nothing arrived in every possible state:
// the sender may still be writing into it. The read then counts as arrival,
// so an epoch is reported once; Solve and the replay take the same step.
func (cx *pflowCtx) checkBufferReads(blk *CFGBlock, n ast.Node, f pflowFact) {
	switch s := n.(type) {
	case *ast.DeferStmt, *ast.SelectStmt:
		// A deferred call runs at exit; a select's clauses are nodes of
		// their own.
		return
	case *ast.RangeStmt:
		n = s.X // the body has its own blocks
	}
	for _, name := range pflowNames(f) {
		states := f.vars[name]
		if !pflowAll(states, func(st pflowState) bool {
			return st.buf != "" && st.started && !st.arrived && !st.freed && usesIdent(n, st.buf)
		}) {
			continue
		}
		if cx.reporting {
			cx.pass.Reportf(n.Pos(), "read of receive buffer %s of request %s before Parrived/Wait: the epoch is still open%s",
				states[0].buf, name, cx.pathDesc(states, blk))
		}
		out := make([]pflowState, len(states))
		for i, st := range states {
			st.arrived = true
			out[i] = st
		}
		f.vars[name] = pflowCanon(out)
	}
}

// pflowAll reports whether pred holds in every state of a tracked variable.
func pflowAll(states []pflowState, pred func(pflowState) bool) bool {
	for _, st := range states {
		if !pred(st) {
			return false
		}
	}
	return true
}

func pflowBinds(e ast.Expr, name string) bool {
	id, ok := e.(*ast.Ident)
	return ok && id.Name == name
}

func (cx *pflowCtx) dropUses(n ast.Node, f pflowFact) {
	for _, name := range pflowNames(f) {
		if usesIdent(n, name) {
			delete(f.vars, name)
		}
	}
}

// stepAssign starts tracking direct inits and helper-returned inits, and
// drops anything rebound or escaping through the assignment.
func (cx *pflowCtx) stepAssign(blk *CFGBlock, s *ast.AssignStmt, f pflowFact) {
	if len(s.Lhs) != 1 || len(s.Rhs) != 1 {
		cx.dropUses(s, f)
		return
	}
	lhs, ok := s.Lhs[0].(*ast.Ident)
	if !ok {
		cx.dropUses(s, f)
		return
	}
	call, ok := s.Rhs[0].(*ast.CallExpr)
	if !ok {
		cx.dropUses(s.Rhs[0], f)
		delete(f.vars, lhs.Name)
		return
	}
	name := calleeName(call)
	if dir, isInit := partInitCalls[name]; isInit && lhs.Name != "_" {
		cx.dropUses(call, f) // a tracked request in the init args escapes
		st := pflowState{dir: dir, nparts: -1, initBlock: blk.Index, initPos: call.Pos()}
		// P*Init(p, r, peer, tag, buf, nparts): a literal partition count and
		// a plain-identifier receive buffer feed the range and buffer-read
		// checks.
		if !strings.HasSuffix(name, "Parts") && len(call.Args) == 6 {
			if n, ok := intLit(call.Args[5]); ok {
				st.nparts = n
			}
			if buf, ok := call.Args[4].(*ast.Ident); ok && dir == "recv" {
				st.buf = buf.Name
			}
		}
		f.vars[lhs.Name] = []pflowState{st}
		return
	}
	// Helper-returned request: tracking starts at the call with the helper's
	// pre-applied ops.
	if site := cx.prog.siteOf(cx.node, call); site != nil && len(site.Callees) == 1 && len(site.External) == 0 {
		cs := cx.prog.partSumm[site.Callees[0].index]
		if cs != nil && cs.retDir != "" && lhs.Name != "_" {
			cx.dropUses(s, f)
			st := pflowState{dir: cs.retDir, nparts: -1, initBlock: blk.Index, initPos: call.Pos()}
			states := []pflowState{st}
			for _, op := range cs.retOps {
				states = cx.applyOp(blk, lhs.Name, states, op, site.Callees[0], call.Pos())
				if states == nil {
					break
				}
			}
			if states != nil {
				f.vars[lhs.Name] = states
			}
			return
		}
	}
	cx.dropUses(s, f)
}

// stepCall advances tracked state for a statement-level call: direct request
// methods step the automaton; helper calls splice the callee's summarized
// ops; anything else using a tracked request drops it.
func (cx *pflowCtx) stepCall(blk *CFGBlock, call *ast.CallExpr, f pflowFact) {
	// Direct method on a tracked request.
	if id := recvIdent(call); id != nil {
		if states, ok := f.vars[id.Name]; ok {
			method := calleeName(call)
			if partStateOps[method] {
				op := partOp{method: method, part: partLiteralArg(method, call), pos: call.Pos()}
				states = cx.applyOp(blk, id.Name, states, op, nil, call.Pos())
				if states == nil {
					delete(f.vars, id.Name)
				} else {
					f.vars[id.Name] = states
				}
			} else {
				// Unknown method (NParts, Pending, ...): harmless unless the
				// request recurs in its own arguments.
				for _, arg := range call.Args {
					if usesIdent(arg, id.Name) {
						delete(f.vars, id.Name)
						break
					}
				}
			}
			// Other tracked requests appearing in the arguments escape.
			for _, name := range pflowNames(f) {
				if name == id.Name {
					continue
				}
				for _, arg := range call.Args {
					if usesIdent(arg, name) {
						delete(f.vars, name)
						break
					}
				}
			}
			return
		}
	}
	// Helper call taking tracked requests as plain arguments.
	for _, name := range pflowNames(f) {
		states, ok := f.vars[name]
		if !ok {
			continue
		}
		argIdx := -1
		involved := false
		for i, arg := range call.Args {
			if aid, ok := ast.Unparen(arg).(*ast.Ident); ok && aid.Name == name {
				if argIdx >= 0 {
					involved = true // passed twice: too clever to track
					break
				}
				argIdx = i
			} else if usesIdent(arg, name) {
				involved = true // nested use (field, closure capture, ...)
				break
			}
		}
		if involved {
			delete(f.vars, name)
			continue
		}
		if argIdx < 0 {
			if usesIdent(call.Fun, name) {
				delete(f.vars, name)
			}
			continue
		}
		site := cx.prog.siteOf(cx.node, call)
		if site == nil || len(site.Callees) != 1 || len(site.External) > 0 {
			delete(f.vars, name)
			continue
		}
		callee := site.Callees[0]
		cs := cx.prog.partSumm[callee.index]
		var psum *partParamSummary
		if cs != nil {
			psum = cs.params[argIdx]
		}
		if psum == nil || psum.opaque {
			delete(f.vars, name)
			continue
		}
		for _, op := range psum.ops {
			spliced := op
			if spliced.via == nil {
				spliced.via = callee
			}
			states = cx.applyOp(blk, name, states, spliced, callee, call.Pos())
			if states == nil {
				break
			}
		}
		if states == nil {
			delete(f.vars, name)
		} else {
			f.vars[name] = states
		}
	}
}

// pflowCheck is one violation predicate of an operation: fires must hold in
// EVERY possible state for msg to be reported.
type pflowCheck struct {
	fires func(pflowState) bool
	msg   string
}

// pflowChecks enumerates the violation checks of op. rep is a representative
// state used only to render state-dependent message parts (nparts).
func pflowChecks(op partOp, name, viaDesc string, rep pflowState) []pflowCheck {
	live := func(pred func(pflowState) bool) func(pflowState) bool {
		return func(st pflowState) bool { return !st.freed && pred(st) }
	}
	checks := []pflowCheck{{
		fires: func(st pflowState) bool { return st.freed },
		msg:   fmt.Sprintf("%s on freed request %s%s: use after Free", op.method, name, viaDesc),
	}}
	switch op.method {
	case "Start":
		checks = append(checks, pflowCheck{
			fires: live(func(st pflowState) bool { return st.started }),
			msg:   fmt.Sprintf("Start on already-started request %s%s: missing Wait between epochs", name, viaDesc),
		})
	case "PbufPrepare":
		checks = append(checks, pflowCheck{
			fires: live(func(st pflowState) bool { return !st.started }),
			msg:   fmt.Sprintf("PbufPrepare before Start on request %s%s", name, viaDesc),
		})
	case "Pready":
		checks = append(checks, pflowCheck{
			fires: live(func(st pflowState) bool { return !st.started }),
			msg:   fmt.Sprintf("Pready before Start on request %s%s", name, viaDesc),
		})
		if op.part >= 0 {
			checks = append(checks,
				pflowCheck{
					fires: live(func(st pflowState) bool { return st.nparts >= 0 && op.part >= st.nparts }),
					msg:   fmt.Sprintf("Pready partition %d out of range [0,%d) on request %s%s", op.part, rep.nparts, name, viaDesc),
				},
				pflowCheck{
					fires: live(func(st pflowState) bool {
						inRange := !(st.nparts >= 0 && op.part >= st.nparts)
						return inRange && op.part < 64 && st.readied&(1<<uint(op.part)) != 0
					}),
					msg: fmt.Sprintf("duplicate Pready of partition %d on request %s%s in the same epoch", op.part, name, viaDesc),
				})
		}
	case "Parrived":
		if op.part >= 0 {
			checks = append(checks, pflowCheck{
				fires: live(func(st pflowState) bool { return st.nparts >= 0 && op.part >= st.nparts }),
				msg:   fmt.Sprintf("Parrived partition %d out of range [0,%d) on request %s%s", op.part, rep.nparts, name, viaDesc),
			})
		}
	case "Wait":
		checks = append(checks, pflowCheck{
			fires: live(func(st pflowState) bool { return !st.started }),
			msg:   fmt.Sprintf("Wait before Start on request %s%s", name, viaDesc),
		})
	case "Free":
		checks = append(checks, pflowCheck{
			fires: live(func(st pflowState) bool { return st.started }),
			msg:   fmt.Sprintf("Free of request %s%s inside an active epoch (missing Wait)", name, viaDesc),
		})
	}
	return checks
}

// pflowAdvance steps one state by one operation.
func pflowAdvance(st pflowState, op partOp) pflowState {
	if st.freed {
		return st
	}
	switch op.method {
	case "Start":
		st.started = true
		st.readied = 0
		st.arrived = false
	case "Pready":
		if op.part >= 0 && op.part < 64 {
			st.readied |= 1 << uint(op.part)
		}
	case "Parrived":
		st.arrived = true
	case "Wait", "Test":
		st.started = false
		st.arrived = true
	case "Free":
		st.freed = true
	}
	return st
}

// applyOp advances every possible state by one operation and, during the
// replay pass, reports violations that hold in every state. via is the
// helper the op arrived through (nil for a direct caller-side op);
// reportPos anchors the diagnostic at the caller's call site.
func (cx *pflowCtx) applyOp(blk *CFGBlock, name string, states []pflowState, op partOp, via *FuncNode, reportPos token.Pos) []pflowState {
	if len(states) == 0 {
		return nil
	}
	if cx.reporting {
		viaDesc := ""
		if op.via != nil {
			viaDesc = fmt.Sprintf(" (issued inside %s)", op.via.ShortName())
		}
		for _, chk := range pflowChecks(op, name, viaDesc, states[0]) {
			if !pflowAll(states, chk.fires) {
				continue
			}
			msg := chk.msg + cx.pathDesc(states, blk)
			var chain []ChainStep
			if via != nil {
				chain = cx.pass.opChain(via, op)
			}
			cx.pass.ReportfChain(reportPos, chain, "%s", msg)
		}
	}
	out := make([]pflowState, 0, len(states))
	for _, st := range states {
		out = append(out, pflowAdvance(st, op))
	}
	return pflowCanon(out)
}

// pathDesc renders the branch path from the earliest tracking start to the
// violating block: the condition lines traversed and the direction taken.
// Because violations are must-violations, any init-to-violation path is a
// genuine witness; the BFS-shortest one is rendered. Straight-line
// violations yield "".
func (cx *pflowCtx) pathDesc(states []pflowState, blk *CFGBlock) string {
	initBlock := states[0].initBlock
	for _, st := range states[1:] {
		if st.initBlock < initBlock {
			initBlock = st.initBlock
		}
	}
	if initBlock == blk.Index {
		return ""
	}
	prev := make([]int, len(cx.cfg.Blocks))
	for i := range prev {
		prev[i] = -2
	}
	prev[initBlock] = -1
	queue := []int{initBlock}
	for len(queue) > 0 && prev[blk.Index] == -2 {
		cur := queue[0]
		queue = queue[1:]
		for _, s := range cx.cfg.Blocks[cur].Succs {
			if prev[s.Index] == -2 {
				prev[s.Index] = cur
				queue = append(queue, s.Index)
			}
		}
	}
	if prev[blk.Index] == -2 {
		return ""
	}
	var hops []string
	for cur := blk.Index; prev[cur] >= 0; cur = prev[cur] {
		p := cx.cfg.Blocks[prev[cur]]
		if p.Cond == nil {
			continue
		}
		dir := "false"
		if len(p.Succs) > 0 && p.Succs[0].Index == cur {
			dir = "true"
		}
		line := cx.node.Pkg.Fset.Position(p.Cond.Pos()).Line
		hops = append(hops, fmt.Sprintf("branch at line %d (%s)", line, dir))
	}
	if len(hops) == 0 {
		return ""
	}
	for i, j := 0, len(hops)-1; i < j; i, j = i+1, j-1 {
		hops[i], hops[j] = hops[j], hops[i]
	}
	return " [path: " + strings.Join(hops, " -> ") + "]"
}

// opChain renders the helper chain of an op: the entered helper, then the
// deeper helper the op was spliced from, ending at the operation site.
func (pass *Pass) opChain(entered *FuncNode, op partOp) []ChainStep {
	var steps []ChainStep
	add := func(n *FuncNode, pos token.Pos) {
		p := n.Pkg.Fset.Position(pos)
		steps = append(steps, ChainStep{Func: n.ShortName(), File: p.Filename, Line: p.Line, Col: p.Column})
	}
	add(entered, entered.Pos())
	if op.via != nil && op.via != entered {
		add(op.via, op.via.Pos())
	}
	final := entered
	if op.via != nil {
		final = op.via
	}
	p := final.Pkg.Fset.Position(op.opPos())
	steps = append(steps, ChainStep{Desc: op.method, File: p.Filename, Line: p.Line, Col: p.Column})
	return steps
}

// opPos returns the best-known position of the underlying operation.
func (op partOp) opPos() token.Pos { return op.pos }
