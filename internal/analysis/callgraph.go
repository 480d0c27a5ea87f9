package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// This file builds the whole-program call graph the interprocedural
// analyzers stand on. The graph covers every function declaration and
// function literal of the analyzed packages (non-test files); call sites are
// resolved through go/types where possible:
//
//   - direct calls and method calls on concrete receivers resolve to exactly
//     one callee;
//   - interface method calls resolve by CHA (class-hierarchy analysis): the
//     candidate set is every in-program method with the same name and an
//     identical signature rendered with package-qualified type names. Name
//     matching sidesteps the fact that each analyzed package type-checks in
//     its own universe, so *types.Named identity cannot be compared across
//     packages;
//   - generic functions and methods are collapsed onto their origin
//     (uninstantiated) declaration, so every instantiation shares one node
//     and one conservative summary;
//   - calls whose callee has no body in the program (standard library,
//     unexported helpers of unloaded packages) are kept as external callees
//     carrying the callee identity, which the effect layer classifies
//     against its intrinsic tables.
//
// Nodes are identified by stable strings ("pkg.(*Recv).Name", literals as
// "parent$n") so the graph is deterministic across runs — a requirement the
// byte-identical-output regression test enforces.

// FuncNode is one function (declaration or literal) in the call graph.
type FuncNode struct {
	ID   string // stable identity, e.g. "mpipart/internal/sim.(*Proc).Wait"
	Pkg  *Package
	File *File

	// Decl or Lit is set (never both). Parent links a literal to the
	// function whose body defines it.
	Decl   *ast.FuncDecl
	Lit    *ast.FuncLit
	Parent *FuncNode

	// PkgPath/RecvName/Name decompose the identity for intrinsic-table
	// matching: RecvName is the receiver's base type name without pointer or
	// type-parameter decoration ("" for plain functions and literals).
	PkgPath  string
	RecvName string
	Name     string

	Calls []*CallSite

	index int // position in Program.Nodes (deterministic order)
}

// Pos returns the declaration position of the node.
func (n *FuncNode) Pos() token.Pos {
	if n.Decl != nil {
		return n.Decl.Pos()
	}
	return n.Lit.Pos()
}

// Body returns the function body (may be nil for bodyless declarations).
func (n *FuncNode) Body() *ast.BlockStmt {
	if n.Decl != nil {
		return n.Decl.Body
	}
	return n.Lit.Body
}

// ShortName renders the node for diagnostics: package base + receiver +
// name, literals as parent$n.
func (n *FuncNode) ShortName() string {
	id := n.ID
	if i := strings.LastIndex(id, "/"); i >= 0 {
		id = id[i+1:]
	}
	return id
}

// ExtCallee identifies a resolved callee whose body is outside the program.
type ExtCallee struct {
	PkgPath  string
	RecvName string
	Name     string
}

// CallSite is one call expression inside a FuncNode with its resolved
// callees.
type CallSite struct {
	Call *ast.CallExpr
	Pos  token.Pos
	// Callees are the in-program targets (singleton for static calls,
	// the CHA candidate set for interface calls, empty when unresolvable).
	Callees []*FuncNode
	// External are resolved targets with no body in the program.
	External []ExtCallee
	// InPanicArg marks call sites inside a panic(...) argument: cold
	// diagnostic construction that the allocation rules exempt.
	InPanicArg bool
	// Deferred marks `defer f(...)` sites (the call runs at function exit).
	Deferred bool
	// Spawned marks `go f(...)` sites and calls of the sim coroutine-spawn
	// helper (coroSpawnHelper): the callee runs on another goroutine or
	// coroutine, so its effects do not propagate to the spawner (the
	// GoStmt itself is recorded as a SpawnsGoroutine intrinsic).
	Spawned bool
}

// coroSpawnHelper is the sim kernel's coroutine-spawn helper, keyed
// "Receiver.Method". A call of it wraps its function argument in a new
// coroutine, the analogue of a go statement: the helper's own closure and
// iter.Pull allocation are spawn cost, not the caller's per-call work. Its
// arguments are still evaluated, and checked, in the caller, so a closure
// literal handed to the helper on a hot path is still reported. racelock
// roots such a site like a goroutine, which for a coroutine that only runs
// while its resumer waits is conservative.
const coroSpawnHelper = "Proc.start"

// Program is the whole-program analysis state shared by the interprocedural
// analyzers of one Run.
type Program struct {
	Pkgs  []*Package
	Nodes []*FuncNode

	byID map[string]*FuncNode
	// methodsByName indexes in-program methods for CHA: name -> nodes.
	methodsByName map[string][]*FuncNode

	// filled by the effect layer (effects.go)
	intr      []intrinsics
	summaries []Summary
	sccOf     []int   // node index -> SCC id (topological: callees first)
	sccs      [][]int // SCC id -> member node indexes

	// filled by the taint layer (taint.go)
	taint []taintSummary
	// filled by partitionedflow.go
	partSumm []*partFnSummary
	// lock acquisition-order edges (deadlockorder.go)
	lockEdges []lockEdge
}

// NodeByID returns the node with the given identity, or nil.
func (prog *Program) NodeByID(id string) *FuncNode { return prog.byID[id] }

// NodeOf returns the node for a declaration or literal, or nil.
func (prog *Program) NodeOf(n ast.Node) *FuncNode {
	for _, fn := range prog.Nodes {
		if fn.Decl == n || fn.Lit == n {
			return fn
		}
	}
	return nil
}

// BuildProgram constructs the call graph and computes the effect, taint and
// partitioned-protocol summaries for the given packages. Packages must be in
// deterministic order (Loader.Load sorts by import path).
func BuildProgram(pkgs []*Package) *Program {
	prog := &Program{
		Pkgs:          pkgs,
		byID:          map[string]*FuncNode{},
		methodsByName: map[string][]*FuncNode{},
	}
	// Pass 1: create nodes for every declaration and literal.
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			if f.Test {
				continue
			}
			for _, decl := range f.Ast.Decls {
				fd, ok := decl.(*ast.FuncDecl)
				if !ok {
					continue
				}
				node := prog.addDecl(pkg, f, fd)
				if fd.Body != nil {
					prog.addLiterals(node, fd.Body)
				}
			}
		}
	}
	// Pass 2: resolve call sites.
	for _, node := range prog.Nodes {
		if node.Body() != nil {
			prog.resolveCalls(node)
		}
	}
	prog.condense()
	prog.computeEffects()
	prog.computeTaint()
	prog.computePartSummaries()
	return prog
}

func (prog *Program) addNode(n *FuncNode) *FuncNode {
	// Identity collisions (build-tag twins declaring the same function in
	// one directory) keep the first node; later twins still get distinct
	// nodes under a disambiguated ID so their bodies are analyzed.
	if _, dup := prog.byID[n.ID]; dup {
		n.ID = fmt.Sprintf("%s#%d", n.ID, len(prog.Nodes))
	}
	n.index = len(prog.Nodes)
	prog.Nodes = append(prog.Nodes, n)
	prog.byID[n.ID] = n
	if n.RecvName != "" {
		prog.methodsByName[n.Name] = append(prog.methodsByName[n.Name], n)
	}
	return n
}

// addDecl creates the node for a function declaration.
func (prog *Program) addDecl(pkg *Package, f *File, fd *ast.FuncDecl) *FuncNode {
	recv := ""
	if fd.Recv != nil && len(fd.Recv.List) > 0 {
		recv = recvTypeName(fd.Recv.List[0].Type)
	}
	id := pkg.Path + "." + fd.Name.Name
	if recv != "" {
		id = pkg.Path + ".(" + recv + ")." + fd.Name.Name
	}
	return prog.addNode(&FuncNode{
		ID: id, Pkg: pkg, File: f, Decl: fd,
		PkgPath: pkg.Path, RecvName: recv, Name: fd.Name.Name,
	})
}

// addLiterals creates child nodes for every function literal lexically inside
// body, excluding literals nested in an inner literal (those belong to the
// inner node). parent must already be registered.
func (prog *Program) addLiterals(parent *FuncNode, body *ast.BlockStmt) {
	n := 0
	ast.Inspect(body, func(m ast.Node) bool {
		lit, ok := m.(*ast.FuncLit)
		if !ok {
			return true
		}
		n++
		child := prog.addNode(&FuncNode{
			ID: fmt.Sprintf("%s$%d", parent.ID, n), Pkg: parent.Pkg, File: parent.File,
			Lit: lit, Parent: parent,
			PkgPath: parent.PkgPath, Name: fmt.Sprintf("%s$%d", parent.Name, n),
		})
		prog.addLiterals(child, lit.Body)
		return false // inner literals were just handled by the recursion
	})
}

// recvTypeName strips pointer and type-parameter decoration from a receiver
// type expression.
func recvTypeName(t ast.Expr) string {
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.IndexExpr:
			t = u.X
		case *ast.IndexListExpr:
			t = u.X
		case *ast.Ident:
			return u.Name
		default:
			return "?"
		}
	}
}

// resolveCalls records the call sites of node, skipping subtrees that belong
// to nested literals (they are their own nodes).
func (prog *Program) resolveCalls(node *FuncNode) {
	info := node.Pkg.Info
	var walk func(root ast.Node, inPanic, deferred, spawned bool)
	var visitCall func(call *ast.CallExpr, inPanic, deferred, spawned bool)
	visitCall = func(call *ast.CallExpr, inPanic, deferred, spawned bool) {
		site := &CallSite{Call: call, Pos: call.Pos(), InPanicArg: inPanic, Deferred: deferred, Spawned: spawned}
		isPanic := prog.resolveCallee(node, info, call, site)
		for _, c := range site.Callees {
			if isSimPkg(c.PkgPath) && calleeKey(c.RecvName, c.Name) == coroSpawnHelper {
				site.Spawned = true
			}
		}
		if len(site.Callees) > 0 || len(site.External) > 0 {
			node.Calls = append(node.Calls, site)
		}
		// Arguments of panic(...) are cold diagnostic construction.
		for _, arg := range call.Args {
			walk(arg, inPanic || isPanic, deferred, spawned)
		}
		walk(call.Fun, inPanic, deferred, spawned)
	}
	walk = func(root ast.Node, inPanic, deferred, spawned bool) {
		ast.Inspect(root, func(m ast.Node) bool {
			if m == root {
				if call, ok := m.(*ast.CallExpr); ok {
					visitCall(call, inPanic, deferred, spawned)
					return false
				}
				return true
			}
			switch t := m.(type) {
			case *ast.FuncLit:
				return false // belongs to the child node
			case *ast.DeferStmt:
				walk(t.Call, inPanic, true, spawned)
				return false
			case *ast.GoStmt:
				walk(t.Call, inPanic, deferred, true)
				return false
			case *ast.CallExpr:
				visitCall(t, inPanic, deferred, spawned)
				return false
			}
			return true
		})
	}
	walk(node.Body(), false, false, false)
}

// resolveCallee fills site with the resolved targets of call and reports
// whether the callee is the panic builtin.
func (prog *Program) resolveCallee(node *FuncNode, info *types.Info, call *ast.CallExpr, site *CallSite) (isPanic bool) {
	fun := ast.Unparen(call.Fun)
	// Strip explicit instantiation: F[int](x), m[T1,T2](x).
	switch idx := fun.(type) {
	case *ast.IndexExpr:
		fun = idx.X
	case *ast.IndexListExpr:
		fun = idx.X
	}
	switch fn := fun.(type) {
	case *ast.Ident:
		obj := info.Uses[fn]
		if obj == nil {
			obj = info.Defs[fn]
		}
		switch o := obj.(type) {
		case *types.Builtin:
			return o.Name() == "panic"
		case *types.Func:
			prog.addTarget(site, o)
		case *types.Var, *types.Nil:
			// Call through a function-typed variable: if the variable is
			// bound to a literal in the same statement list we cannot see it
			// here; conservatively unresolved. The immediate form
			// func(){...}() resolves below via the FuncLit case.
		case nil:
			if fn.Name == "panic" {
				return true
			}
		}
	case *ast.SelectorExpr:
		if seln, ok := info.Selections[fn]; ok {
			if f, ok := seln.Obj().(*types.Func); ok {
				if types.IsInterface(seln.Recv()) {
					prog.addCHATargets(site, f)
				} else {
					prog.addTarget(site, f)
				}
			}
			return false
		}
		// Package-qualified call pkg.F: no Selection entry, the selector
		// identifier resolves directly.
		if f, ok := info.Uses[fn.Sel].(*types.Func); ok {
			prog.addTarget(site, f)
		}
	case *ast.FuncLit:
		// Immediately-invoked literal: the child node exists; link it.
		for _, cand := range prog.Nodes {
			if cand.Lit == fn {
				site.Callees = append(site.Callees, cand)
				break
			}
		}
	}
	return false
}

// addTarget resolves a *types.Func to an in-program node or an external
// callee. Generic instantiations collapse onto their origin.
func (prog *Program) addTarget(site *CallSite, f *types.Func) {
	f = f.Origin()
	pkgPath := ""
	if f.Pkg() != nil {
		pkgPath = f.Pkg().Path()
	}
	recv := ""
	if sig, ok := f.Type().(*types.Signature); ok && sig.Recv() != nil {
		recv = baseTypeName(sig.Recv().Type())
	}
	id := pkgPath + "." + f.Name()
	if recv != "" {
		id = pkgPath + ".(" + recv + ")." + f.Name()
	}
	if n, ok := prog.byID[id]; ok {
		site.Callees = append(site.Callees, n)
		return
	}
	site.External = append(site.External, ExtCallee{PkgPath: pkgPath, RecvName: recv, Name: f.Name()})
}

// addCHATargets resolves an interface method call to every in-program method
// with the same name and an identical package-qualified signature.
func (prog *Program) addCHATargets(site *CallSite, f *types.Func) {
	want := signatureString(f)
	cands := prog.methodsByName[f.Name()]
	for _, cand := range cands {
		if cand.Decl == nil || cand.Pkg.Info == nil {
			continue
		}
		obj, ok := cand.Pkg.Info.Defs[cand.Decl.Name].(*types.Func)
		if !ok {
			continue
		}
		if signatureString(obj) == want {
			site.Callees = append(site.Callees, cand)
		}
	}
	if len(site.Callees) == 0 {
		// No in-program implementation: record the interface method itself
		// so intrinsic tables can still classify well-known externals.
		pkgPath := ""
		if f.Pkg() != nil {
			pkgPath = f.Pkg().Path()
		}
		site.External = append(site.External, ExtCallee{PkgPath: pkgPath, Name: f.Name()})
	}
}

// baseTypeName returns the base type name of a (possibly pointer, possibly
// instantiated-generic) receiver type.
func baseTypeName(t types.Type) string {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	switch u := t.(type) {
	case *types.Named:
		return u.Obj().Name()
	case *types.TypeParam:
		return u.Obj().Name()
	}
	return "?"
}

// signatureString renders a method signature (without receiver) with
// package-path-qualified type names, the cross-universe comparison key for
// CHA.
func signatureString(f *types.Func) string {
	sig, ok := f.Type().(*types.Signature)
	if !ok {
		return ""
	}
	qual := func(p *types.Package) string { return p.Path() }
	var b strings.Builder
	b.WriteString("(")
	for i := 0; i < sig.Params().Len(); i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(types.TypeString(sig.Params().At(i).Type(), qual))
	}
	b.WriteString(")(")
	for i := 0; i < sig.Results().Len(); i++ {
		if i > 0 {
			b.WriteString(",")
		}
		b.WriteString(types.TypeString(sig.Results().At(i).Type(), qual))
	}
	b.WriteString(")")
	return b.String()
}

// condense computes SCCs of the call graph (Tarjan, iterative) and stores
// them in topological order with callees before callers, the order the
// bottom-up summary passes consume.
func (prog *Program) condense() {
	n := len(prog.Nodes)
	prog.sccOf = make([]int, n)
	for i := range prog.sccOf {
		prog.sccOf[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next := 0

	type frame struct {
		v  int
		ei int // next edge to explore
	}
	edges := make([][]int, n)
	for i, node := range prog.Nodes {
		seen := map[int]bool{}
		for _, site := range node.Calls {
			for _, c := range site.Callees {
				if !seen[c.index] {
					seen[c.index] = true
					edges[i] = append(edges[i], c.index)
				}
			}
		}
		sort.Ints(edges[i])
	}

	var dfs func(root int)
	dfs = func(root int) {
		frames := []frame{{v: root}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if f.ei < len(edges[f.v]) {
				w := edges[f.v][f.ei]
				f.ei++
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			// finished v
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				var comp []int
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp = append(comp, w)
					if w == v {
						break
					}
				}
				sort.Ints(comp)
				id := len(prog.sccs)
				prog.sccs = append(prog.sccs, comp)
				for _, w := range comp {
					prog.sccOf[w] = id
				}
			}
		}
	}
	for i := 0; i < n; i++ {
		if index[i] == -1 {
			dfs(i)
		}
	}
	// Tarjan emits SCCs in reverse topological order already: a component is
	// finished only after everything it reaches. That is exactly
	// callees-first, so prog.sccs needs no reordering.
}
