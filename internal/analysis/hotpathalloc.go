package analysis

import (
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// The internal/sim scheduler keeps its steady state allocation-free (see the
// "Scheduler internals" section of the sim package doc): every figure
// reproduction bottoms out in Kernel.Run, so a stray fmt call, string
// concatenation or closure literal in a per-dispatch function is a silent
// performance regression that no unit test catches. hotpathalloc pins the
// property statically for the designated hot-path functions.
//
// Cold paths are exempt: anything inside a panic(...) argument is a
// diagnostic being built on the way down and may format freely. Lazy
// diagnostics (blockReason.String, describeBlocked) and constructors are
// simply not in the hot set.

// hotPathFuncs designates the scheduler-path functions per package
// (keyed by import-path suffix), each set keyed "Receiver.Method" (receiver
// type name without pointer/type-parameters) or bare name for plain
// functions.
//
// internal/sim: Kernel.Run and Kernel.Go are deliberately absent — Run is
// the once-per-simulation entry whose loop delegates to resume/dispatch,
// and Go (like spawnTask) is a spawn path, which allocates by design. The
// Task continuation core is in: runTask/stepTask are the dispatch
// trampoline, Then/Sleep/SleepUntil/park arm every suspension, and
// readyTask/readyActor/reapTask are the run-queue edges.
//
// The converted leaf-actor packages designate their steady-state machine
// steps. Deliberate exemptions, checked at the call edge rather than
// silenced: Engine.stepItems fans out through the Progressor interface to
// item implementations that may format sanitizer diagnostics;
// Stream.finishKernel and Stream.stepFusedDone build trace
// spans (fmt under a tracer guard); SendRequest.stepScan and the
// pready/completion issue steps call sanitizer guards (eager fmt.Sprintf on
// violations) and the ucx put layer, whose delivery callbacks are closures
// by design.
var hotPathFuncs = map[string]map[string]bool{
	"internal/sim": {
		"Kernel.At": true, "Kernel.After": true, "Kernel.nextSeq": true,
		"Kernel.ready": true, "Kernel.resume": true, "Kernel.dispatch": true,
		"Kernel.reap": true, "Kernel.runTask": true, "Kernel.stepTask": true,
		"Kernel.readyTask": true, "Kernel.readyActor": true,
		"Kernel.reapTask": true, "Proc.block": true,
		"Proc.Wait": true, "Proc.WaitUntil": true, "Proc.Yield": true,
		"Task.Then": true, "Task.Sleep": true, "Task.SleepUntil": true,
		"Task.park": true, "Cond.Await": true,
		"Cond.Wait": true, "Cond.WaitFor": true, "Cond.Signal": true,
		"Cond.Broadcast": true, "Cond.Waiters": true,
		"Gate.Wait": true, "Gate.Open": true, "Gate.Await": true,
		"Counter.Add": true, "Counter.Set": true, "Counter.WaitAtLeast": true,
		"Counter.AwaitAtLeast": true, "Queue.PopAwait": true,
		"Queue.Push": true, "Queue.Pop": true, "Queue.TryPop": true,
		"Pipe.Transfer": true, "Pipe.TransferThen": true, "Pipe.serialize": true,
		"Pipe.TransferStaged": true, "ring.push": true, "ring.pop": true,
		"eventHeap.push": true, "eventHeap.pop": true,
	},
	"internal/mpi": {
		"Engine.stepPass": true, "Engine.finishItem": true,
		"Engine.stepWorkerDone": true, "Engine.stepIdleWake": true,
	},
	"internal/gpu": {
		"Stream.stepServe": true, "Stream.stepWave": true,
		"Stream.stepWaveBody": true,
	},
	"internal/ucx": {
		"Worker.stepDrain": true, "Worker.stepRunCb": true,
		"Worker.ProgressTask": true,
	},
	"internal/core": {
		"SendRequest.nextPart": true,
	},
}

// hotSetFor returns the designated set for a package import path, or nil if
// the package has no hot-path designations.
func hotSetFor(pkgPath string) map[string]bool {
	for sfx, set := range hotPathFuncs {
		if strings.HasSuffix(pkgPath, sfx) {
			return set
		}
	}
	return nil
}

// HotPathAllocAnalyzer forbids per-call allocation sources — fmt calls,
// string concatenation, closure literals — in the scheduler hot-path
// functions (the sim dispatch/continuation core and the converted
// leaf-actor machine steps), including ones reached through helper calls: a
// hot function calling a helper whose summary carries the Allocates effect
// is reported at the call site with the chain down to the allocating
// construct.
var HotPathAllocAnalyzer = &Analyzer{
	Name:      "hotpathalloc",
	Doc:       "forbid fmt calls, string concatenation and closures (transitively) in scheduler hot-path functions",
	SkipTests: true,
	Match: func(pkgPath string) bool {
		return hotSetFor(pkgPath) != nil
	},
	Run: runHotPathAlloc,
}

// hotFuncKey renders a FuncDecl's lookup key: "Type.Method" with pointer and
// generic type-parameter decoration stripped, or the bare function name.
func hotFuncKey(fd *ast.FuncDecl) string {
	if fd.Recv == nil || len(fd.Recv.List) == 0 {
		return fd.Name.Name
	}
	t := fd.Recv.List[0].Type
	for {
		switch u := t.(type) {
		case *ast.StarExpr:
			t = u.X
		case *ast.IndexExpr: // generic receiver, e.g. ring[T]
			t = u.X
		case *ast.IndexListExpr:
			t = u.X
		case *ast.Ident:
			return u.Name + "." + fd.Name.Name
		default:
			return fd.Name.Name
		}
	}
}

func runHotPathAlloc(pass *Pass) {
	set := hotSetFor(pass.Pkg.Path)
	if set == nil {
		return
	}
	for _, f := range pass.Files() {
		fmtName, hasFmt := importName(f.Ast, "fmt")
		for _, decl := range f.Ast.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok || fd.Body == nil {
				continue
			}
			key := hotFuncKey(fd)
			if !set[key] {
				continue
			}
			checkHotBody(pass, fd, key, fmtName, hasFmt)
			checkHotCallees(pass, fd, key)
		}
	}
}

// checkHotCallees reports hot-path calls of helpers whose effect summary
// carries Allocates — allocation sources the syntactic check cannot see
// because they live in a callee (or a callee's callee). Calls to other
// designated hot-path functions — in any covered package, so the converted
// leaf-actor steps calling the sim continuation core cross-package are
// included — are skipped: those are checked at their own declaration, so
// reporting the edge would double-count.
func checkHotCallees(pass *Pass, fd *ast.FuncDecl, key string) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	node := prog.NodeOf(fd)
	if node == nil {
		return
	}
	for _, site := range node.Calls {
		if site.InPanicArg || site.Spawned {
			continue // cold diagnostic path / spawned goroutine or coroutine
		}
		for _, callee := range site.Callees {
			if callee.Lit != nil {
				continue // the literal itself is already reported
			}
			if s := hotSetFor(callee.PkgPath); s != nil && s[calleeKey(callee.RecvName, callee.Name)] {
				continue
			}
			if !prog.Summary(callee).Effects.Has(EffAllocates) {
				continue
			}
			chain := prog.chainFromSite(site, node, callee, EffAllocates)
			pass.ReportfChain(site.Pos, chain,
				"call of %s in scheduler hot path %s allocates per call (transitively); hoist or precompute it", callee.ShortName(), key)
		}
	}
}

// checkHotBody walks one hot function, skipping panic(...) argument subtrees
// (cold diagnostic construction) and reporting each allocation source.
func checkHotBody(pass *Pass, fd *ast.FuncDecl, key, fmtName string, hasFmt bool) {
	ast.Inspect(fd.Body, func(n ast.Node) bool {
		switch t := n.(type) {
		case *ast.CallExpr:
			if id, ok := t.Fun.(*ast.Ident); ok && id.Name == "panic" && id.Obj == nil {
				return false // cold path: a panic message may format freely
			}
			if hasFmt {
				if sel, ok := isPkgSel(t.Fun, fmtName); ok {
					pass.Reportf(t.Pos(), "fmt.%s call in scheduler hot path %s: render diagnostics lazily (see blockReason)", sel, key)
				}
			}
		case *ast.FuncLit:
			pass.Reportf(t.Pos(), "closure literal in scheduler hot path %s: closures allocate per call; store values (e.g. the *Proc) instead", key)
			return false // one report per closure, not per nested finding
		case *ast.BinaryExpr:
			if t.Op == token.ADD && (isStringExpr(pass, t.X) || isStringExpr(pass, t.Y)) {
				pass.Reportf(t.Pos(), "string concatenation in scheduler hot path %s: build strings lazily outside the hot path", key)
				return false // the operands need no separate reports
			}
		}
		return true
	})
}

// isStringExpr reports whether e has string type, using type information when
// available and falling back to the literal's token kind.
func isStringExpr(pass *Pass, e ast.Expr) bool {
	if info := pass.Pkg.Info; info != nil {
		if tv, ok := info.Types[e]; ok && tv.Type != nil {
			if b, ok := tv.Type.Underlying().(*types.Basic); ok {
				return b.Info()&types.IsString != 0
			}
			return false
		}
	}
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}
