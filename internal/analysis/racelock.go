package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
	"strings"
)

// RaceLockAnalyzer is a lockset-based static race detector for the
// goroutine-concurrent host packages (the serving layer and the sweep
// runner). The simulation itself is cooperative and needs no locks; the
// packages that talk to the outside world — internal/serve, internal/runner,
// internal/runner/store, cmd/sweepd, cmd/benchgate — use real goroutines and
// real mutexes, and this rule checks that every piece of shared state they
// touch is consistently protected.
//
// The analysis:
//
//   - abstracts shared state to a field-sensitive location set: package-level
//     variables ("pkg.var") and struct fields ("pkg.Type.field", shared
//     across instances). Locals — including captured locals — are not
//     tracked: the abstraction cannot tell instances apart, so per-call
//     state would drown the report in false positives;
//   - propagates MUST-held locksets through each function's CFG
//     (intersection at joins, so a lock taken on only one branch does not
//     count) reusing deadlockorder's lock identities, then inherits accesses
//     bottom-up over the call graph, adding the caller's held locks at each
//     call site;
//   - treats goroutine-spawn boundaries as concurrent roots: every
//     go-spawned function, the spawner's continuation after the go
//     statement, and HTTP handlers (ServeMux registrations and ServeHTTP
//     methods — self-concurrent, so a handler races with itself);
//   - reports a location written by one root and touched by another (or by a
//     second instance of a self-concurrent root) with no common lock at
//     either site.
//
// Four sanitizer rules encode the happens-before idioms the serving layer
// actually uses; each suppresses a precise pattern, never a package:
//
//   - channel publication (the Batcher flight protocol): a write followed —
//     in source order, or via a deferred call — by close(x.done) or a send
//     on the same channel identity does not race with a read preceded by a
//     receive on that identity, nor with any access in the same function
//     (the leader's own reads are program-ordered);
//   - sync.Once: accesses inside the Do callback and accesses after the Do
//     call share a pseudo-lock derived from the Once identity;
//   - mutex-via-caller: accesses inherited through a call made with locks
//     held are protected by those locks, so a bare helper called under the
//     caller's mutex is not a finding;
//   - WaitGroup barrier (the Server.Sweep and runner fan-outs): wg.Done is
//     a release and wg.Wait an acquire on the WaitGroup's identity, reusing
//     the channel rel/rcv machinery — a worker's writes (deferred Done) are
//     ordered before the spawner's post-Wait reads. Done publishes to the
//     waiter only, so sibling workers of a loop fan-out that touch the same
//     location are still reported.
var RaceLockAnalyzer = &Analyzer{
	Name:      "racelock",
	Doc:       "lockset race detection for the goroutine-concurrent host packages (serve, runner, store, sweepd, benchgate)",
	SkipTests: true,
	Match:     matchRaceHost,
	Run:       runRaceLock,
}

// raceHostSuffixes are the goroutine-concurrent host packages in scope.
// Suffix matching makes fixture paths ("mpipart/internal/serve") and the
// real module resolve identically.
var raceHostSuffixes = []string{
	"internal/serve", "internal/runner", "internal/runner/store",
	"cmd/sweepd", "cmd/benchgate",
}

func matchRaceHost(pkgPath string) bool {
	for _, suf := range raceHostSuffixes {
		if pkgPath == suf || strings.HasSuffix(pkgPath, "/"+suf) {
			return true
		}
	}
	return false
}

// raceAccess is one access to an abstract location, as visible from the
// function whose summary holds it (possibly inherited from callees).
type raceAccess struct {
	loc   string
	write bool
	// locks is the canonical sorted lockset held at the access, including
	// pseudo-locks ("once:…") and locks inherited from callers at splice
	// time.
	locks []string
	// rel is the set of channel identities published after this access in
	// its function (close or send, source-order or deferred) — the write
	// side of the happens-before sanitizer.
	rel []string
	// rcv is the set of channel identities received before this access —
	// the read side of the sanitizer.
	rcv []string
	// pos/node anchor the original access site; anchor is the top-level
	// position inside the summarized function (the call site for inherited
	// accesses), used for after-spawn filtering.
	pos    token.Pos
	node   *FuncNode
	anchor token.Pos
	chain  []ChainStep
}

func (a raceAccess) key() string {
	kind := "r"
	if a.write {
		kind = "w"
	}
	return a.loc + "\x00" + kind + "\x00" + strings.Join(a.locks, "|") +
		"\x00" + strings.Join(a.rel, "|") + "\x00" + strings.Join(a.rcv, "|")
}

// raceChanEvt is one channel operation relevant to the happens-before
// sanitizer.
type raceChanEvt struct {
	id       string
	pos      token.Pos
	deferred bool
}

// raceCall is one call edge the access propagation follows.
type raceCall struct {
	pos     token.Pos
	locks   []string
	callees []*FuncNode
	// onceID, when set, is the pseudo-lock every spliced access acquires
	// (the call is a sync.Once.Do callback).
	onceID string
}

// raceFnInfo is the per-function substrate of the race check.
type raceFnInfo struct {
	accesses []raceAccess
	calls    []raceCall
	recvs    []raceChanEvt
	rels     []raceChanEvt
	// firstGo is the position of the first go statement (NoPos when none);
	// loopGo marks go statements inside loop bodies.
	firstGo token.Pos
	loopGo  bool
}

// raceRoot is one concurrent execution context.
type raceRoot struct {
	node *FuncNode
	// after filters the root's accesses to those anchored after this
	// position (the spawner's continuation root); NoPos keeps everything.
	after token.Pos
	multi bool
	// spawner is the node containing the go statement for spawned roots
	// (nil for handler and spawner-continuation roots).
	spawner *FuncNode
	desc    string
}

const (
	raceMaxSummary = 512
	raceMaxChain   = 6
)

// raceSyncType reports whether t is a sync synchronization primitive —
// those are protection, not data, and are excluded from the location set.
func raceSyncType(t types.Type) bool {
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok {
		return false
	}
	obj := named.Obj()
	if obj == nil || obj.Pkg() == nil || obj.Pkg().Path() != "sync" {
		return false
	}
	switch obj.Name() {
	case "Mutex", "RWMutex", "Once", "WaitGroup", "Cond":
		return true
	}
	return false
}

// raceIDOf resolves an expression to a stable identity: a package-level var
// ("pkg.var"), a field of a named type ("pkg.Type.field"), or a field of an
// anonymous-struct package var ("pkg.var.field"). Locals and parameters
// resolve to "".
func raceIDOf(node *FuncNode, e ast.Expr) string {
	info := node.Pkg.Info
	if info == nil {
		return ""
	}
	e = ast.Unparen(e)
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := info.Uses[x].(*types.Var)
		if !ok {
			return ""
		}
		if v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			v, ok := sel.Obj().(*types.Var)
			if !ok {
				return ""
			}
			owner := ""
			if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
				if n := baseTypeName(tv.Type); n != "?" {
					owner = n
				}
			}
			if owner != "" {
				pkgPath := node.PkgPath
				if v.Pkg() != nil {
					pkgPath = v.Pkg().Path()
				}
				return pkgPath + "." + owner + "." + v.Name()
			}
			// Anonymous-struct base: qualify by the base identity instead
			// (covers package vars like bench's catalog).
			if base := raceIDOf(node, x.X); base != "" {
				return base + "." + v.Name()
			}
			return ""
		}
		// Package-qualified var pkg.V (no Selection entry).
		if v, ok := info.Uses[x.Sel].(*types.Var); ok &&
			v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return v.Pkg().Path() + "." + v.Name()
		}
	}
	return ""
}

// raceLocOf is raceIDOf restricted to data locations: sync primitives are
// never data, and a field access only denotes shared memory when its base
// chain roots in a pointer, a reference container, or a package-level var —
// a field of a local struct VALUE is a private copy, not shared state.
func raceLocOf(node *FuncNode, e ast.Expr) string {
	id := raceIDOf(node, e)
	if id == "" {
		return ""
	}
	info := node.Pkg.Info
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Type != nil && raceSyncType(tv.Type) {
		return ""
	}
	if x, ok := e.(*ast.SelectorExpr); ok {
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal &&
			!raceSharedBase(node, x.X) {
			return ""
		}
	}
	return id
}

// raceSharedBase reports whether an access through e can reach memory
// visible to another goroutine: the chain roots in a pointer (at any hop), a
// map/slice element, or a package-level variable. A plain value local —
// including value receivers and value parameters — is a private copy.
func raceSharedBase(node *FuncNode, e ast.Expr) bool {
	info := node.Pkg.Info
	e = ast.Unparen(e)
	if tv, ok := info.Types[e]; ok && tv.Type != nil {
		if _, isPtr := tv.Type.Underlying().(*types.Pointer); isPtr {
			return true
		}
	}
	switch x := e.(type) {
	case *ast.Ident:
		v, ok := info.Uses[x].(*types.Var)
		return ok && v.Pkg() != nil && v.Parent() == v.Pkg().Scope()
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok && sel.Kind() == types.FieldVal {
			return raceSharedBase(node, x.X)
		}
		if v, ok := info.Uses[x.Sel].(*types.Var); ok &&
			v.Pkg() != nil && v.Parent() == v.Pkg().Scope() {
			return true
		}
	case *ast.StarExpr:
		return true
	case *ast.IndexExpr:
		if tv, ok := info.Types[x.X]; ok && tv.Type != nil {
			switch tv.Type.Underlying().(type) {
			case *types.Map, *types.Slice:
				return true
			}
		}
		return raceSharedBase(node, x.X)
	}
	return false
}

func raceIsChan(node *FuncNode, e ast.Expr) bool {
	info := node.Pkg.Info
	if info == nil {
		return false
	}
	if tv, ok := info.Types[ast.Unparen(e)]; ok && tv.Type != nil {
		_, isChan := tv.Type.Underlying().(*types.Chan)
		return isChan
	}
	return false
}

func raceIsOnce(node *FuncNode, e ast.Expr) bool {
	info := node.Pkg.Info
	if info == nil {
		return false
	}
	if tv, ok := info.Types[ast.Unparen(e)]; ok && tv.Type != nil {
		t := tv.Type
		if p, ok := t.(*types.Pointer); ok {
			t = p.Elem()
		}
		named, ok := t.(*types.Named)
		return ok && named.Obj() != nil && named.Obj().Pkg() != nil &&
			named.Obj().Pkg().Path() == "sync" && named.Obj().Name() == "Once"
	}
	return false
}

// raceWGIDOf resolves a sync.WaitGroup expression to a stable identity for
// the barrier sanitizer, "wg:<name>@<declpos>". Keying on the declaring
// *types.Var position (the FileSet is program-wide) makes a local WaitGroup
// captured by a spawned closure resolve to the same identity in the spawner
// (Wait) and the worker (deferred Done) — exactly the pair the barrier
// orders. Non-WaitGroup receivers resolve to "".
func raceWGIDOf(node *FuncNode, e ast.Expr) string {
	info := node.Pkg.Info
	if info == nil {
		return ""
	}
	var obj types.Object
	switch x := ast.Unparen(e).(type) {
	case *ast.Ident:
		obj = info.Uses[x]
	case *ast.SelectorExpr:
		if sel, ok := info.Selections[x]; ok {
			obj = sel.Obj()
		} else {
			obj = info.Uses[x.Sel]
		}
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return ""
	}
	t := v.Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	named, ok := t.(*types.Named)
	if !ok || named.Obj() == nil || named.Obj().Pkg() == nil ||
		named.Obj().Pkg().Path() != "sync" || named.Obj().Name() != "WaitGroup" {
		return ""
	}
	return fmt.Sprintf("wg:%s@%d", v.Name(), v.Pos())
}

// ---- per-function lockset dataflow + access collection ----

// raceLockFact is the must-held lockset at a program point.
type raceLockFact struct {
	top  bool
	held []string // sorted
}

func raceLockJoin(a, b raceLockFact) raceLockFact {
	if a.top {
		return b
	}
	if b.top {
		return a
	}
	var out []string
	i, j := 0, 0
	for i < len(a.held) && j < len(b.held) {
		switch {
		case a.held[i] == b.held[j]:
			out = append(out, a.held[i])
			i++
			j++
		case a.held[i] < b.held[j]:
			i++
		default:
			j++
		}
	}
	return raceLockFact{held: out}
}

func raceLockEqual(a, b raceLockFact) bool {
	if a.top != b.top || len(a.held) != len(b.held) {
		return false
	}
	for i := range a.held {
		if a.held[i] != b.held[i] {
			return false
		}
	}
	return true
}

func raceSortedInsert(held []string, id string) []string {
	i := sort.SearchStrings(held, id)
	if i < len(held) && held[i] == id {
		return held
	}
	out := make([]string, 0, len(held)+1)
	out = append(out, held[:i]...)
	out = append(out, id)
	return append(out, held[i:]...)
}

func raceSortedRemove(held []string, id string) []string {
	i := sort.SearchStrings(held, id)
	if i >= len(held) || held[i] != id {
		return held
	}
	out := make([]string, 0, len(held)-1)
	out = append(out, held[:i]...)
	return append(out, held[i+1:]...)
}

func raceUnion(a, b []string) []string {
	out := append([]string{}, a...)
	for _, id := range b {
		out = raceSortedInsert(out, id)
	}
	return out
}

func raceIntersects(a, b []string) bool {
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] == b[j]:
			return true
		case a[i] < b[j]:
			i++
		default:
			j++
		}
	}
	return false
}

// raceCtx carries the whole-program analysis state of one run.
type raceCtx struct {
	prog      *Program
	inScope   map[int]bool // node index -> in a host-concurrent package
	info      map[int]*raceFnInfo
	summaries map[int][]raceAccess
	litNode   map[*ast.FuncLit]*FuncNode
}

// raceScan computes the per-function info of node: accesses annotated with
// must-held locksets, outgoing in-scope call edges, channel events, and go
// statement positions.
func (cx *raceCtx) raceScan(node *FuncNode) *raceFnInfo {
	fi := &raceFnInfo{}
	body := node.Body()
	if body == nil {
		return fi
	}

	// Channel events and go statements in source order (FuncLit subtrees
	// belong to their own nodes).
	var chanWalk func(n ast.Node, inDefer bool)
	chanWalk = func(n ast.Node, inDefer bool) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch t := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.DeferStmt:
				chanWalk(t.Call, true)
				return false
			case *ast.GoStmt:
				if fi.firstGo == token.NoPos || t.Pos() < fi.firstGo {
					fi.firstGo = t.Pos()
				}
			case *ast.UnaryExpr:
				if t.Op == token.ARROW && raceIsChan(node, t.X) {
					if id := raceIDOf(node, t.X); id != "" {
						fi.recvs = append(fi.recvs, raceChanEvt{id: id, pos: t.Pos()})
					}
				}
			case *ast.SendStmt:
				if id := raceIDOf(node, t.Chan); id != "" {
					fi.rels = append(fi.rels, raceChanEvt{id: id, pos: t.Pos(), deferred: inDefer})
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(t.Fun).(*ast.Ident); ok && id.Name == "close" &&
					isBuiltin(node.Pkg.Info, id) && len(t.Args) == 1 {
					if cid := raceIDOf(node, t.Args[0]); cid != "" {
						fi.rels = append(fi.rels, raceChanEvt{id: cid, pos: t.Pos(), deferred: inDefer})
					}
				}
				// WaitGroup barrier: Done releases, Wait acquires.
				if sel, ok := t.Fun.(*ast.SelectorExpr); ok && len(t.Args) == 0 {
					switch sel.Sel.Name {
					case "Done":
						if id := raceWGIDOf(node, sel.X); id != "" {
							fi.rels = append(fi.rels, raceChanEvt{id: id, pos: t.Pos(), deferred: inDefer})
						}
					case "Wait":
						if id := raceWGIDOf(node, sel.X); id != "" {
							fi.recvs = append(fi.recvs, raceChanEvt{id: id, pos: t.Pos()})
						}
					}
				}
			}
			return true
		})
	}
	chanWalk(body, false)

	// Go statements inside loop bodies make the spawned goroutine
	// self-concurrent.
	var loopWalk func(n ast.Node, depth int)
	loopWalk = func(n ast.Node, depth int) {
		ast.Inspect(n, func(m ast.Node) bool {
			switch t := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.ForStmt:
				loopWalk(t.Body, depth+1)
				return false
			case *ast.RangeStmt:
				loopWalk(t.Body, depth+1)
				return false
			case *ast.GoStmt:
				if depth > 0 {
					fi.loopGo = true
				}
			}
			return true
		})
	}
	loopWalk(body, 0)

	// Must-held lockset dataflow over the CFG, then a replay pass that
	// interprets each block's nodes under its fixpoint in-fact.
	cfg := BuildCFG(body)
	transfer := func(blk *CFGBlock, in raceLockFact) raceLockFact {
		if in.top {
			return in
		}
		held := in.held
		for _, n := range blk.Nodes {
			held = cx.raceLockStep(node, n, held, nil)
		}
		return raceLockFact{held: held}
	}
	res := Solve(cfg, FlowProblem[raceLockFact]{
		Boundary: raceLockFact{},
		Init:     raceLockFact{top: true},
		Join:     raceLockJoin,
		Transfer: transfer,
		Equal:    raceLockEqual,
	})
	for _, blk := range cfg.Blocks {
		if !cfg.Reachable(blk) || res.In[blk.Index].top {
			continue
		}
		held := res.In[blk.Index].held
		for _, n := range blk.Nodes {
			held = cx.raceLockStep(node, n, held, fi)
		}
	}

	// Sanitizer annotation: each access learns which channel identities are
	// published after it and received before it.
	for i := range fi.accesses {
		a := &fi.accesses[i]
		a.rel = raceRelsAfter(fi.rels, a.pos)
		a.rcv = raceRecvsBefore(fi.recvs, a.pos)
	}
	sort.SliceStable(fi.calls, func(i, j int) bool { return fi.calls[i].pos < fi.calls[j].pos })
	return fi
}

func raceRelsAfter(rels []raceChanEvt, pos token.Pos) []string {
	var out []string
	for _, e := range rels {
		if e.deferred || e.pos > pos {
			out = raceSortedInsert(out, e.id)
		}
	}
	return out
}

func raceRecvsBefore(recvs []raceChanEvt, pos token.Pos) []string {
	var out []string
	for _, e := range recvs {
		if e.pos < pos {
			out = raceSortedInsert(out, e.id)
		}
	}
	return out
}

// raceLockStep interprets one CFG node: lock/unlock gen-kill, once.Do
// pseudo-locks, and — when fi is non-nil (the replay pass) — access and
// call-edge collection under the current lockset.
func (cx *raceCtx) raceLockStep(node *FuncNode, n ast.Node, held []string, fi *raceFnInfo) []string {
	// Lock events (skipped inside defers: a deferred Unlock releases at
	// exit, so the lock stays held for the rest of the body). A RangeStmt or
	// SelectStmt CFG node is just the header — body statements live in their
	// own blocks.
	for _, root := range raceNodeSpans(n) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch t := m.(type) {
			case *ast.FuncLit, *ast.DeferStmt:
				return false
			case *ast.CallExpr:
				sel, ok := t.Fun.(*ast.SelectorExpr)
				if !ok {
					return true
				}
				switch {
				case lockMethods[sel.Sel.Name]:
					if id := lockIdentOf(node, sel.X); id != "" {
						held = raceSortedInsert(held, id)
					}
				case unlockMethods[sel.Sel.Name]:
					if id := lockIdentOf(node, sel.X); id != "" {
						held = raceSortedRemove(held, id)
					}
				case sel.Sel.Name == "Do" && raceIsOnce(node, sel.X):
					if id := raceIDOf(node, sel.X); id != "" {
						onceID := "once:" + id
						if fi != nil && len(t.Args) == 1 {
							if cb := cx.raceFuncValue(node, t.Args[0]); cb != nil {
								fi.calls = append(fi.calls, raceCall{
									pos: t.Pos(), locks: append([]string{}, held...),
									callees: []*FuncNode{cb}, onceID: onceID,
								})
							}
						}
						// Everything after the Do observes the callback's
						// writes.
						held = raceSortedInsert(held, onceID)
					}
				}
			}
			return true
		})
	}
	if fi == nil {
		return held
	}
	cx.raceCollect(node, n, held, fi)
	return held
}

// raceNodeSpans returns the subtrees of a CFG node that actually belong to
// its block: RangeStmt and SelectStmt head nodes contribute only their
// header expressions (their bodies live in other blocks).
func raceNodeSpans(n ast.Node) []ast.Node {
	switch t := n.(type) {
	case *ast.RangeStmt:
		var roots []ast.Node
		for _, e := range []ast.Expr{t.Key, t.Value, t.X} {
			if e != nil {
				roots = append(roots, e)
			}
		}
		return roots
	case *ast.SelectStmt:
		return nil
	}
	return []ast.Node{n}
}

// raceFuncValue resolves a function-valued argument (literal, function
// identifier, or method value) to its in-program node.
func (cx *raceCtx) raceFuncValue(node *FuncNode, e ast.Expr) *FuncNode {
	e = ast.Unparen(e)
	info := node.Pkg.Info
	switch x := e.(type) {
	case *ast.FuncLit:
		return cx.litNode[x]
	case *ast.Ident:
		if f, ok := info.Uses[x].(*types.Func); ok {
			return cx.nodeForFunc(f)
		}
	case *ast.SelectorExpr:
		if f, ok := info.Uses[x.Sel].(*types.Func); ok {
			return cx.nodeForFunc(f)
		}
	}
	return nil
}

func (cx *raceCtx) nodeForFunc(f *types.Func) *FuncNode {
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
	return cx.prog.NodeByID(id)
}

// raceCollect records the shared-location accesses and in-scope call edges
// of one CFG node under the given lockset.
func (cx *raceCtx) raceCollect(node *FuncNode, n ast.Node, held []string, fi *raceFnInfo) {
	lockCopy := func() []string { return append([]string{}, held...) }
	addAccess := func(e ast.Expr, write bool) {
		loc := raceLocOf(node, e)
		if loc == "" {
			return
		}
		fi.accesses = append(fi.accesses, raceAccess{
			loc: loc, write: write,
			locks: lockCopy(),
			pos:   e.Pos(), anchor: e.Pos(), node: node,
		})
	}
	// readsIn walks an expression subtree recording reads of every shared
	// location mentioned (FuncLits excluded — separate nodes; composite
	// literal keys excluded — they are field names, not accesses).
	var readsIn func(root ast.Node)
	var writeTarget func(e ast.Expr)
	readsIn = func(root ast.Node) {
		if root == nil {
			return
		}
		ast.Inspect(root, func(m ast.Node) bool {
			switch t := m.(type) {
			case *ast.FuncLit:
				return false
			case *ast.KeyValueExpr:
				readsIn(t.Value)
				return false
			case *ast.Ident:
				addAccess(t, false)
			case *ast.SelectorExpr:
				addAccess(t, false)
				readsIn(t.X)
				return false
			case *ast.CallExpr:
				// delete(m, k) mutates its map argument.
				if id, ok := ast.Unparen(t.Fun).(*ast.Ident); ok && id.Name == "delete" &&
					isBuiltin(node.Pkg.Info, id) && len(t.Args) == 2 {
					writeTarget(t.Args[0])
					readsIn(t.Args[1])
					return false
				}
			}
			return true
		})
	}
	writeTarget = func(e ast.Expr) {
		e = ast.Unparen(e)
		switch t := e.(type) {
		case *ast.Ident:
			addAccess(t, true)
		case *ast.SelectorExpr:
			addAccess(t, true)
			readsIn(t.X)
		case *ast.IndexExpr:
			// m[k] = v mutates the container.
			writeTarget(t.X)
			readsIn(t.Index)
		case *ast.StarExpr:
			readsIn(t.X)
		default:
			readsIn(e)
		}
	}

	switch t := n.(type) {
	case *ast.AssignStmt:
		for _, lhs := range t.Lhs {
			writeTarget(lhs)
		}
		for _, rhs := range t.Rhs {
			readsIn(rhs)
		}
	case *ast.IncDecStmt:
		writeTarget(t.X)
	case *ast.SendStmt:
		readsIn(t.Chan)
		readsIn(t.Value)
	case *ast.RangeStmt:
		// Body statements live in their own blocks; only the header is ours.
		if t.Key != nil {
			writeTarget(t.Key)
		}
		if t.Value != nil {
			writeTarget(t.Value)
		}
		readsIn(t.X)
	case *ast.SelectStmt:
		// Clause bodies live in their own blocks.
	case *ast.GoStmt:
		readsIn(t.Call.Fun)
		for _, a := range t.Call.Args {
			readsIn(a)
		}
	case *ast.DeferStmt:
		readsIn(t.Call)
	default:
		readsIn(n)
	}

	// In-scope call edges under the current lockset. Spawned callees are
	// concurrent roots, not inherited work. Only the spans owned by this
	// block count — a RangeStmt head must not absorb its body's call sites.
	inSpan := func(pos token.Pos) bool {
		for _, root := range raceNodeSpans(n) {
			if pos >= root.Pos() && pos < root.End() {
				return true
			}
		}
		return false
	}
	for _, site := range node.Calls {
		if !inSpan(site.Pos) || site.Spawned {
			continue
		}
		var callees []*FuncNode
		for _, c := range site.Callees {
			if cx.inScope[c.index] && c.Body() != nil {
				callees = append(callees, c)
			}
		}
		if len(callees) > 0 {
			fi.calls = append(fi.calls, raceCall{pos: site.Pos, locks: lockCopy(), callees: callees})
		}
	}
}

// raceSummarize computes the bottom-up access summaries over the in-scope
// subgraph.
func (cx *raceCtx) raceSummarize() {
	for _, comp := range cx.prog.sccs {
		for changed := true; changed; {
			changed = false
			for _, vi := range comp {
				if !cx.inScope[vi] {
					continue
				}
				node := cx.prog.Nodes[vi]
				fi := cx.info[vi]
				seen := map[string]bool{}
				var sum []raceAccess
				add := func(a raceAccess) {
					if len(sum) >= raceMaxSummary || seen[a.key()] {
						return
					}
					seen[a.key()] = true
					sum = append(sum, a)
				}
				for _, a := range fi.accesses {
					add(a)
				}
				for _, call := range fi.calls {
					rel := raceRelsAfter(fi.rels, call.pos)
					rcv := raceRecvsBefore(fi.recvs, call.pos)
					for _, callee := range call.callees {
						for _, a := range cx.summaries[callee.index] {
							spliced := a
							spliced.locks = raceUnion(a.locks, call.locks)
							if call.onceID != "" {
								spliced.locks = raceSortedInsert(spliced.locks, call.onceID)
							}
							spliced.rel = raceUnion(a.rel, rel)
							spliced.rcv = raceUnion(a.rcv, rcv)
							spliced.anchor = call.pos
							if len(a.chain) < raceMaxChain {
								p := node.Pkg.Fset.Position(call.pos)
								spliced.chain = append([]ChainStep{{
									Func: callee.ShortName(), File: p.Filename, Line: p.Line, Col: p.Column,
								}}, a.chain...)
							}
							add(spliced)
						}
					}
				}
				if len(sum) != len(cx.summaries[vi]) {
					changed = true
				}
				cx.summaries[vi] = sum
			}
			if len(comp) == 1 {
				break // no recursion: one pass suffices
			}
		}
	}
}

// raceRoots enumerates the concurrent execution contexts.
func (cx *raceCtx) raceRoots() []raceRoot {
	var roots []raceRoot
	for _, node := range cx.prog.Nodes {
		if !cx.inScope[node.index] {
			continue
		}
		fi := cx.info[node.index]
		// Spawned goroutines. resolveCalls attributes a literal's body to the
		// enclosing function when the literal is a walk root, so `go
		// func(){...}()` records the literal AND its inner calls as spawned
		// sites. Only the literal becomes a root: the inner callees are
		// already summarized into it — with the literal's rel/rcv barrier
		// annotations — and a second, unannotated root for the same code
		// would defeat the WaitGroup sanitizer.
		var litSpans [][2]token.Pos
		if body := node.Body(); body != nil {
			ast.Inspect(body, func(m ast.Node) bool {
				if fl, ok := m.(*ast.FuncLit); ok {
					litSpans = append(litSpans, [2]token.Pos{fl.Pos(), fl.End()})
					return false
				}
				return true
			})
		}
		// Strictly inside: an immediately-invoked literal's own call site
		// shares the literal's position and must stay a root.
		inChildLit := func(pos token.Pos) bool {
			for _, sp := range litSpans {
				if pos > sp[0] && pos < sp[1] {
					return true
				}
			}
			return false
		}
		for _, site := range node.Calls {
			if !site.Spawned || inChildLit(site.Pos) {
				continue
			}
			for _, c := range site.Callees {
				if !cx.inScope[c.index] || c.Body() == nil {
					continue
				}
				p := node.Pkg.Fset.Position(site.Pos)
				roots = append(roots, raceRoot{
					node: c, multi: fi.loopGo, spawner: node,
					desc: fmt.Sprintf("goroutine spawned at %s:%d", p.Filename, p.Line),
				})
			}
		}
		// The spawner's continuation after its first go statement.
		if fi.firstGo != token.NoPos {
			roots = append(roots, raceRoot{
				node: node, after: fi.firstGo,
				desc: fmt.Sprintf("%s after its go statement", node.ShortName()),
			})
		}
		// HTTP handlers: self-concurrent (the server runs one goroutine per
		// connection).
		if node.Name == "ServeHTTP" && node.RecvName != "" {
			roots = append(roots, raceRoot{node: node, multi: true,
				desc: "HTTP handler " + node.ShortName()})
		}
		for _, site := range node.Calls {
			for _, ext := range site.External {
				if ext.PkgPath != "net/http" || (ext.Name != "HandleFunc" && ext.Name != "Handle") {
					continue
				}
				if len(site.Call.Args) != 2 {
					continue
				}
				if h := cx.raceFuncValue(node, site.Call.Args[1]); h != nil &&
					cx.inScope[h.index] && h.Body() != nil {
					roots = append(roots, raceRoot{node: h, multi: true,
						desc: "HTTP handler " + h.ShortName()})
				}
			}
		}
	}

	// Multiplicity closure: code reachable from a self-concurrent root is
	// itself self-concurrent, and so is anything it spawns.
	for changed := true; changed; {
		changed = false
		reach := map[int]bool{}
		var stack []*FuncNode
		for _, r := range roots {
			if r.multi && !reach[r.node.index] {
				reach[r.node.index] = true
				stack = append(stack, r.node)
			}
		}
		for len(stack) > 0 {
			n := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			for _, site := range n.Calls {
				if site.Spawned {
					continue
				}
				for _, c := range site.Callees {
					if cx.inScope[c.index] && !reach[c.index] {
						reach[c.index] = true
						stack = append(stack, c)
					}
				}
			}
		}
		for i := range roots {
			if roots[i].multi {
				continue
			}
			if reach[roots[i].node.index] ||
				(roots[i].spawner != nil && reach[roots[i].spawner.index]) {
				roots[i].multi = true
				changed = true
			}
		}
	}
	return roots
}

// raceAccessesOf returns the accesses a root performs (after-spawn filtered
// for spawner-continuation roots).
func (cx *raceCtx) raceAccessesOf(r raceRoot) []raceAccess {
	sum := cx.summaries[r.node.index]
	if r.after == token.NoPos {
		return sum
	}
	var out []raceAccess
	for _, a := range sum {
		if a.anchor > r.after {
			out = append(out, a)
		}
	}
	return out
}

// raceSanitizedPair reports whether the write/access pair is ordered by a
// channel publication protocol: the write is published on an identity the
// other side received, or both sides live in the function that runs the
// protocol (program order on each instance; cross-instance sharing is
// mediated by the publication).
func raceSanitizedPair(w, o raceAccess) bool {
	if raceIntersects(w.rel, o.rcv) {
		return true
	}
	// The same-function clause holds for channel publication only: a
	// WaitGroup Done publishes to the waiter, not to sibling workers, so a
	// wg: release cannot order two instances of the same function.
	for _, id := range w.rel {
		if !strings.HasPrefix(id, "wg:") && w.node == o.node {
			return true
		}
	}
	return false
}

type raceHit struct {
	root int
	acc  raceAccess
}

func runRaceLock(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	cx := &raceCtx{
		prog:      prog,
		inScope:   map[int]bool{},
		info:      map[int]*raceFnInfo{},
		summaries: map[int][]raceAccess{},
		litNode:   map[*ast.FuncLit]*FuncNode{},
	}
	for _, node := range prog.Nodes {
		if matchRaceHost(node.PkgPath) && node.Pkg.Info != nil {
			cx.inScope[node.index] = true
		}
		if node.Lit != nil {
			cx.litNode[node.Lit] = node
		}
	}
	for i := range prog.Nodes {
		if cx.inScope[i] {
			cx.info[i] = cx.raceScan(prog.Nodes[i])
		}
	}
	cx.raceSummarize()
	roots := cx.raceRoots()

	byLoc := map[string][]raceHit{}
	for ri, r := range roots {
		for _, a := range cx.raceAccessesOf(r) {
			byLoc[a.loc] = append(byLoc[a.loc], raceHit{root: ri, acc: a})
		}
	}
	locs := make([]string, 0, len(byLoc))
	for loc := range byLoc {
		locs = append(locs, loc)
	}
	sort.Strings(locs)

	for _, loc := range locs {
		hits := byLoc[loc]
		sort.SliceStable(hits, func(i, j int) bool {
			a, b := hits[i], hits[j]
			if a.acc.pos != b.acc.pos {
				return a.acc.pos < b.acc.pos
			}
			if a.acc.write != b.acc.write {
				return a.acc.write
			}
			return a.root < b.root
		})
		found := false
		for _, w := range hits {
			if !w.acc.write {
				continue
			}
			for _, o := range hits {
				if w.root == o.root && !roots[w.root].multi {
					continue
				}
				if raceIntersects(w.acc.locks, o.acc.locks) {
					continue
				}
				if raceSanitizedPair(w.acc, o.acc) {
					continue
				}
				if o.acc.write && raceSanitizedPair(o.acc, w.acc) {
					continue
				}
				cx.report(pass, loc, roots, w, o)
				found = true
				break
			}
			if found {
				break // one finding per location keeps the report readable
			}
		}
	}
}

func (cx *raceCtx) report(pass *Pass, loc string, roots []raceRoot, w, o raceHit) {
	// The pass owning the write's package reports; every pass computes the
	// same global result, so exactly one emits each finding.
	if w.acc.node.Pkg != pass.Pkg {
		return
	}
	kind := "read"
	if o.acc.write {
		kind = "write"
	}
	op := o.acc.node.Pkg.Fset.Position(o.acc.pos)
	lockDesc := "no lock held at the write"
	if len(w.acc.locks) > 0 {
		lockDesc = fmt.Sprintf("no common lock (write holds {%s}, other side holds {%s})",
			strings.Join(shortLocks(w.acc.locks), ","), strings.Join(shortLocks(o.acc.locks), ","))
	} else if len(o.acc.locks) > 0 {
		lockDesc = fmt.Sprintf("write is unlocked while the other side holds {%s}",
			strings.Join(shortLocks(o.acc.locks), ","))
	}
	pass.ReportfChain(w.acc.pos, w.acc.chain,
		"possible data race on %s: write in %s (%s) vs %s in %s at %s:%d (%s); %s",
		shortLock(loc), w.acc.node.ShortName(), roots[w.root].desc,
		kind, o.acc.node.ShortName(), op.Filename, op.Line, roots[o.root].desc,
		lockDesc)
}

func shortLocks(ids []string) []string {
	out := make([]string, len(ids))
	for i, id := range ids {
		out[i] = shortLock(id)
	}
	return out
}
