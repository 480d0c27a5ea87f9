package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"io"
	"sort"
	"strings"
)

// The effect layer assigns every call-graph node a summary: a small lattice
// of behaviours (does this function, or anything it transitively calls,
// block on the virtual scheduler? allocate? read the wall clock? issue
// Pready/Parrived? acquire which locks?). Summaries are computed bottom-up
// over the SCC condensation, so cycles converge by construction, and each
// effect carries a witness — the call edge (or intrinsic site) through which
// it entered — from which diagnostics reconstruct the full call chain.

// Effect is one behaviour bit of the summary lattice.
type Effect uint16

const (
	// EffBlocks: transitively reaches a virtual-time parking primitive
	// (Proc.Wait/WaitUntil/Yield, Cond.Wait/WaitFor, Gate.Wait,
	// Counter.WaitAtLeast, Queue.Pop).
	EffBlocks Effect = 1 << iota
	// EffAllocates: fmt call, string concatenation, or closure literal —
	// the per-call allocation sources hotpathalloc polices. Amortized
	// append growth is tracked separately (EffAppendGrowth).
	EffAllocates
	// EffAppendGrowth: calls the append builtin (amortized reallocation).
	EffAppendGrowth
	// EffReadsWallClock: reaches time.Now/Since/Sleep/Timer/Ticker/...
	EffReadsWallClock
	// EffIssuesPready: reaches a partitioned-API Pready notification.
	EffIssuesPready
	// EffIssuesParrived: reaches a partitioned-API Parrived query.
	EffIssuesParrived
	// EffSpawnsGoroutine: contains a go statement.
	EffSpawnsGoroutine
	// EffChannelOps: sends, receives, selects, or declares a channel type.
	EffChannelOps
	// EffHostIO: reaches host-side I/O (os, io, bufio, log, net, impure fmt).
	EffHostIO
	// EffUsesSync: reaches a sync package primitive.
	EffUsesSync

	effSentinel
)

var effectNames = map[Effect]string{
	EffBlocks:          "Blocks",
	EffAllocates:       "Allocates",
	EffAppendGrowth:    "AppendGrowth",
	EffReadsWallClock:  "ReadsWallClock",
	EffIssuesPready:    "IssuesPready",
	EffIssuesParrived:  "IssuesParrived",
	EffSpawnsGoroutine: "SpawnsGoroutine",
	EffChannelOps:      "ChannelOps",
	EffHostIO:          "HostIO",
	EffUsesSync:        "UsesSync",
}

// EffectSet is a bitmask of Effects.
type EffectSet uint16

func (s EffectSet) Has(e Effect) bool { return s&EffectSet(e) != 0 }

// String renders the set in declaration order, "-" when empty.
func (s EffectSet) String() string {
	var parts []string
	for e := Effect(1); e < effSentinel; e <<= 1 {
		if s.Has(e) {
			parts = append(parts, effectNames[e])
		}
	}
	if len(parts) == 0 {
		return "-"
	}
	return strings.Join(parts, ",")
}

// witness records how an effect entered a function: at an intrinsic site
// (callee == nil, desc names the construct) or through a call edge.
type witness struct {
	pos    token.Pos
	callee *FuncNode // nil: intrinsic at pos
	desc   string    // intrinsic description ("time.Now", "go statement", ...)
}

// lockAcq is one (possibly transitive) lock acquisition in a summary.
type lockAcq struct {
	id  string // lock identity: "pkg.var" or "pkg.Type.field"
	pos token.Pos
	via *FuncNode // nil: acquired directly at pos
}

// intrinsics is the per-function local behaviour, before propagation.
type intrinsics struct {
	effects  EffectSet
	sites    map[Effect]witness
	locks    []lockAcq
	impurity []impureSite // kernel-purity-relevant constructs with positions
}

// impureSite is one host-side construct for kernelpurity's chain reports.
type impureSite struct {
	pos  token.Pos
	desc string
}

// Summary is the propagated (transitive) behaviour of one function.
type Summary struct {
	Effects EffectSet
	// Locks are the lock identities acquired directly or in callees.
	Locks []lockAcq

	witness map[Effect]witness
}

// simBlockingPrimitives seeds EffBlocks by identity: (receiver, method) of
// the internal/sim parking primitives. Matching is by package-path suffix so
// fixtures declaring pkgPath "mpipart/internal/..." and the real module
// resolve identically.
var simBlockingPrimitives = map[string]bool{
	"Proc.Wait": true, "Proc.WaitUntil": true, "Proc.Yield": true, "Proc.block": true,
	"Cond.Wait": true, "Cond.WaitFor": true,
	"Gate.Wait":           true,
	"Counter.WaitAtLeast": true,
	"Queue.Pop":           true,
}

// partNotifyMethods seeds EffIssuesPready/EffIssuesParrived by identity on
// internal/core request types.
var preadyMethods = map[string]bool{
	"SendRequest.Pready":    true,
	"Prequest.PreadyThread": true, "Prequest.PreadyWarp": true,
	"Prequest.PreadyBlock": true, "Prequest.PreadyBlockAggregated": true,
	"Prequest.KernelCopyRange": true, "Prequest.KernelCopyWholePartition": true,
}
var parrivedMethods = map[string]bool{
	"RecvRequest.Parrived": true,
}

// hostIOPackages are packages whose use marks EffHostIO (the transitive
// generalization of kernelpurity's host-only set).
var hostIOPackages = map[string]bool{
	"os": true, "io": true, "bufio": true, "log": true,
	"io/ioutil": true, "net": true,
}

// calleeKey renders "Recv.Name" (or bare "Name") for intrinsic-table lookup.
func calleeKey(recv, name string) string {
	if recv == "" {
		return name
	}
	return recv + "." + name
}

// isSimPkg reports whether path is the simulation-kernel package.
func isSimPkg(path string) bool { return strings.HasSuffix(path, "internal/sim") }

// isCorePkg reports whether path is the partitioned-API package.
func isCorePkg(path string) bool { return strings.HasSuffix(path, "internal/core") }

// classifyExternal returns intrinsic effects implied by calling ext.
func classifyExternal(ext ExtCallee) (EffectSet, string) {
	key := calleeKey(ext.RecvName, ext.Name)
	switch {
	case isSimPkg(ext.PkgPath) && simBlockingPrimitives[key]:
		return EffectSet(EffBlocks), "sim." + key
	case isCorePkg(ext.PkgPath) && preadyMethods[key]:
		return EffectSet(EffIssuesPready), "core." + key
	case isCorePkg(ext.PkgPath) && parrivedMethods[key]:
		return EffectSet(EffIssuesParrived), "core." + key
	case ext.PkgPath == "time" && bannedTimeIdents[ext.Name]:
		return EffectSet(EffReadsWallClock), "time." + ext.Name
	case ext.PkgPath == "fmt":
		set := EffectSet(EffAllocates)
		if impureFmt[ext.Name] {
			set |= EffectSet(EffHostIO)
		}
		return set, "fmt." + ext.Name
	case hostIOPackages[ext.PkgPath] || strings.HasPrefix(ext.PkgPath, "net/"):
		return EffectSet(EffHostIO), ext.PkgPath + "." + ext.Name
	case ext.PkgPath == "sync":
		return EffectSet(EffUsesSync), "sync." + key
	}
	return 0, ""
}

// classifyInProgram returns intrinsic effects a call edge to an in-program
// node carries by identity (the sim parking primitives park via channel
// operations internally, so their Blocks quality is seeded here, not
// derived from their bodies).
func classifyInProgram(n *FuncNode) (EffectSet, string) {
	key := calleeKey(n.RecvName, n.Name)
	switch {
	case isSimPkg(n.PkgPath) && simBlockingPrimitives[key]:
		return EffectSet(EffBlocks), "sim." + key
	case isCorePkg(n.PkgPath) && preadyMethods[key]:
		return EffectSet(EffIssuesPready), "core." + key
	case isCorePkg(n.PkgPath) && parrivedMethods[key]:
		return EffectSet(EffIssuesParrived), "core." + key
	}
	return 0, ""
}

// computeIntrinsics scans one node's body for local effect sources.
func (prog *Program) computeIntrinsics(node *FuncNode) intrinsics {
	in := intrinsics{sites: map[Effect]witness{}}
	body := node.Body()
	if body == nil {
		return in
	}
	add := func(e Effect, pos token.Pos, desc string) {
		if !in.effects.Has(e) {
			in.effects |= EffectSet(e)
			in.sites[e] = witness{pos: pos, desc: desc}
		}
	}
	impure := func(pos token.Pos, desc string) {
		in.impurity = append(in.impurity, impureSite{pos: pos, desc: desc})
	}
	info := node.Pkg.Info

	// Syntactic constructs (skip nested literals — they are their own nodes;
	// panic arguments are exempt from the allocation effects only).
	var walk func(root ast.Node, inPanic bool)
	walk = func(root ast.Node, inPanic bool) {
		ast.Inspect(root, func(m ast.Node) bool {
			switch t := m.(type) {
			case *ast.FuncLit:
				// Nested literals are their own nodes; defining one here is
				// itself an allocation (exempt inside panic arguments).
				if !inPanic {
					add(EffAllocates, t.Pos(), "closure literal")
				}
				return false
			case *ast.GoStmt:
				add(EffSpawnsGoroutine, t.Pos(), "go statement")
				impure(t.Pos(), "go statement")
			case *ast.SendStmt:
				add(EffChannelOps, t.Pos(), "channel send")
				impure(t.Pos(), "channel send")
			case *ast.UnaryExpr:
				if t.Op == token.ARROW {
					add(EffChannelOps, t.Pos(), "channel receive")
					impure(t.Pos(), "channel receive")
				}
			case *ast.SelectStmt:
				add(EffChannelOps, t.Pos(), "select statement")
				impure(t.Pos(), "select statement")
			case *ast.ChanType:
				add(EffChannelOps, t.Pos(), "channel type")
			case *ast.RangeStmt:
				if info != nil {
					if tv, ok := info.Types[t.X]; ok && tv.Type != nil {
						if _, isChan := tv.Type.Underlying().(*types.Chan); isChan {
							add(EffChannelOps, t.Pos(), "range over channel")
							impure(t.Pos(), "range over channel")
						}
					}
				}
			case *ast.BinaryExpr:
				if !inPanic && t.Op == token.ADD && isStringType(info, t.X) {
					add(EffAllocates, t.Pos(), "string concatenation")
				}
			case *ast.CallExpr:
				if id, ok := ast.Unparen(t.Fun).(*ast.Ident); ok {
					switch id.Name {
					case "panic":
						if isBuiltin(info, id) {
							for _, arg := range t.Args {
								walk(arg, true)
							}
							return false
						}
					case "append":
						if isBuiltin(info, id) && !inPanic {
							add(EffAppendGrowth, t.Pos(), "append")
						}
					}
				}
			}
			return true
		})
	}
	walk(body, false)

	// Call-derived intrinsics: external callees classified by identity, and
	// the well-known in-program primitives (sim waits, core notifications).
	for _, site := range node.Calls {
		if site.Spawned {
			continue
		}
		for _, ext := range site.External {
			set, desc := classifyExternal(ext)
			if set == 0 {
				continue
			}
			if site.InPanicArg {
				set &^= EffectSet(EffAllocates)
			}
			for e := Effect(1); e < effSentinel; e <<= 1 {
				if set.Has(e) {
					add(e, site.Pos, desc)
				}
			}
			if set.Has(EffHostIO) || set.Has(EffReadsWallClock) || set.Has(EffUsesSync) {
				impure(site.Pos, "call of "+desc)
			}
		}
		for _, callee := range site.Callees {
			set, desc := classifyInProgram(callee)
			for e := Effect(1); e < effSentinel; e <<= 1 {
				if set.Has(e) {
					add(e, site.Pos, desc)
				}
			}
		}
	}

	// Lock acquisitions, with typed identities.
	in.locks = directLockAcqs(node)
	if len(in.locks) > 0 {
		add(EffUsesSync, in.locks[0].pos, "sync lock")
		for _, l := range in.locks {
			impure(l.pos, "lock acquisition of "+l.id)
		}
	}
	return in
}

// isBuiltin reports whether id resolves to a builtin (or has no object at
// all, the syntactic fallback for untyped fixtures).
func isBuiltin(info *types.Info, id *ast.Ident) bool {
	if info == nil {
		return id.Obj == nil
	}
	if obj, ok := info.Uses[id]; ok {
		_, b := obj.(*types.Builtin)
		return b
	}
	return id.Obj == nil
}

// isStringType reports whether e is string-typed (type-informed, literal
// fallback).
func isStringType(info *types.Info, e ast.Expr) bool {
	if info != nil {
		if tv, ok := info.Types[e]; ok && tv.Type != nil {
			b, ok := tv.Type.Underlying().(*types.Basic)
			return ok && b.Info()&types.IsString != 0
		}
	}
	lit, ok := e.(*ast.BasicLit)
	return ok && lit.Kind == token.STRING
}

// lockIdentOf resolves the receiver expression of x.Lock() to a stable lock
// identity: a package-level var ("pkg.mu"), a struct field
// ("pkg.Type.mu", shared across instances), or a function-local var
// ("pkg.func.mu"). Returns "" when the receiver is not a sync lock.
func lockIdentOf(node *FuncNode, recv ast.Expr) string {
	info := node.Pkg.Info
	recv = ast.Unparen(recv)
	var obj types.Object
	switch r := recv.(type) {
	case *ast.Ident:
		if info != nil {
			obj = info.Uses[r]
		}
	case *ast.SelectorExpr:
		if info != nil {
			if sel, ok := info.Selections[r]; ok {
				obj = sel.Obj()
			} else {
				obj = info.Uses[r.Sel]
			}
		}
	}
	if obj == nil {
		// Syntactic fallback: name-based identity within the package.
		return node.PkgPath + "." + exprText(recv)
	}
	if !isSyncLockType(obj.Type()) {
		return ""
	}
	v, ok := obj.(*types.Var)
	if !ok {
		return ""
	}
	switch {
	case v.IsField():
		// Owner type name is not directly reachable from the field var;
		// qualify with the receiver expression's type when available.
		if sel, ok := recv.(*ast.SelectorExpr); ok && info != nil {
			if tv, ok := info.Types[sel.X]; ok && tv.Type != nil {
				return node.PkgPath + "." + baseTypeName(tv.Type) + "." + v.Name()
			}
		}
		return node.PkgPath + ".?." + v.Name()
	case v.Pkg() != nil && v.Parent() == v.Pkg().Scope():
		return v.Pkg().Path() + "." + v.Name()
	default:
		return node.PkgPath + "." + node.Name + "." + v.Name()
	}
}

// isSyncLockType reports whether t is sync.Mutex/sync.RWMutex (possibly via
// pointer).
func isSyncLockType(t types.Type) bool {
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
	return obj.Name() == "Mutex" || obj.Name() == "RWMutex"
}

// directLockAcqs collects the node's direct x.Lock()/x.RLock() calls.
func directLockAcqs(node *FuncNode) []lockAcq {
	var acqs []lockAcq
	body := node.Body()
	if body == nil {
		return nil
	}
	ast.Inspect(body, func(m ast.Node) bool {
		if _, ok := m.(*ast.FuncLit); ok && m != ast.Node(body) {
			return false
		}
		call, ok := m.(*ast.CallExpr)
		if !ok {
			return true
		}
		sel, ok := call.Fun.(*ast.SelectorExpr)
		if !ok || !lockMethods[sel.Sel.Name] {
			return true
		}
		if id := lockIdentOf(node, sel.X); id != "" {
			acqs = append(acqs, lockAcq{id: id, pos: call.Pos()})
		}
		return true
	})
	return acqs
}

// computeEffects runs the bottom-up summary pass over the SCC condensation.
func (prog *Program) computeEffects() {
	n := len(prog.Nodes)
	prog.intr = make([]intrinsics, n)
	prog.summaries = make([]Summary, n)
	for i, node := range prog.Nodes {
		prog.intr[i] = prog.computeIntrinsics(node)
		prog.summaries[i] = Summary{
			Effects: prog.intr[i].effects,
			witness: map[Effect]witness{},
		}
		for e, w := range prog.intr[i].sites {
			prog.summaries[i].witness[e] = w
		}
		for _, l := range prog.intr[i].locks {
			prog.summaries[i].Locks = append(prog.summaries[i].Locks, l)
		}
	}
	// SCCs are emitted callees-first; propagate in that order, iterating
	// within each SCC to a fixpoint.
	for _, comp := range prog.sccs {
		for changed := true; changed; {
			changed = false
			for _, vi := range comp {
				node := prog.Nodes[vi]
				s := &prog.summaries[vi]
				for _, site := range node.Calls {
					if site.Spawned {
						continue
					}
					for _, callee := range site.Callees {
						cs := &prog.summaries[callee.index]
						add := cs.Effects &^ s.Effects
						if site.InPanicArg {
							add &^= EffectSet(EffAllocates) | EffectSet(EffAppendGrowth)
						}
						if add != 0 {
							s.Effects |= add
							for e := Effect(1); e < effSentinel; e <<= 1 {
								if add.Has(e) {
									s.witness[e] = witness{pos: site.Pos, callee: callee}
								}
							}
							changed = true
						}
						for _, l := range cs.Locks {
							if !hasLock(s.Locks, l.id) {
								s.Locks = append(s.Locks, lockAcq{id: l.id, pos: site.Pos, via: callee})
								changed = true
							}
						}
					}
				}
			}
		}
	}
	for i := range prog.summaries {
		sort.Slice(prog.summaries[i].Locks, func(a, b int) bool {
			return prog.summaries[i].Locks[a].id < prog.summaries[i].Locks[b].id
		})
	}
}

func hasLock(acqs []lockAcq, id string) bool {
	for _, a := range acqs {
		if a.id == id {
			return true
		}
	}
	return false
}

// Summary returns the transitive summary of node.
func (prog *Program) Summary(node *FuncNode) *Summary { return &prog.summaries[node.index] }

// Intrinsics returns the local (non-transitive) behaviour of node.
func (prog *Program) intrinsicsOf(node *FuncNode) *intrinsics { return &prog.intr[node.index] }

// ChainStep is one hop of an effect's witness chain, outermost first.
type ChainStep struct {
	// Func is the callee entered at this step ("" for the final intrinsic
	// step, where Desc names the construct).
	Func string `json:"func,omitempty"`
	Desc string `json:"desc,omitempty"`
	File string `json:"file"`
	Line int    `json:"line"`
	Col  int    `json:"col"`
}

// Chain reconstructs the call chain through which node acquired effect,
// ending at the intrinsic site. Returns nil when node lacks the effect.
func (prog *Program) Chain(node *FuncNode, e Effect) []ChainStep {
	var steps []ChainStep
	for hop := 0; node != nil && hop < 20; hop++ {
		w, ok := prog.summaries[node.index].witness[e]
		if !ok {
			break
		}
		pos := node.Pkg.Fset.Position(w.pos)
		if w.callee == nil {
			steps = append(steps, ChainStep{Desc: w.desc, File: pos.Filename, Line: pos.Line, Col: pos.Column})
			return steps
		}
		steps = append(steps, ChainStep{Func: w.callee.ShortName(), File: pos.Filename, Line: pos.Line, Col: pos.Column})
		node = w.callee
	}
	return steps
}

// chainFromSite prepends the originating call site to callee's chain for
// effect e: the shape analyzers report ("call at L1 -> callee -> ... ->
// intrinsic").
func (prog *Program) chainFromSite(site *CallSite, owner *FuncNode, callee *FuncNode, e Effect) []ChainStep {
	pos := owner.Pkg.Fset.Position(site.Pos)
	steps := []ChainStep{{Func: callee.ShortName(), File: pos.Filename, Line: pos.Line, Col: pos.Column}}
	return append(steps, prog.Chain(callee, e)...)
}

// renderChain formats a chain for the text diagnostic form.
func renderChain(steps []ChainStep) string {
	if len(steps) == 0 {
		return ""
	}
	var b strings.Builder
	for i, s := range steps {
		if i > 0 {
			b.WriteString(" -> ")
		}
		if s.Func != "" {
			fmt.Fprintf(&b, "%s (%s:%d)", s.Func, s.File, s.Line)
		} else {
			fmt.Fprintf(&b, "%s (%s:%d)", s.Desc, s.File, s.Line)
		}
	}
	return b.String()
}

// WriteSummaries dumps the effect summaries of every node whose summary is
// non-empty, sorted by node ID — the cmd/mpivet -summary mode.
func (prog *Program) WriteSummaries(w io.Writer) error {
	nodes := make([]*FuncNode, len(prog.Nodes))
	copy(nodes, prog.Nodes)
	sort.Slice(nodes, func(i, j int) bool { return nodes[i].ID < nodes[j].ID })
	for _, n := range nodes {
		s := prog.Summary(n)
		if s.Effects == 0 && len(s.Locks) == 0 {
			continue
		}
		line := fmt.Sprintf("%-70s %s", n.ID, s.Effects)
		if len(s.Locks) > 0 {
			ids := make([]string, len(s.Locks))
			for i, l := range s.Locks {
				ids[i] = l.id
			}
			line += " Locks{" + strings.Join(ids, ",") + "}"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	return nil
}
