package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// DeadlockOrderAnalyzer builds a lock acquisition-order graph from the
// effect summaries — an edge A -> B whenever some function acquires B
// (directly or inside a callee) while holding A — and reports:
//
//  1. cycles in that graph (the classic ABBA inversion, including ones
//     only visible interprocedurally: f locks A then calls g, g locks B;
//     h locks B then calls k, k locks A);
//  2. calls carrying the Blocks effect (transitively reaching a
//     virtual-time parking primitive) made while holding a *kernel lock* —
//     a lock that sim-driven-package code also acquires. A parked Proc
//     holding such a lock stalls every other Proc that needs it, turning a
//     virtual-time wait into a real deadlock. (lockedawait reports the
//     sim-driven-package side of this; deadlockorder covers holders in any
//     package once the lock is shared with sim-driven code.)
//
// Both reports print the full call chain to the acquisition or the parking
// primitive.
var DeadlockOrderAnalyzer = &Analyzer{
	Name:      "deadlockorder",
	Doc:       "lock acquisition-order cycles and Blocks-effect calls while holding a lock shared with sim-driven code",
	SkipTests: true,
	Run:       runDeadlockOrder,
}

// lockEdge is one acquisition-order observation: while holding `held`, the
// function at pos acquires `acquired` (via callee when interprocedural).
type lockEdge struct {
	held     string
	acquired string
	pkg      *Package
	pos      token.Pos
	owner    *FuncNode
	via      *FuncNode // nil: direct acquisition
}

// lockOrderEdges computes the global acquisition-order edge set (memoized on
// the Program, deterministic: nodes in index order, statements in source
// order).
func (prog *Program) lockOrderEdges() []lockEdge {
	if prog.lockEdges != nil {
		return prog.lockEdges
	}
	edges := []lockEdge{}
	for _, node := range prog.Nodes {
		if node.Body() == nil {
			continue
		}
		prog.walkHeldLocks(node, func(held []string, site *CallSite, acq lockAcq, via *FuncNode) {
			for _, h := range held {
				if h == acq.id {
					continue // re-acquisition is a different bug class
				}
				pos := acq.pos
				if site != nil {
					pos = site.Pos
				}
				edges = append(edges, lockEdge{
					held: h, acquired: acq.id, pkg: node.Pkg, pos: pos, owner: node, via: via,
				})
			}
		}, nil)
	}
	prog.lockEdges = edges
	return edges
}

// walkHeldLocks walks node's body in source order maintaining the held-lock
// list (source order approximates control flow the same way lockedawait
// does). onAcquire fires for every direct or callee-summarized acquisition;
// onBlockingCall (optional) fires for every call site whose callee summary
// carries EffBlocks, with the currently-held locks.
func (prog *Program) walkHeldLocks(
	node *FuncNode,
	onAcquire func(held []string, site *CallSite, acq lockAcq, via *FuncNode),
	onBlockingCall func(held []string, site *CallSite, callee *FuncNode),
) {
	var held []string
	holdIdx := func(id string) int {
		for i, h := range held {
			if h == id {
				return i
			}
		}
		return -1
	}
	ast.Inspect(node.Body(), func(m ast.Node) bool {
		switch t := m.(type) {
		case *ast.FuncLit:
			return false // separate node, own walk
		case *ast.DeferStmt:
			// defer x.Unlock() releases at exit: the lock stays held for the
			// remainder of the walk, which is the point of the rule.
			return false
		case *ast.CallExpr:
			sel, ok := t.Fun.(*ast.SelectorExpr)
			if ok && (lockMethods[sel.Sel.Name] || unlockMethods[sel.Sel.Name]) {
				id := lockIdentOf(node, sel.X)
				if id == "" {
					return true
				}
				if lockMethods[sel.Sel.Name] {
					onAcquire(held, nil, lockAcq{id: id, pos: t.Pos()}, nil)
					if holdIdx(id) < 0 {
						held = append(held, id)
					}
				} else if i := holdIdx(id); i >= 0 {
					held = append(held[:i], held[i+1:]...)
				}
				return true
			}
			// A call site: consult callee summaries.
			site := prog.siteOf(node, t)
			if site == nil || site.Spawned {
				return true
			}
			for _, callee := range site.Callees {
				cs := prog.Summary(callee)
				for _, acq := range cs.Locks {
					onAcquire(held, site, lockAcq{id: acq.id, pos: site.Pos}, callee)
				}
				if onBlockingCall != nil && len(held) > 0 && cs.Effects.Has(EffBlocks) {
					onBlockingCall(held, site, callee)
				}
			}
			if onBlockingCall != nil && len(held) > 0 {
				for _, ext := range site.External {
					set, _ := classifyExternal(ext)
					if set.Has(EffBlocks) {
						onBlockingCall(held, site, nil)
					}
				}
			}
		}
		return true
	})
}

// kernelLocks returns the set of lock identities acquired anywhere by
// sim-driven-package code.
func (prog *Program) kernelLocks() map[string]bool {
	out := map[string]bool{}
	for _, node := range prog.Nodes {
		if !matchSimDriven(node.PkgPath) {
			continue
		}
		for _, acq := range prog.intrinsicsOf(node).locks {
			out[acq.id] = true
		}
	}
	return out
}

// cycleEdges returns the subset of edges participating in an
// acquisition-order cycle (an edge whose endpoints are in one strongly
// connected component of the order graph, including self-loops).
func cycleEdges(edges []lockEdge) []lockEdge {
	// Collect vertices.
	idx := map[string]int{}
	var names []string
	vertex := func(id string) int {
		if i, ok := idx[id]; ok {
			return i
		}
		idx[id] = len(names)
		names = append(names, id)
		return len(names) - 1
	}
	adj := map[int]map[int]bool{}
	for _, e := range edges {
		a, b := vertex(e.held), vertex(e.acquired)
		if adj[a] == nil {
			adj[a] = map[int]bool{}
		}
		adj[a][b] = true
	}
	n := len(names)
	// Tiny iterative Tarjan over the lock graph (lock counts are small).
	comp := make([]int, n)
	for i := range comp {
		comp[i] = -1
	}
	index := make([]int, n)
	low := make([]int, n)
	onStack := make([]bool, n)
	for i := range index {
		index[i] = -1
	}
	var stack []int
	next, ncomp := 0, 0
	type frame struct {
		v  int
		it []int
	}
	neighbors := func(v int) []int {
		var out []int
		for w := range adj[v] {
			out = append(out, w)
		}
		sort.Ints(out)
		return out
	}
	for root := 0; root < n; root++ {
		if index[root] != -1 {
			continue
		}
		frames := []frame{{v: root, it: neighbors(root)}}
		index[root], low[root] = next, next
		next++
		stack = append(stack, root)
		onStack[root] = true
		for len(frames) > 0 {
			f := &frames[len(frames)-1]
			if len(f.it) > 0 {
				w := f.it[0]
				f.it = f.it[1:]
				if index[w] == -1 {
					index[w], low[w] = next, next
					next++
					stack = append(stack, w)
					onStack[w] = true
					frames = append(frames, frame{v: w, it: neighbors(w)})
				} else if onStack[w] && index[w] < low[f.v] {
					low[f.v] = index[w]
				}
				continue
			}
			v := f.v
			frames = frames[:len(frames)-1]
			if len(frames) > 0 {
				p := frames[len(frames)-1].v
				if low[v] < low[p] {
					low[p] = low[v]
				}
			}
			if low[v] == index[v] {
				for {
					w := stack[len(stack)-1]
					stack = stack[:len(stack)-1]
					onStack[w] = false
					comp[w] = ncomp
					if w == v {
						break
					}
				}
				ncomp++
			}
		}
	}
	compSize := make([]int, ncomp)
	for _, c := range comp {
		compSize[c]++
	}
	var out []lockEdge
	for _, e := range edges {
		a, b := idx[e.held], idx[e.acquired]
		sameComp := comp[a] == comp[b]
		selfLoop := a == b && adj[a][a]
		if (sameComp && compSize[comp[a]] > 1) || selfLoop {
			out = append(out, e)
		}
	}
	return out
}

func runDeadlockOrder(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	// (1) Acquisition-order cycles: report each participating edge in the
	// package that contains it.
	for _, e := range cycleEdges(prog.lockOrderEdges()) {
		if e.pkg != pass.Pkg {
			continue
		}
		viaDesc := ""
		var chain []ChainStep
		if e.via != nil {
			viaDesc = " via " + e.via.ShortName()
			chain = lockChain(prog, e.owner, e.via, e.acquired, e.pos)
		}
		pass.ReportfChain(e.pos, chain,
			"lock order inversion: %s acquired%s while holding %s (cycle in the acquisition-order graph — reverse path exists)",
			shortLock(e.acquired), viaDesc, shortLock(e.held))
	}
	// (2) Blocks-effect calls while holding a kernel lock.
	kernel := prog.kernelLocks()
	if len(kernel) == 0 {
		return
	}
	for _, node := range prog.Nodes {
		if node.Pkg != pass.Pkg || node.Body() == nil {
			continue
		}
		if matchSimDriven(node.PkgPath) {
			continue // lockedawait owns the sim-driven side of this property
		}
		prog.walkHeldLocks(node, func([]string, *CallSite, lockAcq, *FuncNode) {},
			func(held []string, site *CallSite, callee *FuncNode) {
				for _, h := range held {
					if !kernel[h] {
						continue
					}
					var chain []ChainStep
					desc := "a virtual-time parking primitive"
					if callee != nil {
						chain = prog.chainFromSite(site, node, callee, EffBlocks)
						desc = callee.ShortName() + " (which transitively blocks)"
					}
					pass.ReportfChain(site.Pos, chain,
						"call of %s while holding kernel lock %s: a parked Proc holding it stalls the simulation",
						desc, shortLock(h))
					break
				}
			})
	}
}

// lockChain renders held-lock chain steps for an interprocedural
// acquisition: the call site, the callee, then the callee's own acquisition
// trail from its summary.
func lockChain(prog *Program, owner, callee *FuncNode, lockID string, pos token.Pos) []ChainStep {
	p := owner.Pkg.Fset.Position(pos)
	steps := []ChainStep{{Func: callee.ShortName(), File: p.Filename, Line: p.Line, Col: p.Column}}
	// Follow the via links of the callee's lock summaries.
	cur := callee
	for hop := 0; cur != nil && hop < 20; hop++ {
		var next *FuncNode
		for _, acq := range prog.Summary(cur).Locks {
			if acq.id != lockID {
				continue
			}
			ap := cur.Pkg.Fset.Position(acq.pos)
			if acq.via == nil {
				steps = append(steps, ChainStep{Desc: "Lock " + shortLock(lockID), File: ap.Filename, Line: ap.Line, Col: ap.Column})
				return steps
			}
			steps = append(steps, ChainStep{Func: acq.via.ShortName(), File: ap.Filename, Line: ap.Line, Col: ap.Column})
			next = acq.via
			break
		}
		cur = next
	}
	return steps
}

// shortLock trims the module path prefix from a lock identity for messages.
func shortLock(id string) string {
	if i := strings.LastIndex(id, "/"); i >= 0 {
		return id[i+1:]
	}
	return id
}
