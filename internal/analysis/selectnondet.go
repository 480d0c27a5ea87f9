package analysis

import (
	"go/ast"
)

// selectnondet flags `select` statements with two or more communication
// cases inside sim-driven packages. The Go runtime picks among ready select
// cases uniformly at random, so a multi-ready select inside code that the
// virtual-time kernel drives injects real-time nondeterminism the golden
// gate cannot pin down. Simulated actors must multiplex through deterministic sim
// primitives (Queue, Cond, Gate) instead.
//
// The check is CFG-based: only selects in reachable blocks are reported, so
// a select parked behind a `return` or an always-false guard (dead migration
// scaffolding) does not fire.
var SelectNondetAnalyzer = &Analyzer{
	Name:      "selectnondet",
	Doc:       "forbid multi-ready select in sim-driven packages (runtime picks ready cases at random)",
	SkipTests: true,
	Match:     matchSimDriven,
	Run:       runSelectNondet,
}

func runSelectNondet(pass *Pass) {
	prog := pass.Prog
	if prog == nil {
		return
	}
	for _, node := range prog.Nodes {
		if node.Pkg != pass.Pkg || node.Body() == nil {
			continue
		}
		cfg := BuildCFG(node.Body())
		for _, blk := range cfg.Blocks {
			if !cfg.Reachable(blk) {
				continue
			}
			for _, n := range blk.Nodes {
				sel, ok := n.(*ast.SelectStmt)
				if !ok {
					continue
				}
				comms := 0
				hasDefault := false
				for _, cc := range sel.Body.List {
					clause, ok := cc.(*ast.CommClause)
					if !ok {
						continue
					}
					if clause.Comm == nil {
						hasDefault = true
					} else {
						comms++
					}
				}
				if comms < 2 {
					continue
				}
				detail := ""
				if hasDefault {
					detail = " (plus default)"
				}
				pass.Reportf(sel.Pos(),
					"select with %d communication cases%s in sim-driven package %s: the runtime picks among ready cases at random; multiplex through deterministic sim primitives (Queue, Cond, Gate) instead",
					comms, detail, pass.Pkg.Path)
			}
		}
	}
}
