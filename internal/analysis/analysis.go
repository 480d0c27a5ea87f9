// Package analysis is mpivet: a stdlib-only static-analysis suite for this
// repository. It exists because the reproduction stands on invariants the Go
// compiler cannot see — all simulated code must charge time only through the
// virtual clock in internal/sim, kernel bodies must stay pure device code,
// and users of the partitioned API must follow the MPI state machine the
// paper specifies. Each invariant is an Analyzer; the suite runs from
// cmd/mpivet and from TestMpivetClean so violations fail go test ./...
//
// Suppression: a finding on line N of a file is suppressed by a comment
//
//	//lint:ignore mpivet/<rule> <reason>
//
// placed on line N or on line N-1. The reason is mandatory; a directive
// without one is itself reported (rule "lint-directive").
package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/token"
	"io"
	"regexp"
	"sort"
	"strings"
	"time"
)

// Diagnostic is one finding, addressed by file:line:col. Interprocedural
// findings carry the call chain from the reported site down to the
// intrinsic construct that justifies them.
type Diagnostic struct {
	Rule    string      `json:"rule"`
	File    string      `json:"file"`
	Line    int         `json:"line"`
	Col     int         `json:"col"`
	Message string      `json:"message"`
	Chain   []ChainStep `json:"chain,omitempty"`
}

func (d Diagnostic) String() string {
	s := fmt.Sprintf("%s:%d:%d: %s [mpivet/%s]", d.File, d.Line, d.Col, d.Message, d.Rule)
	if len(d.Chain) > 0 {
		s += "\n\tchain: " + renderChain(d.Chain)
	}
	return s
}

// equal reports whether two diagnostics are identical, chains included.
func (d Diagnostic) equal(o Diagnostic) bool {
	if d.Rule != o.Rule || d.File != o.File || d.Line != o.Line ||
		d.Col != o.Col || d.Message != o.Message || len(d.Chain) != len(o.Chain) {
		return false
	}
	for i := range d.Chain {
		if d.Chain[i] != o.Chain[i] {
			return false
		}
	}
	return true
}

// Analyzer is one rule of the suite.
type Analyzer struct {
	// Name is the rule slug used in output and suppression directives.
	Name string
	// Doc is a one-line description.
	Doc string
	// SkipTests excludes _test.go files from this rule (tests deliberately
	// exercise API misuse, so ordering rules must not see them).
	SkipTests bool
	// Match restricts the rule to packages for which it returns true; nil
	// means every package.
	Match func(pkgPath string) bool
	// Run analyzes one package.
	Run func(pass *Pass)
}

// Pass is the per-(analyzer, package) analysis context handed to Run.
type Pass struct {
	Analyzer *Analyzer
	Pkg      *Package
	// Prog is the whole-program call graph + effect/taint summaries over
	// every package of this Run (shared across passes).
	Prog  *Program
	diags *[]Diagnostic
}

// Files yields the package files this pass should inspect (honouring
// SkipTests).
func (p *Pass) Files() []*File {
	if !p.Analyzer.SkipTests {
		return p.Pkg.Files
	}
	var fs []*File
	for _, f := range p.Pkg.Files {
		if !f.Test {
			fs = append(fs, f)
		}
	}
	return fs
}

// Reportf records a diagnostic at pos unless a suppression directive covers
// it.
func (p *Pass) Reportf(pos token.Pos, format string, args ...interface{}) {
	p.ReportfChain(pos, nil, format, args...)
}

// ReportfChain records a diagnostic carrying an interprocedural call chain.
func (p *Pass) ReportfChain(pos token.Pos, chain []ChainStep, format string, args ...interface{}) {
	position := p.Pkg.Fset.Position(pos)
	if p.Pkg.suppressed(position.Filename, position.Line, p.Analyzer.Name) {
		return
	}
	*p.diags = append(*p.diags, Diagnostic{
		Rule:    p.Analyzer.Name,
		File:    position.Filename,
		Line:    position.Line,
		Col:     position.Column,
		Message: fmt.Sprintf(format, args...),
		Chain:   chain,
	})
}

// Analyzers returns the full suite in stable order.
func Analyzers() []*Analyzer {
	return []*Analyzer{
		SimclockAnalyzer,
		KernelPurityAnalyzer,
		PartitionedFlowAnalyzer,
		LockedAwaitAnalyzer,
		DeadlockOrderAnalyzer,
		ErrcheckAnalyzer,
		ExhaustiveAnalyzer,
		HotPathAllocAnalyzer,
		MapOrderAnalyzer,
		FloatOrderAnalyzer,
		SelectNondetAnalyzer,
		RaceLockAnalyzer,
		TaskStateAnalyzer,
	}
}

// AnalyzerByName returns the named analyzer, or nil.
func AnalyzerByName(name string) *Analyzer {
	for _, a := range Analyzers() {
		if a.Name == name {
			return a
		}
	}
	return nil
}

// ignoreRe matches the suppression directive; group 1 is the rule, group 2
// the (possibly empty) reason.
var ignoreRe = regexp.MustCompile(`^//\s*lint:ignore\s+mpivet/([a-z0-9-]+)\s*(.*)$`)

// suppression is one parsed directive.
type suppression struct {
	file   string
	line   int
	rule   string
	reason string
	pos    token.Pos
}

// Options tunes a Run.
type Options struct {
	// StrictIgnores additionally reports well-formed //lint:ignore
	// directives that no longer suppress anything (rule "stale-ignore").
	// Only directives naming an analyzer that actually ran are considered,
	// so partial -rules runs never mark live suppressions stale.
	StrictIgnores bool
}

// Run executes the given analyzers over the packages and returns the merged,
// deduplicated, position-sorted diagnostics. Malformed suppression
// directives (no reason) are reported under rule "lint-directive".
func Run(analyzers []*Analyzer, pkgs []*Package) []Diagnostic {
	return RunWith(analyzers, pkgs, Options{})
}

// RunWith is Run with explicit Options.
func RunWith(analyzers []*Analyzer, pkgs []*Package, opts Options) []Diagnostic {
	diags, _ := RunTimed(analyzers, pkgs, opts)
	return diags
}

// RuleTiming is one analyzer's aggregate wall time across all packages of a
// Run (plus the shared "(callgraph)" program-construction entry). Timings
// are measurement, not analysis output: they vary run to run and are kept
// out of the deterministic finding stream.
type RuleTiming struct {
	Rule   string  `json:"rule"`
	Millis float64 `json:"millis"`
}

// RunTimed is RunWith, additionally returning per-analyzer wall-time in the
// analyzer order given (program construction first).
func RunTimed(analyzers []*Analyzer, pkgs []*Package, opts Options) ([]Diagnostic, []RuleTiming) {
	var diags []Diagnostic
	t0 := time.Now()
	prog := BuildProgram(pkgs)
	timings := []RuleTiming{{Rule: "(callgraph)", Millis: msSince(t0)}}
	spent := map[string]float64{}
	ran := map[string]bool{}
	for _, a := range analyzers {
		ran[a.Name] = true
	}
	for _, pkg := range pkgs {
		for _, s := range pkg.supps {
			if s.reason == "" {
				diags = append(diags, Diagnostic{
					Rule:    "lint-directive",
					File:    s.file,
					Line:    s.line,
					Col:     pkg.Fset.Position(s.pos).Column,
					Message: fmt.Sprintf("lint:ignore mpivet/%s needs a reason", s.rule),
				})
			}
		}
		for _, a := range analyzers {
			if a.Match != nil && !a.Match(pkg.Path) {
				continue
			}
			pass := &Pass{Analyzer: a, Pkg: pkg, Prog: prog, diags: &diags}
			ta := time.Now()
			a.Run(pass)
			spent[a.Name] += msSince(ta)
		}
	}
	for _, a := range analyzers {
		timings = append(timings, RuleTiming{Rule: a.Name, Millis: spent[a.Name]})
	}
	if opts.StrictIgnores {
		for _, pkg := range pkgs {
			for i, s := range pkg.supps {
				if s.reason == "" || !ran[s.rule] || pkg.usedSupps[i] {
					continue
				}
				diags = append(diags, Diagnostic{
					Rule:    "stale-ignore",
					File:    s.file,
					Line:    s.line,
					Col:     pkg.Fset.Position(s.pos).Column,
					Message: fmt.Sprintf("stale suppression: mpivet/%s no longer reports anything on this line; delete the directive", s.rule),
				})
			}
		}
	}
	return dedupe(diags), timings
}

func msSince(t0 time.Time) float64 {
	return float64(time.Since(t0)) / float64(time.Millisecond)
}

// WriteTimings prints a per-analyzer wall-time table.
func WriteTimings(w io.Writer, timings []RuleTiming) error {
	for _, t := range timings {
		if _, err := fmt.Fprintf(w, "%-18s %9.1f ms\n", t.Rule, t.Millis); err != nil {
			return err
		}
	}
	return nil
}

// dedupe removes identical findings (nested kernel closures can be reached
// twice) and sorts by (file, line, analyzer) — the deterministic order the
// byte-identical-output guarantee rests on — with column and message as
// final tiebreakers.
func dedupe(diags []Diagnostic) []Diagnostic {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.File != b.File {
			return a.File < b.File
		}
		if a.Line != b.Line {
			return a.Line < b.Line
		}
		if a.Rule != b.Rule {
			return a.Rule < b.Rule
		}
		if a.Col != b.Col {
			return a.Col < b.Col
		}
		return a.Message < b.Message
	})
	out := diags[:0]
	for i, d := range diags {
		if i > 0 && d.equal(diags[i-1]) {
			continue
		}
		out = append(out, d)
	}
	return out
}

// WriteText prints diagnostics in the conventional file:line:col format.
func WriteText(w io.Writer, diags []Diagnostic) error {
	for _, d := range diags {
		if _, err := fmt.Fprintln(w, d.String()); err != nil {
			return err
		}
	}
	return nil
}

// jsonReport is the machine-readable output envelope of cmd/mpivet -json.
// Timings appear only under -timing: the plain report stays byte-identical
// across runs.
type jsonReport struct {
	Findings []Diagnostic `json:"findings"`
	Count    int          `json:"count"`
	Timings  []RuleTiming `json:"timings,omitempty"`
}

// WriteJSON prints diagnostics as a JSON report object.
func WriteJSON(w io.Writer, diags []Diagnostic) error {
	return WriteJSONTimed(w, diags, nil)
}

// WriteJSONTimed is WriteJSON with an optional timing section.
func WriteJSONTimed(w io.Writer, diags []Diagnostic, timings []RuleTiming) error {
	if diags == nil {
		diags = []Diagnostic{}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(jsonReport{Findings: diags, Count: len(diags), Timings: timings})
}

// ---- shared AST helpers used by several analyzers ----

// importName returns the local name under which file imports path
// ("" if it does not, "." for dot imports).
func importName(f *ast.File, path string) (string, bool) {
	for _, imp := range f.Imports {
		p := strings.Trim(imp.Path.Value, `"`)
		if p != path {
			continue
		}
		if imp.Name != nil {
			return imp.Name.Name, true
		}
		base := p
		if i := strings.LastIndex(p, "/"); i >= 0 {
			base = p[i+1:]
		}
		return base, true
	}
	return "", false
}

// isPkgSel reports whether e is a selector pkgName.sel where pkgName is a
// bare identifier (heuristically a package reference: not declared locally
// in the file's scope chain is approximated by Obj == nil after parsing).
func isPkgSel(e ast.Expr, pkgName string) (sel string, ok bool) {
	s, isSel := e.(*ast.SelectorExpr)
	if !isSel {
		return "", false
	}
	id, isIdent := s.X.(*ast.Ident)
	if !isIdent || id.Name != pkgName || id.Obj != nil {
		return "", false
	}
	return s.Sel.Name, true
}

// calleeName returns the rightmost name of a call's callee: f() -> "f",
// x.m() -> "m", pkg.F() -> "F". Empty for exotic callees.
func calleeName(call *ast.CallExpr) string {
	switch fn := call.Fun.(type) {
	case *ast.Ident:
		return fn.Name
	case *ast.SelectorExpr:
		return fn.Sel.Name
	}
	return ""
}

// recvIdent returns the receiver identifier of a method call x.m(...), or
// nil when the callee is not ident.method.
func recvIdent(call *ast.CallExpr) *ast.Ident {
	sel, ok := call.Fun.(*ast.SelectorExpr)
	if !ok {
		return nil
	}
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return nil
	}
	return id
}

// intLit returns the value of an integer literal expression (possibly
// negated), with ok=false for anything else.
func intLit(e ast.Expr) (int, bool) {
	neg := false
	if u, ok := e.(*ast.UnaryExpr); ok && u.Op == token.SUB {
		neg = true
		e = u.X
	}
	bl, ok := e.(*ast.BasicLit)
	if !ok || bl.Kind != token.INT {
		return 0, false
	}
	var v int
	if _, err := fmt.Sscanf(bl.Value, "%d", &v); err != nil {
		return 0, false
	}
	if neg {
		v = -v
	}
	return v, true
}

// exprText renders a short description of a simple expression for messages.
func exprText(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.Ident:
		return t.Name
	case *ast.SelectorExpr:
		return exprText(t.X) + "." + t.Sel.Name
	}
	return "expr"
}

// usesIdent reports whether name appears as an identifier anywhere in n.
func usesIdent(n ast.Node, name string) bool {
	found := false
	ast.Inspect(n, func(m ast.Node) bool {
		if id, ok := m.(*ast.Ident); ok && id.Name == name {
			found = true
		}
		return !found
	})
	return found
}
