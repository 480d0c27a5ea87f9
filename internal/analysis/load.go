package analysis

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"sync"
)

// File is one parsed source file of a Package.
type File struct {
	Name string // base file name
	Path string // path as shown in diagnostics
	Ast  *ast.File
	Test bool // _test.go file (excluded from type-checking)
}

// Package is one loaded, parsed and (for non-test files) type-checked
// package. Type information is best-effort: analyzers degrade to syntactic
// checks where Info has no entry for a node.
type Package struct {
	Path  string // import path, e.g. mpipart/internal/core
	Dir   string // directory, "" for in-memory fixture packages
	Fset  *token.FileSet
	Files []*File

	// Types and Info describe the non-test files. Info is never nil, but
	// lookups can miss when type-checking was partial.
	Types *types.Package
	Info  *types.Info
	// TypeErrors collects (non-fatal) type-checker complaints about the
	// package's own code. An import that resolves nowhere is a load error
	// instead.
	TypeErrors []error

	supps []suppression
	// usedSupps marks directives (by index into supps) that suppressed at
	// least one finding this run; -strict-ignores reports the rest as stale.
	usedSupps map[int]bool
}

// suppressed reports whether rule is suppressed at file:line: a well-formed
// directive on the same line or the line above covers it. Matches are
// recorded so stale directives can be detected.
func (p *Package) suppressed(file string, line int, rule string) bool {
	for i, s := range p.supps {
		if s.rule != rule || s.reason == "" || s.file != file {
			continue
		}
		if s.line == line || s.line == line-1 {
			if p.usedSupps == nil {
				p.usedSupps = map[int]bool{}
			}
			p.usedSupps[i] = true
			return true
		}
	}
	return false
}

// Loader loads the packages of a module for analysis. Module packages are
// parsed and type-checked from source, once each; every other import (the
// standard library, and module packages a LoadSource fixture imports) is
// read from the export data `go list -export` leaves in the build cache.
type Loader struct {
	ModuleRoot string
	Fset       *token.FileSet

	// checked holds the packages type-checked from source (Load's module
	// packages, LoadSource fixtures) by import path; they answer every
	// later import of their path.
	checked map[string]*types.Package
	// exports maps import paths to export data files, from the go list
	// runs this loader has used.
	exports map[string]string
	gc      types.Importer
	// importErr is the first import the type checker could not resolve
	// during the current check.
	importErr error
}

// NewLoader creates a loader for the module rooted at root (the directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	l := &Loader{
		ModuleRoot: abs,
		Fset:       token.NewFileSet(),
		checked:    map[string]*types.Package{},
		exports:    map[string]string{},
	}
	l.gc = importer.ForCompiler(l.Fset, "gc", l.lookup)
	return l, nil
}

// listedPackage is the part of `go list -json` output the loader reads.
type listedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	Standard     bool
	DepOnly      bool
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
}

// listing is one `go list -export -deps -json` run: the packages in
// dependency order (every package after its imports).
type listing struct {
	pkgs []*listedPackage
	err  error
}

// listings caches go list runs by module root and patterns, so the loaders
// of one process (mpivet's, every fixture test's) share one listing of the
// module and its dependencies.
var listings struct {
	sync.Mutex
	runs map[string]*listing
}

// goList runs `go list -export -deps -json` on patterns from root, once per
// process. A failing go list is an error carrying its stderr.
func goList(root string, patterns ...string) *listing {
	key := root + "\x00" + strings.Join(patterns, "\x00")
	listings.Lock()
	defer listings.Unlock()
	if ls, ok := listings.runs[key]; ok {
		return ls
	}
	ls := &listing{}
	args := append([]string{"list", "-export", "-deps",
		"-json=ImportPath,Dir,Export,Standard,DepOnly,GoFiles,TestGoFiles,XTestGoFiles", "--"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = root
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		ls.err = fmt.Errorf("go list %s: %v\n%s", strings.Join(patterns, " "), err, strings.TrimSpace(stderr.String()))
	}
	for dec := json.NewDecoder(bytes.NewReader(out)); ls.err == nil; {
		p := new(listedPackage)
		if err := dec.Decode(p); err == io.EOF {
			break
		} else if err != nil {
			ls.err = fmt.Errorf("go list %s: %v", strings.Join(patterns, " "), err)
			break
		}
		ls.pkgs = append(ls.pkgs, p)
	}
	if listings.runs == nil {
		listings.runs = map[string]*listing{}
	}
	listings.runs[key] = ls
	return ls
}

// merge records the export data files of a listing.
func (l *Loader) merge(ls *listing) error {
	for _, p := range ls.pkgs {
		if p.Export != "" {
			l.exports[p.ImportPath] = p.Export
		}
	}
	return ls.err
}

// Load resolves go list patterns ("./...", "./internal/sim", a directory),
// relative to the module root, to packages sorted by import path. Every
// file go list reports for a package is parsed, test files included; the
// non-test files are type-checked in go list's dependency order. Module
// packages the patterns only depend on are checked too, so no package is
// seen both from source and from export data, but they are not returned.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	ls := goList(l.ModuleRoot, patterns...)
	if err := l.merge(ls); err != nil {
		return nil, err
	}
	var pkgs []*Package
	for _, lp := range ls.pkgs {
		if lp.Standard {
			continue
		}
		pkg := &Package{Path: lp.ImportPath, Dir: lp.Dir, Fset: l.Fset}
		names := slices.Concat(lp.GoFiles, lp.TestGoFiles, lp.XTestGoFiles)
		sort.Strings(names)
		for _, name := range names {
			path := filepath.Join(lp.Dir, name)
			src, err := os.ReadFile(path)
			if err != nil {
				return nil, err
			}
			if err := l.addFile(pkg, name, shortPath(l.ModuleRoot, path), src); err != nil {
				return nil, err
			}
		}
		if err := l.check(pkg); err != nil {
			return nil, err
		}
		if !lp.DepOnly {
			pkgs = append(pkgs, pkg)
		}
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

// LoadSource builds a package from in-memory sources (fixture tests). The
// map key is the file name; diagnostics use it verbatim. The package
// answers later imports of pkgPath, so one fixture package can import
// another (load the imported package first); reloading a path replaces it.
func (l *Loader) LoadSource(pkgPath string, files map[string]string) (*Package, error) {
	pkg := &Package{Path: pkgPath, Fset: l.Fset}
	names := make([]string, 0, len(files))
	for name := range files {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		if err := l.addFile(pkg, name, name, []byte(files[name])); err != nil {
			return nil, err
		}
	}
	if err := l.check(pkg); err != nil {
		return nil, err
	}
	return pkg, nil
}

func (l *Loader) addFile(pkg *Package, name, shown string, src []byte) error {
	f, err := parser.ParseFile(l.Fset, shown, src, parser.ParseComments)
	if err != nil {
		return err
	}
	file := &File{Name: name, Path: shown, Ast: f, Test: strings.HasSuffix(name, "_test.go")}
	pkg.Files = append(pkg.Files, file)
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			m := ignoreRe.FindStringSubmatch(c.Text)
			if m == nil {
				continue
			}
			pos := l.Fset.Position(c.Pos())
			pkg.supps = append(pkg.supps, suppression{
				file:   pos.Filename,
				line:   pos.Line,
				rule:   m[1],
				reason: strings.TrimSpace(m[2]),
				pos:    c.Pos(),
			})
		}
	}
	return nil
}

// check type-checks the package's non-test files and registers the result
// under its path. An unresolvable import fails the check.
func (l *Loader) check(pkg *Package) error {
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	delete(l.checked, pkg.Path)
	var files []*ast.File
	for _, f := range pkg.Files {
		if !f.Test {
			files = append(files, f.Ast)
		}
	}
	if len(files) == 0 {
		return nil
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	l.importErr = nil
	pkg.Types, _ = conf.Check(pkg.Path, l.Fset, files, pkg.Info) // errors collected via hook
	if l.importErr != nil {
		return fmt.Errorf("analysis: %s: %w", pkg.Path, l.importErr)
	}
	l.checked[pkg.Path] = pkg.Types
	return nil
}

// Import implements types.Importer: a package checked from source answers
// for its path; everything else comes from export data.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.checked[path]; ok {
		return p, nil
	}
	p, err := l.gc.Import(path)
	if err != nil && l.importErr == nil {
		l.importErr = err
	}
	return p, err
}

// lookup opens the export data of path for the gc importer. It consults
// the listings this loader has used, then the module's "./..." listing,
// then a listing of path itself (a fixture may import a package the module
// does not).
func (l *Loader) lookup(path string) (io.ReadCloser, error) {
	file, ok := l.exports[path]
	for _, pattern := range []string{"./...", path} {
		if ok {
			break
		}
		if err := l.merge(goList(l.ModuleRoot, pattern)); err != nil {
			return nil, err
		}
		file, ok = l.exports[path]
	}
	if !ok {
		return nil, fmt.Errorf("go list reports no export data for %s", path)
	}
	return os.Open(file)
}

// shortPath makes diagnostics readable: paths under root become relative.
func shortPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
