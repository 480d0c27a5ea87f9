package analysis

import (
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
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
	// TypeErrors collects (non-fatal) type-checker complaints, mostly from
	// imports resolved as empty stubs.
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

// Loader loads module packages for analysis. It resolves imports inside the
// module from source (recursively) and everything else through the stdlib
// source importer, substituting empty stub packages when resolution fails so
// analysis degrades instead of aborting.
type Loader struct {
	ModuleRoot string
	ModulePath string
	Fset       *token.FileSet

	typesCache map[string]*types.Package
	checking   map[string]bool // cycle guard
	typeErrs   []error
	// memPkgs holds the non-test ASTs of packages built with LoadSource, so
	// one in-memory fixture package can import another (load the imported
	// package first).
	memPkgs map[string][]*ast.File
}

// stdlib is the file set and standard-library source importer every Loader
// of the process shares, so the standard library is type-checked from
// source once per process rather than once per loader. The source importer
// is not safe for concurrent use: mu serializes Import.
var stdlib struct {
	once     sync.Once
	fset     *token.FileSet
	mu       sync.Mutex
	importer types.Importer
}

// NewLoader creates a loader for the module rooted at root (the directory
// containing go.mod).
func NewLoader(root string) (*Loader, error) {
	abs, err := filepath.Abs(root)
	if err != nil {
		return nil, err
	}
	data, err := os.ReadFile(filepath.Join(abs, "go.mod"))
	if err != nil {
		return nil, fmt.Errorf("analysis: not a module root: %w", err)
	}
	modPath := ""
	for _, line := range strings.Split(string(data), "\n") {
		line = strings.TrimSpace(line)
		if rest, ok := strings.CutPrefix(line, "module"); ok {
			modPath = strings.TrimSpace(rest)
			break
		}
	}
	if modPath == "" {
		return nil, fmt.Errorf("analysis: no module line in %s/go.mod", abs)
	}
	stdlib.once.Do(func() {
		stdlib.fset = token.NewFileSet()
		stdlib.importer = importer.ForCompiler(stdlib.fset, "source", nil)
	})
	return &Loader{
		ModuleRoot: abs,
		ModulePath: modPath,
		Fset:       stdlib.fset,
		typesCache: map[string]*types.Package{},
		checking:   map[string]bool{},
	}, nil
}

// Load resolves patterns to packages. A pattern is either a directory
// (absolute, or relative to the module root, "./x" style accepted) or the
// recursive form "dir/..." which walks for every directory containing Go
// files. Results are sorted by import path.
func (l *Loader) Load(patterns ...string) ([]*Package, error) {
	dirs := map[string]bool{}
	for _, pat := range patterns {
		if rec, ok := strings.CutSuffix(pat, "/..."); ok {
			if rec == "." || rec == "" {
				rec = l.ModuleRoot
			} else {
				rec = l.absDir(rec)
			}
			err := filepath.WalkDir(rec, func(path string, d os.DirEntry, err error) error {
				if err != nil {
					return err
				}
				if !d.IsDir() {
					return nil
				}
				base := d.Name()
				if base != "." && (strings.HasPrefix(base, ".") || strings.HasPrefix(base, "_") ||
					base == "testdata" || base == "vendor") {
					return filepath.SkipDir
				}
				if hasGoFiles(path) {
					dirs[path] = true
				}
				return nil
			})
			if err != nil {
				return nil, err
			}
			continue
		}
		dir := l.absDir(pat)
		if !hasGoFiles(dir) {
			return nil, fmt.Errorf("analysis: no Go files in %s", dir)
		}
		dirs[dir] = true
	}
	// Load in sorted directory order: loadDir reads the filesystem and
	// reports errors, so the first-error identity (and any I/O ordering)
	// must not depend on map iteration.
	dirList := make([]string, 0, len(dirs))
	for dir := range dirs {
		dirList = append(dirList, dir)
	}
	sort.Strings(dirList)
	var pkgs []*Package
	for _, dir := range dirList {
		pkg, err := l.loadDir(dir)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	sort.Slice(pkgs, func(i, j int) bool { return pkgs[i].Path < pkgs[j].Path })
	return pkgs, nil
}

func (l *Loader) absDir(p string) string {
	if filepath.IsAbs(p) {
		return filepath.Clean(p)
	}
	return filepath.Join(l.ModuleRoot, p)
}

func hasGoFiles(dir string) bool {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return false
	}
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") {
			return true
		}
	}
	return false
}

// importPathFor maps a module directory to its import path.
func (l *Loader) importPathFor(dir string) string {
	rel, err := filepath.Rel(l.ModuleRoot, dir)
	if err != nil || rel == "." {
		return l.ModulePath
	}
	return l.ModulePath + "/" + filepath.ToSlash(rel)
}

// loadDir parses and type-checks the package in dir.
func (l *Loader) loadDir(dir string) (*Package, error) {
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	pkg := &Package{Path: l.importPathFor(dir), Dir: dir, Fset: l.Fset}
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") {
			continue
		}
		path := filepath.Join(dir, name)
		src, err := os.ReadFile(path)
		if err != nil {
			return nil, err
		}
		if err := l.addFile(pkg, name, shortPath(l.ModuleRoot, path), src); err != nil {
			return nil, err
		}
	}
	l.check(pkg)
	return pkg, nil
}

// LoadSource builds a package from in-memory sources (fixture tests). The
// map key is the file name; diagnostics use it verbatim. The package is
// registered so later LoadSource packages can import it by path.
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
	if l.memPkgs == nil {
		l.memPkgs = map[string][]*ast.File{}
	}
	var nonTest []*ast.File
	for _, f := range pkg.Files {
		if !f.Test {
			nonTest = append(nonTest, f.Ast)
		}
	}
	l.memPkgs[pkgPath] = nonTest
	delete(l.typesCache, pkgPath) // reloading a fixture path replaces it
	l.check(pkg)
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

// check type-checks the package's non-test files, best-effort.
func (l *Loader) check(pkg *Package) {
	pkg.Info = &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	var files []*ast.File
	for _, f := range pkg.Files {
		if !f.Test {
			files = append(files, f.Ast)
		}
	}
	if len(files) == 0 {
		return
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { pkg.TypeErrors = append(pkg.TypeErrors, err) },
	}
	tpkg, _ := conf.Check(pkg.Path, l.Fset, files, pkg.Info) // errors collected via hook
	pkg.Types = tpkg
}

// Import implements types.Importer: module packages are type-checked from
// source; everything else goes through the stdlib source importer, with an
// empty stub on failure.
func (l *Loader) Import(path string) (*types.Package, error) {
	if p, ok := l.typesCache[path]; ok {
		return p, nil
	}
	if files, ok := l.memPkgs[path]; ok {
		p := l.checkFiles(path, files)
		l.typesCache[path] = p
		return p, nil
	}
	if path == l.ModulePath || strings.HasPrefix(path, l.ModulePath+"/") {
		p := l.importModulePkg(path)
		l.typesCache[path] = p
		return p, nil
	}
	stdlib.mu.Lock()
	p, err := stdlib.importer.Import(path)
	stdlib.mu.Unlock()
	if err != nil || p == nil {
		l.typeErrs = append(l.typeErrs, fmt.Errorf("import %q: %v", path, err))
		p = stubPackage(path)
	}
	l.typesCache[path] = p
	return p, nil
}

// importModulePkg type-checks a module-internal dependency (non-test files
// only). Failures degrade to a stub package.
func (l *Loader) importModulePkg(path string) *types.Package {
	if l.checking[path] {
		// Import cycle: the compiler would reject this; degrade to a stub so
		// analysis of the rest can continue.
		l.typeErrs = append(l.typeErrs, fmt.Errorf("import cycle through %q", path))
		return stubPackage(path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)

	dir := filepath.Join(l.ModuleRoot, filepath.FromSlash(strings.TrimPrefix(path, l.ModulePath+"/")))
	ents, err := os.ReadDir(dir)
	if err != nil {
		l.typeErrs = append(l.typeErrs, err)
		return stubPackage(path)
	}
	var files []*ast.File
	for _, e := range ents {
		name := e.Name()
		if e.IsDir() || !strings.HasSuffix(name, ".go") || strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, perr := parser.ParseFile(l.Fset, filepath.Join(dir, name), nil, 0)
		if perr != nil {
			l.typeErrs = append(l.typeErrs, perr)
			return stubPackage(path)
		}
		files = append(files, f)
	}
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { l.typeErrs = append(l.typeErrs, err) },
	}
	p, _ := conf.Check(path, l.Fset, files, nil) // errors collected via hook
	if p == nil {
		return stubPackage(path)
	}
	return p
}

// checkFiles type-checks a set of ASTs as package path, degrading to a stub.
func (l *Loader) checkFiles(path string, files []*ast.File) *types.Package {
	if l.checking[path] {
		l.typeErrs = append(l.typeErrs, fmt.Errorf("import cycle through %q", path))
		return stubPackage(path)
	}
	l.checking[path] = true
	defer delete(l.checking, path)
	conf := types.Config{
		Importer: l,
		Error:    func(err error) { l.typeErrs = append(l.typeErrs, err) },
	}
	p, _ := conf.Check(path, l.Fset, files, nil) // errors collected via hook
	if p == nil {
		return stubPackage(path)
	}
	return p
}

func stubPackage(path string) *types.Package {
	base := path
	if i := strings.LastIndex(path, "/"); i >= 0 {
		base = path[i+1:]
	}
	p := types.NewPackage(path, base)
	p.MarkComplete()
	return p
}

// shortPath makes diagnostics readable: paths under root become relative.
func shortPath(root, path string) string {
	if rel, err := filepath.Rel(root, path); err == nil && !strings.HasPrefix(rel, "..") {
		return rel
	}
	return path
}
