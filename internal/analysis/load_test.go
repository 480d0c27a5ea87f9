package analysis

import (
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestLoadMatchesGoList checks that "./..." means what it means to the go
// command: exactly the main module's packages (the separate perfbench
// module excluded), each fully type-checked.
func TestLoadMatchesGoList(t *testing.T) {
	out, err := exec.Command("go", "list", "-C", repoRoot(t), "./...").Output()
	if err != nil {
		t.Fatal(err)
	}
	want := strings.Fields(string(out))
	pkgs, err := newTestLoader(t).Load("./...")
	if err != nil {
		t.Fatal(err)
	}
	var got []string
	for _, pkg := range pkgs {
		got = append(got, pkg.Path)
		if len(pkg.TypeErrors) > 0 {
			t.Errorf("%s: type errors: %v", pkg.Path, firstN(pkg.TypeErrors, 3))
		}
	}
	if strings.Join(got, " ") != strings.Join(want, " ") {
		t.Fatalf("Load(./...) = %v\ngo list ./... = %v", got, want)
	}
	for _, p := range got {
		if strings.HasPrefix(p, "mpipart/perfbench") {
			t.Fatalf("Load(./...) includes %s from the nested perfbench module", p)
		}
	}
}

// TestLoadChecksEachPackageOnce checks that a loaded package imports the
// very *types.Package Load returned for its dependency: one type-check per
// module package, and one type universe across them. A partial pattern
// keeps the property through the module packages it only depends on.
func TestLoadChecksEachPackageOnce(t *testing.T) {
	for _, patterns := range [][]string{{"./..."}, {"./internal/sim", "./internal/core"}} {
		pkgs, err := newTestLoader(t).Load(patterns...)
		if err != nil {
			t.Fatal(err)
		}
		loaded := map[string]*Package{}
		for _, pkg := range pkgs {
			loaded[pkg.Path] = pkg
		}
		edges := 0
		for _, pkg := range pkgs {
			if pkg.Types == nil { // test files only, e.g. the module root
				continue
			}
			for _, imp := range pkg.Types.Imports() {
				if dep, ok := loaded[imp.Path()]; ok {
					edges++
					if imp != dep.Types {
						t.Errorf("%v: %s imports a second copy of %s", patterns, pkg.Path, imp.Path())
					}
				}
			}
		}
		if edges == 0 {
			t.Fatalf("%v: no import edge between loaded packages", patterns)
		}
		if core := loaded["mpipart/internal/core"]; core != nil && len(core.TypeErrors) > 0 {
			t.Errorf("%v: core: type errors: %v", patterns, firstN(core.TypeErrors, 3))
		}
	}
}

// TestFixtureImportsOutsideModule checks that a fixture may import a
// standard package the module itself does not use.
func TestFixtureImportsOutsideModule(t *testing.T) {
	pkg, err := newTestLoader(t).LoadSource("mpipart/internal/fixture", map[string]string{"z.go": `package fixture
import "compress/bzip2"
var _ = bzip2.NewReader
`})
	if err != nil {
		t.Fatal(err)
	}
	if len(pkg.TypeErrors) > 0 {
		t.Fatalf("type errors: %v", firstN(pkg.TypeErrors, 3))
	}
}

// TestUnresolvedImportIsError checks that an import resolving nowhere fails
// the load, in a LoadSource fixture and in a package a pattern names,
// instead of degrading to an empty stand-in package.
func TestUnresolvedImportIsError(t *testing.T) {
	const src = `package probe
import "nosuch/pkg"
var _ = pkg.X
`
	_, err := newTestLoader(t).LoadSource("mpipart/internal/probe", map[string]string{"probe.go": src})
	if err == nil || !strings.Contains(err.Error(), "nosuch/pkg") {
		t.Fatalf("LoadSource: err = %v, want an error naming nosuch/pkg", err)
	}

	dir := t.TempDir()
	for name, body := range map[string]string{
		"go.mod":   "module probe\n\ngo 1.22\n",
		"probe.go": src,
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	l, err := NewLoader(dir)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := l.Load("./..."); err == nil || !strings.Contains(err.Error(), "nosuch/pkg") {
		t.Fatalf("Load: err = %v, want an error naming nosuch/pkg", err)
	}
}
