package analysis

import (
	"strings"
	"testing"
)

// pkgSrc is one in-memory package of a multi-package fixture. Packages are
// loaded in order, so a package must precede the ones importing it.
type pkgSrc struct {
	path  string
	files map[string]string
}

// interpFixture pins an interprocedural analyzer behaviour across function
// (and package) boundaries.
type interpFixture struct {
	name     string
	analyzer string
	pkgs     []pkgSrc
	want     []string // expected message substrings, in sorted diagnostic order
	// wantChain, when set, are substrings that must appear (in order) in the
	// rendered chain of the first finding.
	wantChain []string
}

func runInterpFixture(t *testing.T, fx interpFixture) []Diagnostic {
	t.Helper()
	l := newTestLoader(t)
	a := AnalyzerByName(fx.analyzer)
	if a == nil {
		t.Fatalf("unknown analyzer %q", fx.analyzer)
	}
	var pkgs []*Package
	for _, ps := range fx.pkgs {
		pkg, err := l.LoadSource(ps.path, ps.files)
		if err != nil {
			t.Fatalf("%s: load %s: %v", fx.name, ps.path, err)
		}
		pkgs = append(pkgs, pkg)
	}
	return Run([]*Analyzer{a}, pkgs)
}

// TestInterprocFixtures exercises the call-graph-backed halves of the
// analyzers: every firing case here is invisible to a single-function scan,
// and several need two call hops.
func TestInterprocFixtures(t *testing.T) {
	fixtures := []interpFixture{
		{
			// time.Now laundered through two helpers in a non-sim package,
			// consumed by sim-driven code: only the taint summaries see it.
			name:     "simclock_laundered_two_hops",
			analyzer: "simclock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/hosttime", files: map[string]string{"hosttime.go": `package hosttime
import "time"
func stamp() time.Time { return time.Now() }
func Stamp() time.Time { return stamp() }
func Nap() { time.Sleep(time.Millisecond) }
func Pure() int { return 42 }
`}},
				{path: "mpipart/internal/fabric", files: map[string]string{"fabric_fixture.go": `package fabric
import "mpipart/internal/hosttime"
func Budget() float64 {
	start := hosttime.Stamp()
	return float64(start.Nanosecond())
}
func Doze() { hosttime.Nap() }
func Fine() int { return hosttime.Pure() }
`}},
			},
			want: []string{
				"wall-clock-derived value returned by hosttime.Stamp into sim-driven package mpipart/internal/fabric",
				"call of hosttime.Nap in sim-driven package mpipart/internal/fabric transitively reads the wall clock",
			},
			wantChain: []string{"hosttime.Stamp", "hosttime.stamp", "time.Now"},
		},
		{
			// A kernel body calls helper -> deep -> go statement: two hops of
			// host-side impurity, reported at the kernel's call site.
			name:     "kernelpurity_transitive_two_hops",
			analyzer: "kernelpurity",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/bench", files: map[string]string{"kp_fixture.go": `package bench
import "mpipart/internal/gpu"
func deep() { go func() {}() }
func helper() { deep() }
func pure(x int) int { return x * 2 }
func f() {
	body := func(b *gpu.BlockCtx) {
		_ = pure(3)
		helper()
	}
	_ = body
}
`}},
			},
			want:      []string{"call of bench.helper from kernel body reaches go statement"},
			wantChain: []string{"bench.helper", "bench.deep", "go statement"},
		},
		{
			// A kernel body reaches a sync.Once through a memo method: the
			// shape kernelpurity found in the deep-learning gradient kernel.
			name:     "kernelpurity_sync_once_via_helper",
			analyzer: "kernelpurity",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/dl", files: map[string]string{"kp_once_fixture.go": `package dl
import (
	"sync"
	"mpipart/internal/gpu"
)
type shard struct {
	g    []float64
	once sync.Once
}
func (s *shard) grad0() []float64 {
	s.once.Do(func() { s.g = make([]float64, 4) })
	return s.g
}
func f(s *shard) {
	body := func(b *gpu.BlockCtx) {
		_ = s.grad0()
	}
	_ = body
}
`}},
			},
			want:      []string{"call of dl.(shard).grad0 from kernel body reaches call of sync.Once.Do"},
			wantChain: []string{"dl.(shard).grad0", "sync.Once.Do"},
		},
		{
			// A scheduler hot-path function calls a helper whose own callee
			// formats: the allocation is two hops away. Panic-argument calls
			// stay exempt even transitively.
			name:     "hotpathalloc_transitive_two_hops",
			analyzer: "hotpathalloc",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/sim", files: map[string]string{"hp_fixture.go": `package sim
import "fmt"
type Kernel struct{ name string }
func describeDeep(s string) string { return fmt.Sprintf("k=%s", s) }
func describe(s string) string { return describeDeep(s) }
func pureHelper(s string) int { return len(s) }
func (k *Kernel) resume() { _ = describe(k.name) }
func (k *Kernel) dispatch() {
	if pureHelper(k.name) < 0 {
		panic(describe(k.name))
	}
}
`}},
			},
			want:      []string{"call of sim.describe in scheduler hot path Kernel.resume allocates per call"},
			wantChain: []string{"sim.describe", "sim.describeDeep", "fmt.Sprintf"},
		},
		{
			// Proc.start is the coroutine-spawn helper: like a go statement,
			// its own closure is spawn cost, so a hot path reaching it with a
			// method value stays silent.
			name:     "hotpathalloc_coro_spawn_ok",
			analyzer: "hotpathalloc",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/sim", files: map[string]string{"hp_fixture.go": `package sim
type Proc struct{ next func() }
type Kernel struct{ spare *Proc }
func (p *Proc) start(body func(p *Proc)) { p.next = func() { body(p) } }
func (k *Kernel) idle(p *Proc) {}
func newSpare(k *Kernel) *Proc {
	p := &Proc{}
	p.start(k.idle)
	return p
}
func (k *Kernel) ready(p *Proc) {
	if k.spare == nil {
		k.spare = newSpare(k)
	}
}
`}},
			},
		},
		{
			// A closure literal handed to the spawn helper is built by the
			// caller, so the hot path reaching that caller is still reported.
			name:     "hotpathalloc_coro_spawn_closure_bad",
			analyzer: "hotpathalloc",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/sim", files: map[string]string{"hp_fixture.go": `package sim
type Proc struct{ next func() }
type Kernel struct{ spare *Proc }
func (p *Proc) start(body func(p *Proc)) { p.next = func() { body(p) } }
func newSpare(k *Kernel) *Proc {
	p := &Proc{}
	p.start(func(p *Proc) { _ = k })
	return p
}
func (k *Kernel) ready(p *Proc) {
	if k.spare == nil {
		k.spare = newSpare(k)
	}
}
`}},
			},
			want:      []string{"call of sim.newSpare in scheduler hot path Kernel.ready allocates per call"},
			wantChain: []string{"sim.newSpare", "closure literal"},
		},
		{
			// The mutex is held across a helper that only parks the Proc two
			// calls deeper.
			name:     "lockedawait_transitive_two_hops",
			analyzer: "lockedawait",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/fabric", files: map[string]string{"la_fixture.go": `package fabric
import (
	"sync"
	"mpipart/internal/sim"
)
var mu sync.Mutex
func parkDeep(p *sim.Proc) { p.Wait(10) }
func park(p *sim.Proc) { parkDeep(p) }
func bad(p *sim.Proc) {
	mu.Lock()
	park(p)
	mu.Unlock()
}
func ok(p *sim.Proc) {
	mu.Lock()
	mu.Unlock()
	park(p)
}
`}},
			},
			want:      []string{"call of fabric.park while holding mutex fabric.mu"},
			wantChain: []string{"fabric.park", "fabric.parkDeep", "sim.Proc.Wait"},
		},
		{
			// ABBA inversion assembled from four functions: f locks a then
			// calls lockB; g locks b and reaches a only through
			// lockA2 -> lockA (two hops).
			name:     "deadlockorder_cycle_interproc",
			analyzer: "deadlockorder",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/runner", files: map[string]string{"dl_fixture.go": `package runner
import "sync"
var a, b sync.Mutex
func lockB() { b.Lock(); b.Unlock() }
func lockA() { a.Lock(); a.Unlock() }
func lockA2() { lockA() }
func f() {
	a.Lock()
	lockB()
	a.Unlock()
}
func g() {
	b.Lock()
	lockA2()
	b.Unlock()
}
`}},
			},
			want: []string{
				"lock order inversion: runner.b acquired via runner.lockB while holding runner.a",
				"lock order inversion: runner.a acquired via runner.lockA2 while holding runner.b",
			},
		},
		{
			// A lock shared with sim-driven code (a kernel lock) held in a
			// host-side package across a transitively-blocking call.
			name:     "deadlockorder_kernel_lock_blocks",
			analyzer: "deadlockorder",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/fabric", files: map[string]string{"tracemu.go": `package fabric
import "sync"
var TraceMu sync.Mutex
func record() {
	TraceMu.Lock()
	TraceMu.Unlock()
}
`}},
				{path: "mpipart/internal/runner", files: map[string]string{"holder.go": `package runner
import (
	"mpipart/internal/fabric"
	"mpipart/internal/sim"
)
func helperPark(p *sim.Proc) { p.Wait(5) }
func bad(p *sim.Proc) {
	fabric.TraceMu.Lock()
	helperPark(p)
	fabric.TraceMu.Unlock()
}
func ok(p *sim.Proc) {
	fabric.TraceMu.Lock()
	fabric.TraceMu.Unlock()
	helperPark(p)
}
`}},
			},
			want: []string{"call of runner.helperPark (which transitively blocks) while holding kernel lock fabric.TraceMu"},
		},
		{
			// Pready issued inside a helper's helper before the caller ever
			// started the request — the state machine split across two hops.
			name:     "partitionedflow_helper_pready_before_start",
			analyzer: "partitionedflow",
			pkgs: []pkgSrc{
				{path: "mpipart/examples/fixture", files: map[string]string{"pf_fixture.go": `package main
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func readyOne(p *sim.Proc, r *core.SendRequest) { r.Pready(p, 0) }
func kickoff(p *sim.Proc, r *core.SendRequest) { readyOne(p, r) }
func bad(p *sim.Proc, rk *mpi.Rank, buf []float64) {
	sreq := core.PsendInit(p, rk, 1, 7, buf, 4)
	kickoff(p, sreq)
	sreq.Start(p)
	sreq.Pready(p, 1)
	sreq.Wait(p)
	sreq.Free()
}
`}},
			},
			want:      []string{"Pready before Start on request sreq (issued inside fixture.readyOne)"},
			wantChain: []string{"fixture.kickoff", "fixture.readyOne", "Pready"},
		},
		{
			// A helper returns an already-started request; the caller's second
			// Start is the epoch bug, visible only through the return summary.
			name:     "partitionedflow_helper_returned_request",
			analyzer: "partitionedflow",
			pkgs: []pkgSrc{
				{path: "mpipart/examples/fixture", files: map[string]string{"pf_ret_fixture.go": `package main
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func makeReq(p *sim.Proc, rk *mpi.Rank, buf []float64) *core.SendRequest {
	r := core.PsendInit(p, rk, 1, 7, buf, 4)
	r.Start(p)
	return r
}
func bad(p *sim.Proc, rk *mpi.Rank, buf []float64) {
	sreq := makeReq(p, rk, buf)
	sreq.Start(p)
	sreq.Wait(p)
	sreq.Free()
}
`}},
			},
			want: []string{"Start on already-started request sreq: missing Wait between epochs"},
		},
		{
			// Well-formed use through helpers stays silent: Start first, then a
			// helper readies every partition, then Wait/Free.
			name:     "partitionedflow_wellformed_helper_ok",
			analyzer: "partitionedflow",
			pkgs: []pkgSrc{
				{path: "mpipart/examples/fixture", files: map[string]string{"pf_ok_fixture.go": `package main
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func readyAll(p *sim.Proc, r *core.SendRequest) {
	r.Pready(p, 0)
	r.Pready(p, 1)
	r.Pready(p, 2)
	r.Pready(p, 3)
}
func good(p *sim.Proc, rk *mpi.Rank, buf []float64) {
	sreq := core.PsendInit(p, rk, 1, 7, buf, 4)
	sreq.Start(p)
	readyAll(p, sreq)
	sreq.Wait(p)
	sreq.Free()
}
`}},
			},
		},
		{
			// A helper whose request handling is control-flow dependent
			// degrades to opaque: tracking stops, nothing is reported.
			name:     "partitionedflow_opaque_helper_ok",
			analyzer: "partitionedflow",
			pkgs: []pkgSrc{
				{path: "mpipart/examples/fixture", files: map[string]string{"pf_opaque_fixture.go": `package main
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func maybeReady(p *sim.Proc, r *core.SendRequest, n int) {
	for i := 0; i < n; i++ {
		r.Pready(p, i)
	}
}
func good(p *sim.Proc, rk *mpi.Rank, buf []float64) {
	sreq := core.PsendInit(p, rk, 1, 7, buf, 4)
	maybeReady(p, sreq, 4)
	sreq.Start(p)
	sreq.Wait(p)
	sreq.Free()
}
`}},
			},
		},
		{
			// Path-sensitive: Pready fires inside a branch before any Start
			// exists on ANY path. A straight-line walk loses the request at
			// the `if`; the CFG typestate carries it into the branch and
			// reports the finding with the branch path.
			name:     "partitionedflow_branch_pready_before_start_bad",
			analyzer: "partitionedflow",
			pkgs: []pkgSrc{
				{path: "mpipart/examples/fixture", files: map[string]string{"pf_branch_fixture.go": `package main
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func bad(p *sim.Proc, rk *mpi.Rank, buf []float64, eager bool) {
	sreq := core.PsendInit(p, rk, 1, 7, buf, 4)
	if eager {
		sreq.Pready(p, 0)
	}
	sreq.Start(p)
	sreq.Pready(p, 1)
	sreq.Wait(p)
	sreq.Free()
}
`}},
			},
			want: []string{"Pready before Start on request sreq [path: branch at line 9 (true)]"},
		},
		{
			// Must-violation across a join: both branches Free the request, so
			// the state set at the final Start is uniformly freed and the
			// use-after-free is certain on every path.
			name:     "partitionedflow_free_on_both_branches_bad",
			analyzer: "partitionedflow",
			pkgs: []pkgSrc{
				{path: "mpipart/examples/fixture", files: map[string]string{"pf_join_fixture.go": `package main
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func bad(p *sim.Proc, rk *mpi.Rank, buf []float64, fast bool) {
	sreq := core.PsendInit(p, rk, 1, 7, buf, 4)
	sreq.Start(p)
	sreq.Wait(p)
	if fast {
		sreq.Free()
	} else {
		sreq.Free()
	}
	sreq.Start(p)
}
`}},
			},
			want: []string{"Start on freed request sreq: use after Free [path: branch at line"},
		},
		{
			// Correlated branches guarded by the same condition: Start and Wait
			// each happen only when run is true. A path-insensitive union would
			// flag the Wait (and the Free); must-violation semantics keep every
			// consistent interpretation silent.
			name:     "partitionedflow_correlated_branches_ok",
			analyzer: "partitionedflow",
			pkgs: []pkgSrc{
				{path: "mpipart/examples/fixture", files: map[string]string{"pf_corr_fixture.go": `package main
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func good(p *sim.Proc, rk *mpi.Rank, buf []float64, run bool) {
	sreq := core.PsendInit(p, rk, 1, 7, buf, 4)
	if run {
		sreq.Start(p)
	}
	if run {
		sreq.Wait(p)
	}
	sreq.Free()
}
`}},
			},
		},
		{
			// A well-formed multi-epoch loop: Start/Pready*/Wait per iteration,
			// Free after. The back edge feeds the post-Wait state into the loop
			// head; the fixpoint proves every epoch transition legal.
			name:     "partitionedflow_epoch_loop_ok",
			analyzer: "partitionedflow",
			pkgs: []pkgSrc{
				{path: "mpipart/examples/fixture", files: map[string]string{"pf_loop_fixture.go": `package main
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func good(p *sim.Proc, rk *mpi.Rank, buf []float64) {
	sreq := core.PsendInit(p, rk, 1, 7, buf, 4)
	for i := 0; i < 3; i++ {
		sreq.Start(p)
		sreq.Pready(p, 0)
		sreq.Pready(p, 1)
		sreq.Pready(p, 2)
		sreq.Pready(p, 3)
		sreq.Wait(p)
	}
	sreq.Free()
}
`}},
			},
		},
	}

	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			diags := runInterpFixture(t, fx)
			if len(diags) != len(fx.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(fx.want), renderDiags(diags))
			}
			for i, want := range fx.want {
				if !strings.Contains(diags[i].Message, want) {
					t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, want)
				}
			}
			if len(fx.wantChain) > 0 {
				if len(diags) == 0 || len(diags[0].Chain) == 0 {
					t.Fatalf("first finding carries no chain:\n%s", renderDiags(diags))
				}
				rendered := renderChain(diags[0].Chain)
				at := 0
				for _, step := range fx.wantChain {
					idx := strings.Index(rendered[at:], step)
					if idx < 0 {
						t.Fatalf("chain %q missing %q (in order)", rendered, step)
					}
					at += idx + len(step)
				}
			}
		})
	}
}

// TestStrictIgnores pins the stale-suppression satellite: a well-formed
// directive that no longer suppresses anything is reported under
// "stale-ignore" when Options.StrictIgnores is set — but only when the named
// analyzer actually ran, and never for directives that did fire.
func TestStrictIgnores(t *testing.T) {
	l := newTestLoader(t)
	pkg, err := l.LoadSource("mpipart/internal/core", map[string]string{"si.go": `package core
import "time"
func live() {
	//lint:ignore mpivet/simclock host timing verified by hand
	time.Sleep(time.Millisecond)
}
func stale() {
	//lint:ignore mpivet/simclock nothing fires here anymore
	_ = time.Millisecond
}
`})
	if err != nil {
		t.Fatal(err)
	}
	sc := AnalyzerByName("simclock")

	diags := RunWith([]*Analyzer{sc}, []*Package{pkg}, Options{StrictIgnores: true})
	if len(diags) != 1 || diags[0].Rule != "stale-ignore" {
		t.Fatalf("want exactly the stale-ignore finding, got:\n%s", renderDiags(diags))
	}
	if !strings.Contains(diags[0].Message, "mpivet/simclock no longer reports anything") {
		t.Fatalf("unexpected message %q", diags[0].Message)
	}

	// Without the option the stale directive is tolerated.
	pkg2, err := l.LoadSource("mpipart/internal/core", map[string]string{"si.go": `package core
func stale() {
	//lint:ignore mpivet/simclock nothing fires here anymore
	_ = 1
}
`})
	if err != nil {
		t.Fatal(err)
	}
	if diags := Run([]*Analyzer{sc}, []*Package{pkg2}); len(diags) != 0 {
		t.Fatalf("default run must tolerate stale directives:\n%s", renderDiags(diags))
	}

	// A directive naming an analyzer that did not run is not stale.
	if diags := RunWith([]*Analyzer{AnalyzerByName("kernelpurity")}, []*Package{pkg2}, Options{StrictIgnores: true}); len(diags) != 0 {
		t.Fatalf("partial -rules run must not mark unrun rules stale:\n%s", renderDiags(diags))
	}
}

// TestRunDeterminism runs the full suite twice over fresh loads of the same
// multi-package fixture (one that produces chains) and requires identical
// diagnostics — the ordering the byte-identical JSON guarantee rests on.
func TestRunDeterminism(t *testing.T) {
	srcs := []pkgSrc{
		{path: "mpipart/internal/hosttime", files: map[string]string{"hosttime.go": `package hosttime
import "time"
func Stamp() time.Time { return time.Now() }
`}},
		{path: "mpipart/internal/fabric", files: map[string]string{"fabric_fixture.go": `package fabric
import (
	"time"
	"mpipart/internal/hosttime"
)
func Budget() float64 { return float64(hosttime.Stamp().Nanosecond()) }
func Direct() time.Time { return time.Now() }
`}},
	}
	var runs [2][]Diagnostic
	for i := range runs {
		l := newTestLoader(t)
		var pkgs []*Package
		for _, ps := range srcs {
			pkg, err := l.LoadSource(ps.path, ps.files)
			if err != nil {
				t.Fatal(err)
			}
			pkgs = append(pkgs, pkg)
		}
		runs[i] = Run(Analyzers(), pkgs)
	}
	if len(runs[0]) == 0 {
		t.Fatal("fixture produced no findings; determinism check is vacuous")
	}
	if len(runs[0]) != len(runs[1]) {
		t.Fatalf("finding counts differ: %d vs %d", len(runs[0]), len(runs[1]))
	}
	for i := range runs[0] {
		if !runs[0][i].equal(runs[1][i]) {
			t.Fatalf("finding %d differs:\n%s\nvs\n%s", i, runs[0][i], runs[1][i])
		}
	}
}
