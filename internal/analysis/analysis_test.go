package analysis

import (
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
)

// repoRoot locates the module root from this source file's position.
func repoRoot(t *testing.T) string {
	t.Helper()
	_, file, _, ok := runtime.Caller(0)
	if !ok {
		t.Fatal("runtime.Caller failed")
	}
	return filepath.Dir(filepath.Dir(filepath.Dir(file)))
}

func newTestLoader(t *testing.T) *Loader {
	t.Helper()
	l, err := NewLoader(repoRoot(t))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestLoadersShareStdlib type-checks stdlib-importing packages from several
// loaders at once: each has its own file set and export-data importer, and
// they share the process's cached go list runs, which must serialize.
func TestLoadersShareStdlib(t *testing.T) {
	var wg sync.WaitGroup
	for i := 0; i < 3; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			l, err := NewLoader(repoRoot(t))
			if err != nil {
				t.Error(err)
				return
			}
			pkg, err := l.LoadSource("mpipart/internal/fixture", map[string]string{"std.go": `package fixture
import (
	"fmt"
	"sort"
	"strings"
)
func F(xs []string) string { sort.Strings(xs); return fmt.Sprint(strings.Join(xs, ",")) }
`})
			if err != nil {
				t.Error(err)
				return
			}
			if len(pkg.TypeErrors) > 0 {
				t.Errorf("type errors: %v", firstN(pkg.TypeErrors, 3))
			}
		}()
	}
	wg.Wait()
}

// fixture is one pinned analyzer behaviour: sources that must produce
// exactly the expected rule hits (substring-matched messages), and a
// suppressed twin that must stay silent.
type fixture struct {
	name     string
	analyzer string
	pkgPath  string   // declared import path (drives Match)
	src      string   // single-file package body
	want     []string // expected message substrings, in position order
}

func runFixture(t *testing.T, l *Loader, fx fixture) []Diagnostic {
	t.Helper()
	a := AnalyzerByName(fx.analyzer)
	if a == nil {
		t.Fatalf("unknown analyzer %q", fx.analyzer)
	}
	pkg, err := l.LoadSource(fx.pkgPath, map[string]string{fx.name + ".go": fx.src})
	if err != nil {
		t.Fatalf("%s: load: %v", fx.name, err)
	}
	return Run([]*Analyzer{a}, []*Package{pkg})
}

func TestAnalyzerFixtures(t *testing.T) {
	l := newTestLoader(t)
	fixtures := []fixture{
		{
			name:     "simclock_bad",
			analyzer: "simclock",
			pkgPath:  "mpipart/internal/core",
			src: `package core
import "time"
func f() {
	time.Sleep(time.Millisecond)
	_ = time.Now()
	_ = time.Since(time.Time{})
	t := time.NewTicker(time.Second)
	_ = t
}
`,
			want: []string{
				"wall-clock use time.Sleep",
				"wall-clock use time.Now",
				"wall-clock use time.Since",
				"wall-clock use time.NewTicker",
			},
		},
		{
			name:     "simclock_outside_sim_packages_ok",
			analyzer: "simclock",
			pkgPath:  "mpipart/cmd/figures", // host-side tooling may use the wall clock
			src: `package main
import "time"
func f() { time.Sleep(time.Millisecond) }
`,
		},
		{
			name:     "kernelpurity_bad",
			analyzer: "kernelpurity",
			pkgPath:  "mpipart/internal/bench",
			src: `package bench
import (
	"fmt"
	"sync"
	"mpipart/internal/gpu"
)
var mu sync.Mutex
func f(ch chan int) {
	body := func(b *gpu.BlockCtx) {
		go func() {}()
		ch <- 1
		<-ch
		mu.Lock()
		fmt.Println("hi")
		fmt.Printf("x")
	}
	_ = body
}
`,
			want: []string{
				"go statement in kernel body",
				"channel send in kernel body",
				"channel receive in kernel body",
				"sync primitive mu.Lock()",
				"I/O call fmt.Println",
				"I/O call fmt.Printf",
			},
		},
		{
			name:     "kernelpurity_pure_ok",
			analyzer: "kernelpurity",
			pkgPath:  "mpipart/internal/bench",
			src: `package bench
import (
	"fmt"
	"mpipart/internal/gpu"
)
func f() {
	body := func(b *gpu.BlockCtx) {
		b.SyncThreads()
		if b.Idx < 0 {
			panic(fmt.Sprintf("bad block %d", b.Idx))
		}
	}
	_ = body
}
`,
		},
		{
			name:     "partitionedflow_straightline_bad",
			analyzer: "partitionedflow",
			pkgPath:  "mpipart/examples/fixture",
			src: `package main
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func f(p *sim.Proc, r *mpi.Rank, buf []float64) {
	sreq := core.PsendInit(p, r, 1, 7, buf, 4)
	sreq.Pready(p, 0)
	sreq.Start(p)
	sreq.Start(p)
	sreq.PbufPrepare(p)
	sreq.Pready(p, 9)
	sreq.Pready(p, 1)
	sreq.Pready(p, 1)
	sreq.Wait(p)
	sreq.Free()
	sreq.Start(p)
}
`,
			want: []string{
				"Pready before Start",
				"Start on already-started request",
				"partition 9 out of range",
				"duplicate Pready of partition 1",
				"use after Free",
			},
		},
		{
			name:     "partitionedflow_straightline_bufread_bad",
			analyzer: "partitionedflow",
			pkgPath:  "mpipart/examples/fixture",
			src: `package main
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func consume(x []float64) {}
func f(p *sim.Proc, r *mpi.Rank, buf []float64) {
	rreq := core.PrecvInit(p, r, 0, 7, buf, 4)
	rreq.Start(p)
	rreq.PbufPrepare(p)
	consume(buf)
	rreq.Wait(p)
	rreq.Free()
}
`,
			want: []string{"read of receive buffer buf"},
		},
		{
			// Both branches leave the epoch open with nothing arrived, so the
			// read after the join is a must-violation; it carries the path.
			name:     "partitionedflow_branch_bufread_bad",
			analyzer: "partitionedflow",
			pkgPath:  "mpipart/examples/fixture",
			src: `package main
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func consume(x []float64) {}
func f(p *sim.Proc, r *mpi.Rank, buf []float64, c bool) {
	rreq := core.PrecvInit(p, r, 0, 7, buf, 4)
	if c {
		rreq.Start(p)
	} else {
		rreq.Start(p)
		rreq.PbufPrepare(p)
	}
	consume(buf)
	rreq.Wait(p)
	rreq.Free()
}
`,
			want: []string{"read of receive buffer buf of request rreq before Parrived/Wait: the epoch is still open [path: branch at line 10"},
		},
		{
			// Only the path that skips the Wait reads an open epoch: not a
			// must-violation, so silent.
			name:     "partitionedflow_branch_bufread_ok",
			analyzer: "partitionedflow",
			pkgPath:  "mpipart/examples/fixture",
			src: `package main
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func consume(x []float64) {}
func f(p *sim.Proc, r *mpi.Rank, buf []float64, c bool) {
	rreq := core.PrecvInit(p, r, 0, 7, buf, 4)
	rreq.Start(p)
	if c {
		rreq.Wait(p)
	}
	consume(buf)
	rreq.Free()
}
`,
		},
		{
			name:     "partitionedflow_straightline_wellformed_ok",
			analyzer: "partitionedflow",
			pkgPath:  "mpipart/examples/fixture",
			src: `package main
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func consume(x []float64) {}
func f(p *sim.Proc, r *mpi.Rank, buf []float64) {
	rreq := core.PrecvInit(p, r, 0, 7, buf, 4)
	for i := 0; i < 3; i++ {
		rreq.Start(p)
		rreq.PbufPrepare(p)
		rreq.Wait(p)
		consume(buf)
	}
	rreq.Free()
}
`,
		},
		{
			name:     "lockedawait_bad",
			analyzer: "lockedawait",
			pkgPath:  "mpipart/internal/fabric",
			src: `package fabric
import (
	"sync"
	"mpipart/internal/sim"
)
var mu sync.Mutex
func f(p *sim.Proc, c *sim.Cond) {
	mu.Lock()
	defer mu.Unlock()
	c.Wait(p)
}
func g(p *sim.Proc) {
	mu.Lock()
	p.Wait(10)
	mu.Unlock()
}
func ok(p *sim.Proc) {
	mu.Lock()
	mu.Unlock()
	p.Wait(10)
}
`,
			want: []string{
				`virtual-time wait Wait(...) while holding mutex "mu"`,
				`virtual-time wait Wait(...) while holding mutex "mu"`,
			},
		},
		{
			name:     "errcheck_bad",
			analyzer: "errcheck-lite",
			pkgPath:  "mpipart/internal/fixture",
			src: `package fixture
import "strings"
func fail() error { return nil }
func pair() (int, error) { return 0, nil }
func f() {
	fail()
	pair()
	_ = fail() // explicit discard is the sanctioned form
	var b strings.Builder
	b.WriteString("ok") // never-fail writer is exempt
}
`,
			want: []string{
				"result of fail(...) is ignored",
				"result of pair(...) is ignored",
			},
		},
		{
			// A dropped *os.File Close in a command, the shape errcheck-lite
			// found in cmd/benchgate when its scope grew to cmd/.
			name:     "errcheck_cmd_file_close",
			analyzer: "errcheck-lite",
			pkgPath:  "mpipart/cmd/fixture",
			src: `package main
import "os"
func write(path string, data []byte) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		return err
	}
	f.Close()
	return nil
}
`,
			want: []string{"result of f.Close(...) is ignored"},
		},
		{
			name:     "errcheck_examples_scope",
			analyzer: "errcheck-lite",
			pkgPath:  "mpipart/examples/fixture",
			src: `package fixture
func fail() error { return nil }
func f() {
	fail()
}
`,
			want: []string{
				"result of fail(...) is ignored",
			},
		},
		{
			// The serving-layer shapes: an HTTP response body whose Close
			// error is dropped on the floor is flagged, while the two
			// sanctioned forms — `defer resp.Body.Close()` (a DeferStmt,
			// not an ExprStmt) and the explicit `_ =` discard — stay
			// silent.
			name:     "errcheck_http_body_close",
			analyzer: "errcheck-lite",
			pkgPath:  "mpipart/internal/fixture",
			src: `package fixture
import "net/http"
func bad(resp *http.Response) {
	resp.Body.Close()
}
func deferred(resp *http.Response) {
	defer resp.Body.Close()
}
func discarded(resp *http.Response) {
	defer func() { _ = resp.Body.Close() }()
}
`,
			want: []string{
				"result of resp.Body.Close(...) is ignored",
			},
		},
		{
			// Streaming-encoder error drops: Encode's error is the only
			// signal that a response body failed mid-write, whether the
			// encoder is named or constructed inline in the call chain.
			name:     "errcheck_encoder_drop",
			analyzer: "errcheck-lite",
			pkgPath:  "mpipart/internal/fixture",
			src: `package fixture
import (
	"encoding/json"
	"io"
)
func bad(w io.Writer, v interface{}) {
	enc := json.NewEncoder(w)
	enc.Encode(v)
	json.NewEncoder(w).Encode(v)
}
func ok(w io.Writer, v interface{}) error {
	if err := json.NewEncoder(w).Encode(v); err != nil {
		return err
	}
	_ = json.NewEncoder(w).Encode(v)
	return nil
}
`,
			want: []string{
				"result of enc.Encode(...) is ignored",
				"result of expr.Encode(...) is ignored",
			},
		},
		{
			name:     "exhaustive_bad",
			analyzer: "exhaustive-mech",
			pkgPath:  "mpipart/internal/fixture",
			src: `package fixture
type Mech int
const (
	EngineMech Mech = iota
	CopyMech
	DmaMech
)
func f(m Mech) int {
	switch m {
	case EngineMech:
		return 1
	case CopyMech:
		return 2
	}
	return 0
}
func ok(m Mech) int {
	switch m {
	case EngineMech:
		return 1
	default:
		return 0
	}
}
`,
			want: []string{"switch over Mech misses constants DmaMech"},
		},
		{
			name:     "hotpathalloc_bad",
			analyzer: "hotpathalloc",
			pkgPath:  "mpipart/internal/sim",
			src: `package sim
import "fmt"
type Kernel struct{ name string }
type ring[T any] struct{ buf []T }
func (k *Kernel) ready(name string) {
	_ = fmt.Sprintf("readying %s", name)
	k.name = "proc:" + name
	fn := func() {}
	fn()
}
func (r *ring[T]) push(v T) {
	fmt.Println(v)
}
func (k *Kernel) describe() string { return fmt.Sprintf("%s!", k.name) }
`,
			want: []string{
				"fmt.Sprintf call in scheduler hot path Kernel.ready",
				"string concatenation in scheduler hot path Kernel.ready",
				"closure literal in scheduler hot path Kernel.ready",
				"fmt.Println call in scheduler hot path ring.push",
			},
		},
		{
			// A deferred restore closure in a hot-path function, the shape
			// hotpathalloc found in the sharded kernel's window loop (that
			// scheduler is gone; the fixture keeps the shape).
			name:     "hotpathalloc_deferred_closure_bad",
			analyzer: "hotpathalloc",
			pkgPath:  "mpipart/internal/sim",
			src: `package sim
type Task struct{}
type Kernel struct{ windowEnd int64 }
func (k *Kernel) runTask(t *Task) {
	old := k.windowEnd
	k.windowEnd = 1
	defer func() { k.windowEnd = old }()
}
`,
			want: []string{"closure literal in scheduler hot path Kernel.runTask"},
		},
		{
			name:     "hotpathalloc_cold_ok",
			analyzer: "hotpathalloc",
			pkgPath:  "mpipart/internal/sim",
			src: `package sim
import "fmt"
type Proc struct{ name string }
func (p *Proc) block(state int) {
	if state < 0 {
		panic("sim: bad state for " + p.name) // cold: panic message may format
	}
}
func (p *Proc) String() string { return fmt.Sprintf("proc %s", p.name) }
func NewProc(name string) *Proc { return &Proc{name: "proc:" + name} }
`,
		},
		{
			// Designation is per package: Kernel.ready is hot in
			// internal/sim, but internal/gpu's designated set holds only the
			// stream serve-machine steps, so the same name formats freely
			// here.
			name:     "hotpathalloc_outside_sim_ok",
			analyzer: "hotpathalloc",
			pkgPath:  "mpipart/internal/gpu",
			src: `package gpu
import "fmt"
type Kernel struct{ name string }
func (k *Kernel) ready(name string) { _ = fmt.Sprintf("%s", name) }
`,
		},
		{
			// The Task continuation core is designated: dispatch trampoline,
			// arming primitives, run-queue edges. Each allocation source kind
			// fires; the panic escape stays cold.
			name:     "hotpathalloc_task_bad",
			analyzer: "hotpathalloc",
			pkgPath:  "mpipart/internal/sim",
			src: `package sim
import "fmt"
type Task struct{ name string }
type Kernel struct{ trace []string }
func (t *Task) Then(fn func()) {
	t.name = "step:" + t.name
}
func (k *Kernel) runTask(t *Task) {
	k.trace = append(k.trace, fmt.Sprintf("run %s", t.name))
	cleanup := func() {}
	cleanup()
}
func (k *Kernel) readyTask(t *Task) {
	if t == nil {
		panic("sim: readying nil task " + "?") // cold: panic may format
	}
}
`,
			want: []string{
				"string concatenation in scheduler hot path Task.Then",
				"fmt.Sprintf call in scheduler hot path Kernel.runTask",
				"closure literal in scheduler hot path Kernel.runTask",
			},
		},
		{
			// The converted GPU stream serve machine is designated in
			// internal/gpu: a formatting regression in a wave step fires,
			// while the once-per-kernel finish step (tracer formatting) is
			// deliberately outside the hot set and stays silent.
			name:     "hotpathalloc_stream_mixed",
			analyzer: "hotpathalloc",
			pkgPath:  "mpipart/internal/gpu",
			src: `package gpu
import "fmt"
type Task struct{}
type Stream struct{ last string }
func (s *Stream) stepWave(t *Task) {
	s.last = fmt.Sprintf("wave@%p", t)
}
func (s *Stream) finishKernel(t *Task) {
	s.last = fmt.Sprintf("done@%p", t)
}
`,
			want: []string{
				"fmt.Sprintf call in scheduler hot path Stream.stepWave",
			},
		},
		{
			// The converted progression-engine steps are designated in
			// internal/mpi and must stay allocation-free; clean steps are
			// silent.
			name:     "hotpathalloc_engine_ok",
			analyzer: "hotpathalloc",
			pkgPath:  "mpipart/internal/mpi",
			src: `package mpi
import "fmt"
type Task struct{}
type Engine struct {
	did   bool
	items []int
	oi    int
}
func (e *Engine) finishItem(didWork, stillActive bool) {
	e.did = e.did || didWork
	if stillActive {
		e.items = append(e.items, e.oi)
	}
	e.oi++
}
func (e *Engine) describe() string { return fmt.Sprintf("%d items", len(e.items)) }
`,
		},
	}

	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			diags := runFixture(t, l, fx)
			if len(diags) != len(fx.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(fx.want), renderDiags(diags))
			}
			for i, want := range fx.want {
				if !strings.Contains(diags[i].Message, want) {
					t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, want)
				}
				if diags[i].Rule != fx.analyzer {
					t.Errorf("finding %d rule = %q, want %q", i, diags[i].Rule, fx.analyzer)
				}
			}
			if len(diags) > 0 {
				if twin := runFixture(t, l, suppressedTwin(fx, diags)); len(twin) != 0 {
					t.Errorf("suppressed twin still reports:\n%s", renderDiags(twin))
				}
			}
		})
	}
}

// suppressedTwin returns fx with a same-line ignore directive for its rule
// on every line that reported.
func suppressedTwin(fx fixture, diags []Diagnostic) fixture {
	lines := strings.Split(fx.src, "\n")
	for _, d := range diags {
		if !strings.HasSuffix(lines[d.Line-1], "suppressed twin") {
			lines[d.Line-1] += " //lint:ignore mpivet/" + fx.analyzer + " suppressed twin"
		}
	}
	fx.name += "_suppressed"
	fx.src = strings.Join(lines, "\n")
	return fx
}

// TestSuppression pins the //lint:ignore mpivet/<rule> behaviour: a
// well-formed directive on the offending line or the line above silences the
// finding; a directive without a reason is itself reported.
func TestSuppression(t *testing.T) {
	l := newTestLoader(t)

	suppressed := fixture{
		name:     "simclock_suppressed",
		analyzer: "simclock",
		pkgPath:  "mpipart/internal/core",
		src: `package core
import "time"
func f() {
	//lint:ignore mpivet/simclock host-side timing verified by hand
	time.Sleep(time.Millisecond)
	time.Sleep(time.Millisecond) //lint:ignore mpivet/simclock same-line directive
}
`,
	}
	if diags := runFixture(t, l, suppressed); len(diags) != 0 {
		t.Fatalf("suppressed fixture still reports:\n%s", renderDiags(diags))
	}

	missingReason := fixture{
		name:     "simclock_badsuppression",
		analyzer: "simclock",
		pkgPath:  "mpipart/internal/core",
		src: `package core
import "time"
func f() {
	//lint:ignore mpivet/simclock
	time.Sleep(time.Millisecond)
}
`,
	}
	diags := runFixture(t, l, missingReason)
	if len(diags) != 2 {
		t.Fatalf("want malformed-directive + original finding, got:\n%s", renderDiags(diags))
	}
	foundDirective := false
	for _, d := range diags {
		if d.Rule == "lint-directive" && strings.Contains(d.Message, "needs a reason") {
			foundDirective = true
		}
	}
	if !foundDirective {
		t.Errorf("missing lint-directive finding:\n%s", renderDiags(diags))
	}

	wrongRule := fixture{
		name:     "simclock_wrongrule",
		analyzer: "simclock",
		pkgPath:  "mpipart/internal/core",
		src: `package core
import "time"
func f() {
	//lint:ignore mpivet/kernelpurity reason that names another rule
	time.Sleep(time.Millisecond)
}
`,
	}
	diags = runFixture(t, l, wrongRule)
	if len(diags) != 1 || diags[0].Rule != "simclock" {
		t.Fatalf("directive for another rule must not suppress, got:\n%s", renderDiags(diags))
	}
}

func renderDiags(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	if b.Len() == 0 {
		return "  (none)\n"
	}
	return b.String()
}
