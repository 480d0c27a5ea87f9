package analysis

import (
	"strings"
	"testing"
)

// taskstateSimStub declares the slice of the continuation-Task API the
// fixtures exercise. The analyzer matches it by package-path suffix and
// primitive identity, exactly as it matches the real internal/sim.
const taskstateSimStub = `package sim
type Proc struct{}
func (p *Proc) Wait(d int64)      {}
func (p *Proc) WaitUntil(at int64) {}
type Task struct{}
type TaskFn func(t *Task)
func (t *Task) Then(fn TaskFn)      {}
func (t *Task) Sleep(d int64)       {}
func (t *Task) SleepUntil(at int64) {}
func (t *Task) Now() int64          { return 0 }
type Cond struct{}
func (c *Cond) Wait(p *Proc)  {}
func (c *Cond) Await(t *Task) {}
func (c *Cond) Broadcast()    {}
type Gate struct{}
func (g *Gate) Wait(p *Proc)       {}
func (g *Gate) Await(t *Task) bool { return true }
type Counter struct{}
func (c *Counter) WaitAtLeast(p *Proc, n int)        {}
func (c *Counter) AwaitAtLeast(t *Task, n int) bool  { return true }
type Queue struct{}
func (q *Queue) Pop(p *Proc) int             { return 0 }
func (q *Queue) PopAwait(t *Task) (int, bool) { return 0, true }
type Kernel struct{}
func (k *Kernel) SpawnTask(name string, fn TaskFn) *Task       { return nil }
func (k *Kernel) SpawnTaskDaemon(name string, fn TaskFn) *Task { return nil }
`

func taskstatePkgs(actor string) []pkgSrc {
	return []pkgSrc{
		{path: "mpipart/internal/sim", files: map[string]string{"sim.go": taskstateSimStub}},
		{path: "mpipart/internal/actor", files: map[string]string{"actor.go": actor}},
	}
}

// TestTaskStateFixtures pins the taskstate analyzer: the four checks of the
// continuation-Task discipline, each with firing and non-firing shapes, plus
// the CFG corner cases the typestate walk traverses (select with default,
// labeled goto into a loop body, defer/recover).
func TestTaskStateFixtures(t *testing.T) {
	fixtures := []interpFixture{
		{
			// Blocking reached two hops below a step through helpers with no
			// Task parameter: only the transitive blocks-bit sees it.
			name:     "taskstate_blocking_two_hops_fires",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
var q sim.Queue
func step(t *sim.Task) { drain() }
func drain()           { pump() }
func pump()            { _ = q.Pop(nil) }
`),
			want:      []string{"call of actor.drain from Task context transitively parks the proc"},
			wantChain: []string{"actor.drain", "actor.pump", "sim.Queue.Pop"},
		},
		{
			// A proc-only wait primitive called directly from a step.
			name:     "taskstate_proc_api_in_step_fires",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
var c sim.Cond
func step(t *sim.Task) { c.Wait(nil) }
`),
			want: []string{"proc-only blocking API sim.Cond.Wait called from Task context"},
		},
		{
			// Double suspension, branch-correlated: both branches park, so the
			// trailing Sleep parks a second time on EVERY path. A straight
			// intra-procedural scan of either branch alone sees one park.
			name:     "taskstate_double_park_all_paths_fires",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
var fast bool
func step(t *sim.Task) {
	if fast {
		t.Sleep(1)
	} else {
		t.Sleep(2)
	}
	t.Sleep(3)
}
`),
			want: []string{"task suspended twice in one step: t.Sleep parks while a suspension is already outstanding on every path"},
		},
		{
			// The park hides inside a helper that takes the task: the second
			// call splices the helper's must-park summary.
			name:     "taskstate_double_park_via_helper_fires",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
func armAndPark(t *sim.Task) { t.Sleep(3) }
func step(t *sim.Task) {
	armAndPark(t)
	armAndPark(t)
}
`),
			want:      []string{"task suspended twice in one step"},
			wantChain: []string{"actor.armAndPark"},
		},
		{
			// Arming a freshly spawned task from the spawner: the spawner is
			// not the running step.
			name:     "taskstate_spawner_arming_fires",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
func launch(k *sim.Kernel, fn sim.TaskFn) {
	tk := k.SpawnTask("x", fn)
	tk.Sleep(3)
}
`),
			want: []string{"tk.Sleep called from the spawning function"},
		},
		{
			// PopAwait forks {running, parked}; the trailing Sleep is NOT
			// parked on every path, so must-violation semantics keep the
			// engine's real conditional-wait idiom silent.
			name:     "taskstate_maybe_park_then_sleep_silent",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
var q sim.Queue
func step(t *sim.Task) {
	v, ok := q.PopAwait(t)
	if !ok {
		return
	}
	_ = v
	t.Sleep(2)
}
`),
			want: nil,
		},
		{
			// Await-then-Then: arming the next step after parking is the
			// documented legal pattern (engine stepWorkerDone).
			name:     "taskstate_await_then_then_silent",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
var c sim.Cond
func stepIdle(t *sim.Task) {}
func step(t *sim.Task) {
	c.Await(t)
	t.Then(stepIdle)
}
`),
			want: nil,
		},
		{
			// Then-then-Sleep: inline arming plus a single park (engine
			// stepIdleWake / core preadyTask).
			name:     "taskstate_then_then_sleep_silent",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
func next(t *sim.Task) {}
func step(t *sim.Task) {
	t.Then(next)
	t.Sleep(5)
}
`),
			want: nil,
		},
		{
			// A helper with a must-park summary called once is one park.
			name:     "taskstate_helper_single_park_silent",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
func armAndPark(t *sim.Task) { t.Sleep(3) }
func step(t *sim.Task) { armAndPark(t) }
`),
			want: nil,
		},
		{
			// Engine idiom: the spawner stores the task in a field and arms
			// nothing locally — field-stored tasks are not tracked.
			name:     "taskstate_field_task_silent",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
type engine struct{ task *sim.Task }
func (e *engine) start(k *sim.Kernel, fn sim.TaskFn) {
	e.task = k.SpawnTaskDaemon("p", fn)
}
func (e *engine) finish(t *sim.Task) { e.task.Then(nil) }
`),
			want: nil,
		},
		// ---- CFG corner cases the typestate walk traverses ----
		{
			// select with default inside a step: every clause (including
			// default) parks, then the trailing Sleep double-parks.
			name:     "taskstate_select_default_fires",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
var ch chan int
func step(t *sim.Task) {
	select {
	case <-ch:
		t.Sleep(1)
	default:
		t.Sleep(2)
	}
	t.Sleep(3)
}
`),
			want: []string{"task suspended twice in one step: t.Sleep parks"},
		},
		{
			// select with default where only one clause parks: the join is
			// {running, parked}, so the trailing Sleep stays silent.
			name:     "taskstate_select_default_one_arm_silent",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
var ch chan int
func step(t *sim.Task) {
	select {
	case <-ch:
		t.Sleep(1)
	default:
	}
	t.Sleep(3)
}
`),
			want: nil,
		},
		{
			// Labeled goto to a label inside the loop body: both edges into
			// the label — loop entry after the first Sleep, and the backward
			// goto after the second — carry a parked state, so the labeled
			// Sleep parks twice on every path.
			name:     "taskstate_goto_into_loop_fires",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
var retry bool
func step(t *sim.Task) {
	t.Sleep(1)
	for {
	L:
		t.Sleep(2)
		if retry {
			return
		}
		goto L
	}
}
`),
			want: []string{"task suspended twice in one step: t.Sleep parks"},
		},
		{
			// defer/recover in a step: the deferred closure does not touch the
			// task, and a single park stays single.
			name:     "taskstate_defer_recover_silent",
			analyzer: "taskstate",
			pkgs: taskstatePkgs(`package actor
import "mpipart/internal/sim"
var count int
func step(t *sim.Task) {
	defer func() {
		if r := recover(); r != nil {
			count++
		}
	}()
	t.Sleep(1)
}
`),
			want: nil,
		},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			diags := runInterpFixture(t, fx)
			if len(diags) != len(fx.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(fx.want), raceDiagDump(diags))
			}
			for i, want := range fx.want {
				if !strings.Contains(diags[i].Message, want) {
					t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, want)
				}
			}
			if len(fx.wantChain) > 0 {
				if len(diags) == 0 {
					t.Fatal("wantChain set but no findings")
				}
				chain := renderChain(diags[0].Chain)
				idx := 0
				for _, step := range fx.wantChain {
					at := strings.Index(chain[idx:], step)
					if at < 0 {
						t.Fatalf("chain %q missing %q (in order)", chain, step)
					}
					idx += at
				}
			}
		})
	}
}
