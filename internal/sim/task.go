package sim

import (
	"fmt"
	"strconv"
)

// This file implements the continuation (Task) half of the scheduler: a
// state-machine actor that runs directly on the event heap with zero
// goroutines and zero stacks. See the package doc's "Continuation scheduler"
// section and DESIGN.md for the model.
//
// A Task and a Proc are interchangeable from the kernel's point of view:
// both occupy actorRef slots in the run queue and in every Cond waiter ring,
// both park on the same (at, phase, pri, seq)-ordered event heap, and a
// Task's Sleep replicates WaitUntil's fused fast paths decision-for-decision
// — so converting an actor from Proc to Task leaves every virtual-time trace
// bit-identical. What changes is the host cost: a parked Task is three words
// in an event struct instead of a coroutine stack, and a dispatch is a
// direct function call instead of two coroutine switches.

// TaskFn is one step of a Task state machine. A step runs to completion on
// the scheduler's own goroutine; before returning it arms what happens next
// with Then / Sleep / an Await on a primitive / CallProc. Returning without
// arming anything completes the Task.
type TaskFn func(t *Task)

// suspendState records how the current step left the Task when it returned.
type suspendState uint8

const (
	// suspNone: the step armed nothing — the Task is done and is reaped.
	suspNone suspendState = iota
	// suspInline: continue with t.fn immediately, inside the same dispatch
	// (armed by Then alone, or by a Sleep that hit a fused fast path).
	suspInline
	// suspParked: a wake is armed — a timer event, a waiter-ring slot, or a
	// bridged proc call — and the trampoline must return to the scheduler.
	suspParked
)

// Task is a continuation-based simulated actor: a state machine whose steps
// run directly on the scheduler instead of on a dedicated goroutine. Leaf
// service actors (progression engines, GPU stream serve loops) are Tasks;
// user-facing rank bodies stay Procs, where imperative blocking code is worth
// a stack.
//
// All methods must be called from inside a running step (they arm the
// continuation for when the step returns).
type Task struct {
	k      *Kernel
	name   string // prefix; nameID >= 0 appends a lazily-rendered integer
	nameID int
	id     int

	fn   TaskFn // the next (or currently running) step
	susp suspendState

	state   procState
	reason  blockReason
	liveIdx int // index into k.liveTasks, for O(1) reap
	daemon  bool

	// Coroutine escape hatch: CallProc runs a blocking func(p *Proc) body on
	// a lazily created, persistent bridge proc owned by this Task.
	bridge   *Proc
	bridgeFn func(p *Proc)
	onBridge bool // the trampoline is currently running on the bridge proc
}

// Kernel returns the simulation kernel this Task belongs to.
func (t *Task) Kernel() *Kernel { return t.k }

// Now returns the current virtual time.
func (t *Task) Now() Time { return t.k.now }

// Name returns the diagnostic name. Names are rendered lazily from a shared
// prefix plus an integer id (SpawnTaskDaemonID), so spawning 100k actors
// performs no string formatting up front.
func (t *Task) Name() string {
	if t.nameID < 0 {
		return t.name
	}
	return t.name + strconv.Itoa(t.nameID)
}

// spawnTask creates a Task whose first step runs at the current virtual
// time, exactly like a Proc spawned with Go: it joins the run queue
// immediately and its first dispatch counts like a first resume.
func (k *Kernel) spawnTask(prefix string, id int, daemon bool, fn TaskFn) *Task {
	k.nextID++
	t := &Task{
		k:       k,
		name:    prefix,
		nameID:  id,
		id:      k.nextID,
		fn:      fn,
		state:   stateNew,
		liveIdx: len(k.liveTasks),
		daemon:  daemon,
	}
	k.liveTasks = append(k.liveTasks, t)
	k.readyTask(t)
	return t
}

// SpawnTask creates a Task running fn as its first step, runnable at the
// current virtual time.
func (k *Kernel) SpawnTask(name string, fn TaskFn) *Task {
	return k.spawnTask(name, -1, false, fn)
}

// SpawnTaskID is SpawnTask with a lazily rendered "prefix<id>" name.
func (k *Kernel) SpawnTaskID(prefix string, id int, fn TaskFn) *Task {
	return k.spawnTask(prefix, id, false, fn)
}

// SpawnTaskDaemon creates a daemon Task: a service actor that legitimately
// stays parked forever once its work is done (progression engines, stream
// serve loops). Daemons left parked at simulation end are not a deadlock.
func (k *Kernel) SpawnTaskDaemon(name string, fn TaskFn) *Task {
	return k.spawnTask(name, -1, true, fn)
}

// SpawnTaskDaemonID is SpawnTaskDaemon with a lazily rendered "prefix<id>"
// name.
func (k *Kernel) SpawnTaskDaemonID(prefix string, id int, fn TaskFn) *Task {
	return k.spawnTask(prefix, id, true, fn)
}

// readyTask appends t to the run queue (the Task analogue of ready).
func (k *Kernel) readyTask(t *Task) {
	if t.state == stateDone {
		panic("sim: readying a finished task " + t.Name())
	}
	t.state = stateReady
	t.reason = blockReason{}
	k.runq.push(actorRef{t: t})
}

// readyActor readies whichever actor the ref holds. It is how the waiter
// rings wake a mixed proc/task FIFO without branching at every push.
func (k *Kernel) readyActor(a actorRef) {
	if a.p != nil {
		k.ready(a.p)
		return
	}
	k.readyTask(a.t)
}

// reapTask removes t from the live set in O(1), mirroring reap.
func (k *Kernel) reapTask(t *Task) {
	i := t.liveIdx
	last := len(k.liveTasks) - 1
	k.liveTasks[i] = k.liveTasks[last]
	k.liveTasks[i].liveIdx = i
	k.liveTasks[last] = nil
	k.liveTasks = k.liveTasks[:last]
	t.liveIdx = -1
}

// runTask is one scheduler dispatch of a Task: the continuation analogue of
// resume, with the same accounting — one dispatch per wake, regardless of
// how many fused inline steps the trampoline runs.
func (k *Kernel) runTask(t *Task) {
	k.dispatched++
	defer k.recoverTask(t)
	k.stepTask(t)
}

// taskPanicError defers the formatting of a task panic to Error(), keeping
// the dispatch path free of fmt (the panic value and name render lazily,
// like blockReason).
type taskPanicError struct {
	t   *Task
	val any
}

func (e *taskPanicError) Error() string {
	return fmt.Sprintf("sim: task %q panicked: %v", e.t.Name(), e.val)
}

// recoverTask converts a panic in a Task step into the kernel's panicked
// error, exactly as the Proc spawn wrapper does for goroutine bodies.
func (k *Kernel) recoverTask(t *Task) {
	r := recover()
	if r == nil {
		return
	}
	if k.panicked == nil {
		k.panicked = &taskPanicError{t: t, val: r}
	}
	t.state = stateDone
	if t.liveIdx >= 0 {
		k.reapTask(t)
	}
}

// stepTask is the trampoline: it runs steps until the Task parks or
// completes. A step that armed only Then (or hit a fused Sleep fast path)
// continues immediately — the continuation analogue of a proc running
// through a zero-cost WaitUntil without yielding.
func (k *Kernel) stepTask(t *Task) {
	for {
		t.susp = suspNone
		t.state = stateRunning
		t.reason = blockReason{}
		t.fn(t)
		switch t.susp {
		case suspInline:
			continue
		case suspParked:
			if t.bridgeFn != nil && !t.onBridge {
				// A step armed CallProc from the scheduler side: hand control
				// to the bridge proc now, synchronously, exactly where a
				// goroutine actor would have called the blocking body inline.
				// Deliberately not counted as a dispatch — the wake that
				// started this trampoline already was.
				k.handoff(t.bridge)
			}
			return
		default:
			t.state = stateDone
			k.reapTask(t)
			return
		}
	}
}

// Then arms fn as the next step. Alone it means "continue with fn in this
// same dispatch"; followed by Sleep/Await/CallProc it names the step that
// runs after the wake. Both orders (Then-then-Sleep, Sleep-then-Then) are
// equivalent.
func (t *Task) Then(fn TaskFn) {
	t.fn = fn
	if t.susp == suspNone {
		t.susp = suspInline
	}
}

// Sleep arms the continuation to run after d nanoseconds of virtual time,
// replicating Proc.Wait's semantics (negative clamps to zero) and fused fast
// paths, so a converted actor draws identical event sequence numbers.
func (t *Task) Sleep(d Duration) {
	if d < 0 {
		d = 0
	}
	t.SleepUntil(t.k.now.Add(d))
}

// SleepUntil arms the continuation to run at absolute virtual time at. The
// fast-path conditions are copied from Proc.WaitUntil decision-for-decision;
// where a proc would return without yielding, the task continues inline in
// the same dispatch — neither consumes a sequence number, so the event-heap
// state stays bit-identical across the Proc/Task boundary.
func (t *Task) SleepUntil(at Time) {
	k := t.k
	if t.susp == suspParked {
		panic("sim: task " + t.Name() + " suspended twice in one step")
	}
	if at <= k.now {
		if k.runq.empty() && len(k.events) == 0 {
			// Fused zero-length wait: nothing else can run; continue inline.
			t.susp = suspInline
			return
		}
		at = k.now
	} else if k.runq.empty() && !k.stopped && (len(k.events) == 0 || k.events[0].at > at) {
		// Lone-timer fast path: the scheduler's only possible move is to
		// advance the clock to at and run this task's continuation.
		k.now = at
		t.susp = suspInline
		return
	}
	k.events.push(event{at: at, seq: k.nextSeq(), phase: phaseWake, task: t})
	t.susp = suspParked
	t.state = stateTimed
	t.reason = blockReason{kind: blockTimer, t: at}
}

// park suspends t on a waiter ring the caller has already pushed it onto
// (Cond.Await and friends). On wake the armed step runs — by default the
// same step again, giving the standard "re-check the predicate" loop for
// free.
func (t *Task) park(on blockReason) {
	if t.susp == suspParked {
		panic("sim: task " + t.Name() + " suspended twice in one step")
	}
	t.susp = suspParked
	t.state = stateBlocked
	t.reason = on
}

// CallProc runs fn — arbitrary imperative code that may block with
// Proc-style Wait/Cond.Wait calls — on the Task's bridge proc, a persistent
// helper coroutine created lazily on first use. When fn returns, the Task's
// armed continuation runs (on the bridge proc, so no extra handoff or
// dispatch is spent). The bridge is how Task actors drive legacy blocking
// code (collective progress, fused NCCL ops) without converting it; its
// parks and wakes land on the same event heap slots the code's previous
// goroutine owner used, so virtual time is unchanged.
//
// The bridge proc is always a daemon: in a deadlock it is the Task that is
// reported, with reason "bridge".
func (t *Task) CallProc(fn func(p *Proc)) {
	if t.susp == suspParked {
		panic("sim: task " + t.Name() + " suspended twice in one step")
	}
	if t.bridge == nil {
		t.bridge = t.k.newBridgeProc(t)
	}
	t.bridgeFn = fn
	t.susp = suspParked
	t.state = stateBlocked
	t.reason = blockReason{kind: blockCond, name: "bridge"}
}

// newBridgeProc creates the persistent bridge proc for t. It does NOT go
// through Go: the bridge must never join the run queue on its own (that
// would perturb the schedule) — it is resumed only by direct handoff from
// stepTask and by the timer/cond wakes its blocking body arms.
func (k *Kernel) newBridgeProc(t *Task) *Proc {
	p := k.newProc(t.name, t.nameID)
	p.daemon = true
	p.start(t.bridgeLoop)
	return p
}

// bridgeLoop is the bridge proc's body: run the armed blocking call, then
// continue the Task's state machine in place, and park idle until the next
// CallProc handoff. Running the trampoline here means a Task step that
// immediately arms another CallProc is picked up iteratively with no
// scheduler round trip — the same control flow a proc actor had when it
// called two blocking operations back to back.
func (t *Task) bridgeLoop(p *Proc) {
	k := t.k
	defer func() {
		if r := recover(); r != nil {
			if _, poison := r.(procPoison); !poison && k.panicked == nil {
				k.panicked = &taskPanicError{t: t, val: r}
			}
		}
	}()
	for {
		fn := t.bridgeFn
		if fn == nil {
			// Nothing armed: the Task parked on a timer/cond (or completed)
			// from a bridged step. Park until the next CallProc handoff.
			p.block(stateBlocked, blockReason{kind: blockCond, name: "bridge-idle"})
			continue
		}
		t.bridgeFn = nil
		fn(p)
		k.continueBridged(t)
	}
}

// continueBridged runs the Task trampoline on the bridge proc after a
// bridged call returns. The scheduler is parked in a handoff for the whole
// time, so exactly one actor still runs at any instant.
func (k *Kernel) continueBridged(t *Task) {
	t.onBridge = true
	k.stepTask(t)
	t.onBridge = false
}
