package mpi

import (
	"mpipart/internal/sim"
)

// Progressor is a unit of work the progression engine advances: an active
// partitioned request (watching device flags, issuing host-side Pready
// puts) or a partitioned-collective schedule (Algorithm 2).
//
// ProgressTask advances the item with the engine Task's continuation
// primitives and must arrange for done(didWork, stillActive) to be called
// exactly once, either synchronously before returning or from a
// continuation step after the item's suspension chain finishes. didWork is
// whether any state advanced (used to decide whether the engine may park),
// stillActive is whether the item should remain registered.
type Progressor interface {
	ProgressTask(t *sim.Task, done func(didWork, stillActive bool))
}

// Engine is the per-rank MPI progression engine: a continuation Task that
// advances registered items and progresses the UCP worker (running
// put-completion callbacks such as the chained receive-side arrival-flag
// puts). It is event-driven: every wake source of the partitioned library —
// device MPIX_Pready flags in pinned host memory, delivered active
// messages, queued put completions — broadcasts the worker's condition
// variable, on which the engine parks when it has nothing to do. On waking
// it charges one polling interval, modelling the detection latency of the
// real engine's poll loop.
//
// The engine is a state machine with the pass structure of a poll loop
// (scan items, progress the worker, park if idle); each wake costs a
// function call, not a coroutine switch, and every item runs its
// continuation chain on the engine's own Task.
type Engine struct {
	r       *Rank
	items   []Progressor
	scratch []Progressor // retired scan buffer, reused to stop per-pass growth
	task    *sim.Task

	// Scan state for the pass in flight.
	old []Progressor // items being scanned this pass
	oi  int          // index of the item in flight
	did bool         // any item (or the worker) made progress

	// Continuation steps, bound once so the steady state allocates nothing.
	fnPass       sim.TaskFn
	fnItems      sim.TaskFn
	fnWorkerDone sim.TaskFn
	fnIdleWake   sim.TaskFn
	fnItemDone   func(didWork, stillActive bool)
}

func newEngine(r *Rank) *Engine {
	e := &Engine{r: r}
	e.fnPass = e.stepPass
	e.fnItems = e.stepItems
	e.fnWorkerDone = e.stepWorkerDone
	e.fnIdleWake = e.stepIdleWake
	e.fnItemDone = e.finishItem
	e.task = r.W.K.SpawnTaskDaemonID("progress", r.ID, e.fnPass)
	return e
}

// Register adds an item and wakes the engine.
func (e *Engine) Register(it Progressor) {
	e.items = append(e.items, it)
	e.r.Worker.Cond().Broadcast()
}

// Active reports the number of registered items (for tests).
func (e *Engine) Active() int { return len(e.items) }

// stepPass starts one engine pass: swap out the item list so Register calls
// made from inside an item's progress (e.g. a collective arming a next
// phase) land on the fresh list and are retained.
func (e *Engine) stepPass(t *sim.Task) {
	e.did = false
	if len(e.items) > 0 {
		e.old = e.items
		e.items = e.scratch[:0]
	}
	e.oi = 0
	// Continue inline (same dispatch, no event): stepItems fans out through
	// the Progressor interface to item implementations that may format
	// sanitizer diagnostics, which keeps it out of the designated hot set.
	t.Then(e.fnItems)
}

// stepItems advances the next registered item, or moves on to the worker
// when the scan is complete. The item runs its continuation chain in place.
func (e *Engine) stepItems(t *sim.Task) {
	if e.oi >= len(e.old) {
		// Scan done: recycle the retired buffer for the next pass and
		// progress the worker's callback queue.
		if e.old != nil {
			for i := range e.old {
				e.old[i] = nil
			}
			e.scratch = e.old[:0]
			e.old = nil
		}
		e.r.Worker.ProgressTask(t, e.fnWorkerDone)
		return
	}
	e.old[e.oi].ProgressTask(t, e.fnItemDone)
}

// finishItem records one item's progress result and continues the scan. It
// runs after the item's progress completed — synchronously or at the end of
// its suspension chain — so a Register made during progress lands in
// e.items before the item's own re-append.
func (e *Engine) finishItem(didWork, stillActive bool) {
	e.did = e.did || didWork
	if stillActive {
		e.items = append(e.items, e.old[e.oi])
	}
	e.oi++
	e.task.Then(e.fnItems)
}

// stepWorkerDone closes the pass after the worker's callback queue drained:
// loop immediately if anything progressed, otherwise park on the worker's
// condition variable.
func (e *Engine) stepWorkerDone(t *sim.Task) {
	if e.r.Worker.TaskProgressed() > 0 {
		e.did = true
	}
	if !e.did {
		e.r.Worker.Cond().Await(t)
		t.Then(e.fnIdleWake)
		return
	}
	t.Then(e.fnPass)
}

// stepIdleWake charges the detection latency after an idle wake: the real
// engine polls; model the average delay between an event becoming visible
// and the poll loop acting on it.
func (e *Engine) stepIdleWake(t *sim.Task) {
	t.Then(e.fnPass)
	t.Sleep(e.r.W.Model.ProgressPollInterval)
}
