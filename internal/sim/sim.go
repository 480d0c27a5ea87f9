// Package sim implements a deterministic, process-oriented discrete-event
// simulation kernel. It is the substrate on which the whole GH200 testbed
// reproduction runs: every simulated actor (MPI rank host thread, MPI
// progression engine, GPU stream, NIC pipe) is a Proc — a stdlib coroutine
// (iter.Pull) that the scheduler resumes directly, exactly one at a time,
// under a virtual nanosecond clock — or a continuation Task (task.go).
//
// The design follows the classic SimPy "process interaction" model:
//
//   - A Proc runs real Go code. When it needs virtual time to pass it calls
//     Wait/WaitUntil; when it needs to block on a condition it calls
//     Cond.Wait. Control then returns to the scheduler, which advances the
//     clock to the next event.
//   - Events (Kernel.At / Kernel.After) run callbacks at absolute virtual
//     times without a dedicated Proc; they are used for transfer completions
//     and other fire-and-forget completions.
//
// Because only one Proc executes at any instant and all wake-ups are ordered
// by (time, sequence number), a simulation is fully deterministic: the same
// program produces the same virtual-time trace on every run. That property is
// what makes every figure in the paper reproduction bit-for-bit repeatable.
//
// # Scheduler internals
//
// Since this is the hottest path in the repository (every figure bottoms out
// here), the kernel keeps its steady state allocation-free:
//
//   - The timed event queue is an inline 4-ary min-heap over value event
//     structs — no container/heap interface boxing, no per-At pointer
//     allocation, half the tree depth of a binary heap.
//   - A timer wake stores the *Proc directly in the event instead of a
//     closure, so WaitUntil allocates nothing in steady state.
//   - The run queue and all waiter lists are power-of-two ring buffers with
//     O(1) push/pop (see ring.go); the live set reaps in O(1) by index.
//   - Blocked-proc diagnostics are a typed blockReason rendered lazily by
//     describeBlocked — the hot path never calls fmt.
//   - Handoffs are fused where the outcome is forced: a timer wake with an
//     empty run queue resumes the proc directly, a zero-length wait with
//     nothing else runnable returns immediately, and same-timestamp event
//     callbacks are batched without re-entering the dispatch loop.
//
// The mpivet analyzer hotpathalloc enforces the "no fmt / no closures / no
// string concat" property on the scheduler-path functions.
//
// # Same-timestamp semantics and schedule perturbation
//
// The kernel splits same-timestamp ordering into defined and arbitrary
// parts:
//
//   - Defined: procs resume in FIFO arrival order (ready queue, cond waiter
//     lists, timer wakes by schedule order) — the SimPy-style contract that
//     model code may rely on, pinned by the cond FIFO tests. And, as a
//     delta-cycle rule borrowed from HDL simulators, all callbacks at time t
//     (phase 0: transfer completions, flag writes) run before any proc
//     waking at t (phase 1) observes the state — a poll that wakes exactly
//     when a completion lands always sees it, regardless of scheduling
//     order.
//   - Arbitrary: the relative order of the callbacks themselves. They model
//     asynchronous completions from independent sources (NIC deliveries,
//     DMA completions), which real hardware does not order.
//
// ShuffleTieBreaks (or a process-wide SetShuffleSeed) perturbs exactly the
// arbitrary part: same-timestamp callbacks run in a seeded-PRNG order
// instead of schedule order, while virtual time and the defined FIFO
// semantics are untouched. A perturbed run is still deterministic per seed,
// so any divergence in observable results between seeds is a reproducible
// witness of hidden dependence on simultaneous-event arrival order.
// cmd/benchgate -shuffle-seeds gates the golden baselines on invariance
// under N such seeds.
package sim

import (
	"fmt"
	"math/rand"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"
)

// Time is an absolute virtual time in nanoseconds since the start of the
// simulation.
type Time int64

// Duration is a span of virtual time in nanoseconds.
type Duration int64

// Convenience duration constructors, mirroring time.Duration granularities.
const (
	Nanosecond  Duration = 1
	Microsecond Duration = 1000
	Millisecond Duration = 1000 * 1000
	Second      Duration = 1000 * 1000 * 1000
)

// Microseconds converts a float microsecond count to a Duration. Like
// Nanoseconds it panics when the count does not fit.
func Microseconds(us float64) Duration { return Nanoseconds(us * 1000) }

// Nanoseconds converts a float nanosecond count to a Duration. A count
// outside the int64 range, infinite or NaN — a model bandwidth near zero,
// say — panics with a virtual time overflow instead of converting to an
// arbitrary (on amd64, negative) duration.
func Nanoseconds(ns float64) Duration {
	if !(ns >= -(1<<63) && ns < 1<<63) {
		panic(overflowError{ns: ns})
	}
	return Duration(ns)
}

// Add returns t+d. A sum outside the int64 range panics with a virtual time
// overflow: a wrapped clock would run backwards, and every timer armed from
// it would fire at once.
func (t Time) Add(d Duration) Time {
	s := t + Time(d)
	if (s > t) != (d > 0) {
		panic(overflowError{t: t, d: d})
	}
	return s
}

// overflowError is the panic value of a virtual time overflow: either a
// float count ns that is no Duration, or a sum t+d outside the int64 range.
// Formatting happens only when the panic is reported, so the checks cost
// their callers no inlining budget beyond a compare and a branch.
type overflowError struct {
	ns float64
	t  Time
	d  Duration
}

func (e overflowError) Error() string {
	if e.d == 0 {
		return fmt.Sprintf("sim: virtual time overflow: %g ns is not a duration", e.ns)
	}
	return fmt.Sprintf("sim: virtual time overflow: %d ns + %d ns", int64(e.t), int64(e.d))
}

// Micros reports the Time as fractional microseconds (for reporting).
func (t Time) Micros() float64 { return float64(t) / 1000 }

// Seconds reports the Time as fractional seconds (for reporting).
func (t Time) Seconds() float64 { return float64(t) / 1e9 }

// Micros reports the Duration as fractional microseconds (for reporting).
func (d Duration) Micros() float64 { return float64(d) / 1000 }

// Seconds reports the Duration as fractional seconds (for reporting).
func (d Duration) Seconds() float64 { return float64(d) / 1e9 }

func (t Time) String() string     { return fmt.Sprintf("%.3fus", t.Micros()) }
func (d Duration) String() string { return fmt.Sprintf("%.3fus", d.Micros()) }

// procState tracks where a Proc is in its lifecycle; it exists mostly so
// deadlocks can be reported with useful diagnostics.
type procState int

const (
	stateNew procState = iota
	stateReady
	stateRunning
	stateBlocked // waiting on a Cond
	stateTimed   // waiting for a timer wake-up
	stateDone
)

func (s procState) String() string {
	switch s {
	case stateNew:
		return "new"
	case stateReady:
		return "ready"
	case stateRunning:
		return "running"
	case stateBlocked:
		return "blocked"
	case stateTimed:
		return "timed-wait"
	case stateDone:
		return "done"
	}
	return "unknown"
}

// blockKind classifies what a parked Proc is waiting on.
type blockKind uint8

const (
	blockNone blockKind = iota
	blockTimer
	blockCond
	blockYield
)

// blockReason is the typed diagnostic payload for a parked Proc. It replaces
// the formatted string the kernel used to build on every block: storing the
// kind plus the raw Time / shared name keeps WaitUntil and Cond.Wait
// allocation-free, and the human-readable form is rendered only if a
// deadlock report actually needs it (describeBlocked).
type blockReason struct {
	kind blockKind
	t    Time   // blockTimer: the wake-up time
	name string // blockCond: the condition's name (shared, never formatted)
}

// String renders the reason in the exact format earlier kernels stored
// eagerly, so deadlock reports are unchanged.
func (r blockReason) String() string {
	switch r.kind {
	case blockNone:
		return ""
	case blockTimer:
		return fmt.Sprintf("timer@%v", r.t)
	case blockCond:
		return "cond:" + r.name
	case blockYield:
		return "yield"
	}
	return ""
}

// procPoison unwinds a parked proc's coroutine when Run drains its kernel.
// It is recovered — and swallowed — by Proc.exit (the bridge loop's own
// defer for bridge procs), so user defers run and the coroutine (with its
// stack) is freed instead of staying parked.
type procPoison struct{}

// Proc is a simulated process: a stdlib coroutine the scheduler resumes
// with next and that parks itself with yield, so a wake is a direct
// coroutine switch rather than a goroutine handoff. All methods must be
// called from inside the Proc body (they yield control to the scheduler).
type Proc struct {
	k       *Kernel
	name    string // prefix; nameID >= 0 appends a lazily-rendered integer
	nameID  int
	id      int
	next    func() (struct{}, bool) // resume until the next park; false once done
	stop    func()                  // unwind a parked body (drain)
	yield   func(struct{}) bool     // park; false once stop was called
	state   procState
	reason  blockReason // diagnostic: what the proc is blocked on
	liveIdx int         // index into k.live, for O(1) reap
	daemon  bool        // daemons may remain blocked at simulation end
}

// Name returns the diagnostic name given to Go/GoID. Names spawned with an
// integer id (GoID/GoDaemonID) are rendered lazily, so spawning 100k procs
// performs no string formatting up front.
func (p *Proc) Name() string {
	if p.nameID < 0 {
		return p.name
	}
	return p.name + strconv.Itoa(p.nameID)
}

// Kernel returns the simulation kernel this Proc belongs to.
func (p *Proc) Kernel() *Kernel { return p.k }

// Now returns the current virtual time.
func (p *Proc) Now() Time { return p.k.now }

// event is a scheduled wake-up: either a callback (fn) or a parked proc to
// make ready (proc != nil). Storing the proc directly lets WaitUntil
// schedule its own wake without allocating a closure; events are values in
// the heap slice, so steady-state At/WaitUntil allocate nothing.
//
// Same-timestamp event ordering is two-keyed:
//
//   - phase is the semantic delta-cycle rule (as in HDL simulators):
//     callbacks (phase 0) complete state transitions — transfer
//     completions, flag writes — before any proc waking at the same time
//     (phase 1) observes the state. A poll loop that wakes at exactly the
//     instant a completion lands therefore always sees it, regardless of
//     which event was scheduled first. That makes model results invariant
//     under tie-break perturbation instead of depending on arrival order.
//   - pri is the schedule-perturbation tiebreaker: always zero in normal
//     runs (so ordering degrades to (at, phase, seq)), drawn from the
//     kernel's shuffle PRNG for callbacks in perturbation mode so
//     simultaneous completions pop in a seed-determined random order.
//     Timer wakes never draw a pri: proc resumption order is defined FIFO
//     semantics.
type event struct {
	at    Time
	seq   uint64
	pri   uint64
	phase uint8
	fn    func()
	proc  *Proc
	task  *Task
}

// actorRef is one run-queue or waiter-ring slot: either a goroutine-backed
// Proc or a continuation-based Task (task.go). Exactly one field is non-nil.
// Procs and Tasks share every queue so their FIFO interleaving — and hence
// every virtual-time trace — is identical regardless of which form an actor
// takes.
type actorRef struct {
	p *Proc
	t *Task
}

// Delta-cycle phases of same-timestamp events.
const (
	phaseCallback uint8 = 0 // At/After callbacks: state transitions
	phaseWake     uint8 = 1 // timer wakes: procs observing the state
)

// eventHeap is an inline 4-ary min-heap ordered by (at, phase, pri, seq).
// With all pri zero (the default) the key is a strict total order (seq is
// unique), so pop order — and therefore every virtual-time trace — is
// identical to any other correct priority queue over the same keys. In
// schedule-perturbation mode pri randomizes the order of same-phase
// same-timestamp events while seq still breaks exact pri ties.
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	if h[i].at != h[j].at {
		return h[i].at < h[j].at
	}
	if h[i].phase != h[j].phase {
		return h[i].phase < h[j].phase
	}
	if h[i].pri != h[j].pri {
		return h[i].pri < h[j].pri
	}
	return h[i].seq < h[j].seq
}

// push inserts e and sifts it up.
func (h *eventHeap) push(e event) {
	s := append(*h, e)
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !s.less(i, parent) {
			break
		}
		s[i], s[parent] = s[parent], s[i]
		i = parent
	}
	*h = s
}

// pop removes and returns the minimum. The heap must be non-empty.
func (h *eventHeap) pop() event {
	s := *h
	top := s[0]
	n := len(s) - 1
	s[0] = s[n]
	s[n] = event{} // release fn/proc references
	s = s[:n]
	*h = s
	i := 0
	for {
		first := 4*i + 1
		if first >= n {
			break
		}
		best := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if s.less(c, best) {
				best = c
			}
		}
		if !s.less(best, i) {
			break
		}
		s[i], s[best] = s[best], s[i]
		i = best
	}
	return top
}

// totalDispatched aggregates scheduler dispatches across every kernel in the
// process (updated once per Run, not per event). cmd/benchgate reads it to
// report events/sec.
var totalDispatched int64

// TotalDispatched reports the process-wide number of scheduler dispatches
// (proc resumes + event callbacks) executed by completed Run calls.
func TotalDispatched() int64 { return atomic.LoadInt64(&totalDispatched) }

// totalElided aggregates elided events (see Kernel.elided) across every
// kernel in the process, flushed alongside totalDispatched.
var totalElided int64

// TotalElided reports the process-wide number of scheduler events absorbed
// by closed-form elision (pipe staged-transfer fusion, lazily-settled put
// completions) in completed Run calls. An elided event's work still
// happened — its callbacks rode an existing event or were folded into an
// accessor — so dispatches + elided is the figure comparable to the
// pre-elision dispatch count.
func TotalElided() int64 { return atomic.LoadInt64(&totalElided) }

// Kernel is the simulation scheduler: a virtual clock, a timed event queue
// and a run queue of ready actors.
type Kernel struct {
	now        Time
	events     eventHeap
	runq       ring[actorRef]
	seq        uint64
	nextID     int
	live       []*Proc // all non-done procs, for deadlock diagnostics
	liveTasks  []*Task // all non-done tasks, for deadlock diagnostics
	running    bool
	rng        *rand.Rand
	shuffle    *rand.Rand // non-nil = schedule-perturbation mode (never k.rng)
	timingOnly bool       // payload-free world (SetTimingOnly)
	stopped    bool
	panicked   error
	tracer     *Tracer
	dispatched int64 // proc resumes + event callbacks, for perf reporting
	flushed    int64 // portion of dispatched already added to totalDispatched
	// elided counts scheduler events that were never scheduled because a
	// closed-form path absorbed them: pipe staged-transfer fusion and
	// lazily-settled put completions (see pipe.go and NoteElided).
	elided        int64
	elidedFlushed int64
}

// shuffleSeed is the process-wide schedule-perturbation seed (0 = off).
// cmd/benchgate sets it once before a shuffled sweep; runner workers then
// construct kernels concurrently, so the slot is atomic.
var shuffleSeed atomic.Int64

// SetShuffleSeed enables (non-zero) or disables (zero) schedule-perturbation
// mode for every kernel constructed afterwards. Each kernel derives its own
// shuffle PRNG by mixing the process seed with its NewKernel seed, so a
// shuffled sweep is still fully deterministic per (process seed, kernel
// seed) pair. Set it before constructing kernels, not while a sweep runs.
func SetShuffleSeed(seed int64) { shuffleSeed.Store(seed) }

// NewKernel creates an empty simulation with the clock at zero. The seed
// feeds the deterministic RNG exposed via Rand. If a process-wide shuffle
// seed is set (SetShuffleSeed), the kernel starts in schedule-perturbation
// mode.
func NewKernel(seed int64) *Kernel {
	k := &Kernel{rng: rand.New(rand.NewSource(seed))}
	if s := shuffleSeed.Load(); s != 0 {
		k.ShuffleTieBreaks(s ^ seed*0x9E3779B9)
	}
	return k
}

// ShuffleTieBreaks switches this kernel into schedule-perturbation mode:
// same-timestamp callbacks (At/After events — modelled asynchronous
// completions) run in a seed-determined random order instead of schedule
// order. Everything the kernel defines — virtual time, cross-timestamp
// order, FIFO proc resumption, the callbacks-before-wakes delta-cycle rule
// (see the package doc) — is untouched; only the arrival order among
// simultaneous completions, which the contract leaves arbitrary, is
// randomized. A perturbed run is still fully deterministic for a given
// seed. The perturbation PRNG is separate from Rand(), so model code
// consuming the kernel RNG draws the same stream in both modes.
//
// The mode exists to expose hidden schedule dependence: any observable
// model result (a golden metric, a figure point) that changes under
// shuffled tie-breaks was depending on an event order that real hardware
// does not guarantee.
// cmd/benchgate -shuffle-seeds runs the whole golden sweep under N seeds
// and requires byte-identical results.
func (k *Kernel) ShuffleTieBreaks(seed int64) {
	k.shuffle = rand.New(rand.NewSource(seed))
}

// SetTimingOnly switches the world this kernel drives into timing-only
// payload mode: model code built on it (gpu, ucx, mpi, nccl, coll, dl)
// skips every element-wise payload copy, fold and kernel-body arithmetic,
// and device buffers become length-only views of one shared zero backing.
// Virtual time, events and control-flow hooks are unchanged — they come
// from byte counts and cost models, never from buffer contents — so only
// callers that read no payload value may set it. Set it once, after
// building the world and before spawning its ranks.
func (k *Kernel) SetTimingOnly() {
	if k.dispatched != 0 {
		panic("sim: SetTimingOnly on a kernel that has already run")
	}
	k.timingOnly = true
}

// TimingOnly reports whether the kernel is in timing-only payload mode.
func (k *Kernel) TimingOnly() bool { return k.timingOnly }

// Now returns the current virtual time.
func (k *Kernel) Now() Time { return k.now }

// Rand returns the kernel's deterministic random source.
func (k *Kernel) Rand() *rand.Rand { return k.rng }

// Dispatched reports how many scheduler dispatches (proc resumes + event
// callbacks) this kernel has executed so far.
func (k *Kernel) Dispatched() int64 { return k.dispatched }

// Elided reports how many scheduler events this kernel absorbed by
// closed-form elision instead of dispatching.
func (k *Kernel) Elided() int64 { return k.elided }

// NoteElided records n events absorbed by a closed-form path outside the
// kernel (model layers folding a pure-bookkeeping completion event into a
// lazily-settled counter, as internal/ucx does for callback-free puts).
func (k *Kernel) NoteElided(n int64) { k.elided += n }

// nextSeq returns a monotonically increasing tiebreaker for event ordering.
func (k *Kernel) nextSeq() uint64 {
	k.seq++
	return k.seq
}

// eventPri returns the perturbation tiebreaker for a new callback event:
// zero in normal mode (ordering stays (at, phase, seq)), a shuffle-PRNG
// draw in schedule-perturbation mode. Timer wakes never draw one — proc
// resumption order is defined FIFO semantics, not an arbitrary tie (see
// the package doc). rand.Rand.Uint64 does not allocate, so the hot path
// stays allocation-free in both modes.
func (k *Kernel) eventPri() uint64 {
	if k.shuffle == nil {
		return 0
	}
	return k.shuffle.Uint64()
}

// At schedules fn to run at absolute virtual time t (clamped to now).
func (k *Kernel) At(t Time, fn func()) {
	if t < k.now {
		t = k.now
	}
	k.events.push(event{at: t, seq: k.nextSeq(), pri: k.eventPri(), phase: phaseCallback, fn: fn})
}

// After schedules fn to run d nanoseconds from now.
func (k *Kernel) After(d Duration, fn func()) { k.At(k.now.Add(d), fn) }

// Go creates a new Proc running body. The Proc becomes runnable at the
// current virtual time. Go may be called before Run or from inside a running
// Proc (to spawn helpers such as GPU streams).
func (k *Kernel) Go(name string, body func(p *Proc)) *Proc {
	return k.spawn(name, -1, body)
}

// GoID is Go with a lazily rendered "prefix<id>" name: the formatted string
// is built only if diagnostics actually ask for it, so spawning large worlds
// allocates no names.
func (k *Kernel) GoID(prefix string, id int, body func(p *Proc)) *Proc {
	return k.spawn(prefix, id, body)
}

func (k *Kernel) spawn(name string, nameID int, body func(p *Proc)) *Proc {
	p := k.newProc(name, nameID)
	p.start(body)
	k.ready(p)
	return p
}

// exit is deferred around every proc body (start): it swallows drain's
// poison unwind and records any other panic as the kernel's error.
func (p *Proc) exit() {
	if r := recover(); r != nil {
		if _, poison := r.(procPoison); !poison && p.k.panicked == nil {
			p.k.panicked = fmt.Errorf("sim: proc %q panicked: %v", p.Name(), r)
		}
	}
}

// newProc registers a not-yet-started proc in the live set.
func (k *Kernel) newProc(name string, nameID int) *Proc {
	k.nextID++
	p := &Proc{k: k, name: name, nameID: nameID, id: k.nextID, liveIdx: len(k.live)}
	k.live = append(k.live, p)
	return p
}

// GoDaemon creates a Proc like Go, but marks it as a daemon: a service
// process (GPU stream executor, progression engine) that legitimately blocks
// forever once its work is done. Daemons left blocked at the end of a
// simulation do not count as a deadlock.
func (k *Kernel) GoDaemon(name string, body func(p *Proc)) *Proc {
	p := k.Go(name, body)
	p.daemon = true
	return p
}

// GoDaemonID is GoDaemon with a lazily rendered "prefix<id>" name.
func (k *Kernel) GoDaemonID(prefix string, id int, body func(p *Proc)) *Proc {
	p := k.GoID(prefix, id, body)
	p.daemon = true
	return p
}

// ready appends p to the run queue.
func (k *Kernel) ready(p *Proc) {
	if p.state == stateDone {
		panic("sim: readying a finished proc " + p.Name())
	}
	p.state = stateReady
	p.reason = blockReason{}
	k.runq.push(actorRef{p: p})
}

// resume switches to p's coroutine and returns when it yields back (by
// blocking or finishing).
func (k *Kernel) resume(p *Proc) {
	k.dispatched++
	k.handoff(p)
}

// handoff is resume without the dispatch accounting. Task bridge procs are
// woken through it directly (task.go): the bridge continues work already
// paid for by the wake that started the owning Task's trampoline, so
// counting it again would inflate dispatches/sec.
func (k *Kernel) handoff(p *Proc) {
	p.state = stateRunning
	if _, ok := p.next(); !ok {
		k.reap(p)
	}
}

// reap marks a finished p done and removes it from the live set in O(1):
// the tail proc is swapped into p's slot (every proc carries its own live
// index), replacing the previous linear scan plus copy.
func (k *Kernel) reap(p *Proc) {
	p.state = stateDone
	i := p.liveIdx
	last := len(k.live) - 1
	k.live[i] = k.live[last]
	k.live[i].liveIdx = i
	k.live[last] = nil
	k.live = k.live[:last]
	p.liveIdx = -1
}

// block is called from inside a Proc: it yields control back to the
// scheduler and parks until the proc is next resumed. Once drain has called
// stop — here or in a defer running during that unwind — yield returns
// false and the proc unwinds instead, so its coroutine exits.
func (p *Proc) block(state procState, on blockReason) {
	p.state = state
	p.reason = on
	if !p.yield(struct{}{}) {
		panic(procPoison{})
	}
}

// Wait advances the Proc's virtual time by d. Negative durations are treated
// as zero (yield to same-time peers).
func (p *Proc) Wait(d Duration) {
	if d < 0 {
		d = 0
	}
	p.WaitUntil(p.k.now.Add(d))
}

// WaitUntil parks the Proc until absolute virtual time t.
func (p *Proc) WaitUntil(t Time) {
	k := p.k
	if t <= k.now {
		// Fused fast path: with no ready peers and no pending events, a
		// zero-length wait would bounce through the scheduler (two coroutine
		// switches) only to be resumed immediately with the clock unmoved.
		if k.runq.empty() && len(k.events) == 0 {
			return
		}
		t = k.now
	} else if k.runq.empty() && !k.stopped && (len(k.events) == 0 || k.events[0].at > t) {
		// Lone-timer fast path: no proc is ready and the earliest pending
		// event fires strictly after t, so the scheduler's only possible move
		// is to advance the clock to t and resume this proc. (An event at
		// exactly t would still win the (time, phase, seq) tie-break — this
		// wake would get wake phase and the newest seq — so that case takes
		// the slow path.) Do the forced move in place, skipping both switches.
		k.now = t
		return
	}
	k.events.push(event{at: t, seq: k.nextSeq(), phase: phaseWake, proc: p})
	p.block(stateTimed, blockReason{kind: blockTimer, t: t})
}

// Yield reschedules the Proc at the current time behind already-ready peers.
// With no ready peers it is a no-op: the scheduler would hand control
// straight back (ready procs always run before pending events).
func (p *Proc) Yield() {
	k := p.k
	if k.runq.empty() {
		return
	}
	k.ready(p)
	p.block(stateReady, blockReason{kind: blockYield})
}

// dispatch runs one event. A timer wake with an empty run queue resumes the
// actor directly — the fused path — instead of routing it through the run
// queue just to pop it again on the next loop turn. The task branch mirrors
// the proc branch exactly, so a converted actor's wakes land in the same
// order with the same accounting.
func (k *Kernel) dispatch(e event) {
	if e.proc != nil {
		p := e.proc
		if k.runq.empty() {
			p.state = stateReady
			p.reason = blockReason{}
			k.resume(p)
			return
		}
		k.ready(p)
		return
	}
	if e.task != nil {
		t := e.task
		if k.runq.empty() {
			t.state = stateReady
			t.reason = blockReason{}
			k.runTask(t)
			return
		}
		k.readyTask(t)
		return
	}
	k.dispatched++
	e.fn()
}

// Run executes the simulation until no process is runnable and no events are
// pending. It returns an error if live processes remain blocked with nothing
// to wake them (a simulated deadlock), with a description of every blocked
// process. However it returns — completion, Stop, deadlock or a panic — Run
// drains the procs still parked, so no goroutine outlives it.
func (k *Kernel) Run() error {
	if k.running {
		return fmt.Errorf("sim: Run called re-entrantly")
	}
	k.running = true
	defer func() {
		k.running = false
		k.drain()
		k.flushCounters()
	}()
	for !k.stopped && k.panicked == nil {
		if !k.runq.empty() {
			a := k.runq.pop()
			if a.p != nil {
				k.resume(a.p)
			} else {
				k.runTask(a.t)
			}
			continue
		}
		if len(k.events) > 0 {
			e := k.events.pop()
			if e.at > k.now {
				k.now = e.at
			}
			k.dispatch(e)
			// Batch same-timestamp callbacks: while no proc became ready,
			// the outer loop would pop the next event at this exact time
			// anyway — skip its branch round trip.
			for k.runq.empty() && !k.stopped && k.panicked == nil &&
				len(k.events) > 0 && k.events[0].at == k.now {
				k.dispatch(k.events.pop())
			}
			continue
		}
		break
	}
	if k.panicked != nil {
		return k.panicked
	}
	if k.stopped {
		return nil // a stopped kernel abandons blocked procs by design
	}
	for _, p := range k.live {
		if !p.daemon {
			return fmt.Errorf("sim: deadlock at %v: %s", k.now, k.describeBlocked())
		}
	}
	for _, t := range k.liveTasks {
		if !t.daemon {
			return fmt.Errorf("sim: deadlock at %v: %s", k.now, k.describeBlocked())
		}
	}
	return nil
}

// flushCounters publishes this kernel's dispatch and elision counters into
// the process-wide aggregates. It is delta-based, so Run can call it on
// every return.
func (k *Kernel) flushCounters() {
	atomic.AddInt64(&totalDispatched, k.dispatched-k.flushed)
	k.flushed = k.dispatched
	atomic.AddInt64(&totalElided, k.elided-k.elidedFlushed)
	k.elidedFlushed = k.elided
}

// Stop terminates the simulation at the end of the current dispatch. Blocked
// procs are abandoned: Run drains them on return. Intended for benchmarks
// that only need a prefix of the simulated execution.
func (k *Kernel) Stop() { k.stopped = true }

// drain releases every proc still live when Run returns: leftover daemons
// and bridge procs, deadlocked or abandoned procs. stop unwinds a parked
// coroutine — block panics procPoison, which Proc.exit swallows — and
// discards one that never ran. After drain the kernel holds no
// goroutines, and a drained proc readied later panics instead of running.
func (k *Kernel) drain() {
	for _, p := range k.live {
		p.stop()
		p.state = stateDone
	}
	k.live = nil
	// Tasks hold no goroutines; dropping the live set abandons them.
	k.liveTasks = nil
}

func (k *Kernel) describeBlocked() string {
	type blocked struct {
		id     int
		name   string
		state  procState
		reason blockReason
	}
	var bs []blocked
	for _, p := range k.live {
		if p.daemon {
			continue
		}
		bs = append(bs, blocked{p.id, p.Name(), p.state, p.reason})
	}
	for _, t := range k.liveTasks {
		if t.daemon {
			continue
		}
		bs = append(bs, blocked{t.id, t.Name(), t.state, t.reason})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].id < bs[j].id })
	var b strings.Builder
	for i, e := range bs {
		if i > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s[%s on %s]", e.name, e.state, e.reason)
	}
	return b.String()
}

// LiveProcs returns the number of processes that have not finished. After
// Run returns it reports zero: leftover procs are drained, not live.
func (k *Kernel) LiveProcs() int { return len(k.live) }

// LiveTasks returns the number of continuation Tasks that have not finished.
func (k *Kernel) LiveTasks() int { return len(k.liveTasks) }

// LiveActors returns the total number of live actors — Procs plus Tasks —
// for scale reporting.
func (k *Kernel) LiveActors() int { return len(k.live) + len(k.liveTasks) }
