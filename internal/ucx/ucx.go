// Package ucx provides a UCP-like communication layer with the object model
// and control flow of UCX (Unified Communication X), which the paper's
// partitioned library is built on: Contexts own Workers, Workers own
// Endpoints addressing remote Workers, memory is registered with MemMap and
// advertised with packed remote keys, and data moves with non-blocking RMA
// puts whose completion callbacks run only when the initiating worker is
// progressed.
//
// Two fidelity points matter for the reproduction:
//
//   - PutNbx completion callbacks are deferred to Worker.Progress on the
//     *initiator*, exactly like UCX: the chained "mark partition received"
//     put of Section IV-A.4 only happens when the sender progresses.
//   - RkeyPtr exposes a directly addressable mapping of remote memory for
//     intra-node peers (the cuIpcOpenMemHandle-backed uct_cuda_ipc_rkey_ptr
//     modification of Section IV-A.4); inter-node peers get an error, as on
//     the real system.
package ucx

import (
	"errors"
	"fmt"
	"strconv"

	"mpipart/internal/cluster"
	"mpipart/internal/fabric"
	"mpipart/internal/gpu"
	"mpipart/internal/sim"
)

// WorkerAddr addresses a Worker globally (in the MPI runtime it equals the
// owner's rank).
type WorkerAddr int

// Registry resolves worker addresses; one per simulated machine.
type Registry struct {
	workers map[WorkerAddr]*Worker
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry { return &Registry{workers: make(map[WorkerAddr]*Worker)} }

// Lookup resolves an address; it panics on unknown addresses because they
// indicate a harness bug, not a runtime condition.
func (r *Registry) Lookup(a WorkerAddr) *Worker {
	w, ok := r.workers[a]
	if !ok {
		panic(fmt.Sprintf("ucx: unknown worker address %d", a))
	}
	return w
}

// Context is a UCP context: per-process communication state.
type Context struct {
	K   *sim.Kernel
	M   *cluster.Model
	F   *fabric.Fabric
	Reg *Registry
}

// NewContext creates a UCP context. Cost is charged by the caller (the MPI
// layer charges Model.UCPContextCreate on first partitioned init, per the
// paper's lazy initialization).
func NewContext(k *sim.Kernel, m *cluster.Model, f *fabric.Fabric, reg *Registry) *Context {
	return &Context{K: k, M: m, F: f, Reg: reg}
}

// AM is an active message delivered to a worker's mailbox. The partitioned
// layer uses AMs for the setup_t exchange and ready-to-receive signals.
type AM struct {
	Src     WorkerAddr
	ID      int
	Payload interface{}
}

// Worker is a UCP worker: a progression context encapsulating communication
// resources. It owns endpoints, a mailbox of delivered AMs, and a queue of
// completion callbacks awaiting progress.
type Worker struct {
	Ctx  *Context
	Addr WorkerAddr
	// GPU is the worker's location for routing (the GPU of the owning
	// rank's superchip).
	GPU int

	mailbox map[int][]AM
	cbq     []func(p *sim.Proc)
	cond    *sim.Cond
	eps     map[WorkerAddr]*Endpoint
	// outstanding counts puts issued but whose callbacks have not yet
	// executed; MPI_Wait uses it to know when all puts are flushed.
	outstanding int
	// lazyDone holds the local-completion times of puts issued without a
	// callback. Their completion event would only decrement outstanding,
	// and outstanding is observed solely through HasPending/Outstanding —
	// so instead of scheduling an event per put, settle() folds entries
	// whose time has passed into the counter at observation time.
	lazyDone []sim.Time

	// Continuation-drain state (ProgressTask): the callback in flight, the
	// items-processed count, and the caller's continuation, plus the step
	// funcs bound once at construction.
	tN      int
	tCb     func(p *sim.Proc)
	tDone   sim.TaskFn
	fnDrain sim.TaskFn
	fnRunCb sim.TaskFn
}

// NewWorker creates and registers a worker at the given address/GPU.
func (c *Context) NewWorker(addr WorkerAddr, gpuID int) *Worker {
	if _, dup := c.Reg.workers[addr]; dup {
		panic(fmt.Sprintf("ucx: duplicate worker address %d", addr))
	}
	w := &Worker{
		Ctx:     c,
		Addr:    addr,
		GPU:     gpuID,
		mailbox: make(map[int][]AM),
		cond:    sim.NewCond(c.K, "ucx-worker-"+strconv.Itoa(int(addr))),
		eps:     make(map[WorkerAddr]*Endpoint),
	}
	w.fnDrain = w.stepDrain
	w.fnRunCb = w.stepRunCb
	c.Reg.workers[addr] = w
	return w
}

// Cond is broadcast whenever an AM is delivered or a completion callback is
// queued; progression engines can park on it.
func (w *Worker) Cond() *sim.Cond { return w.cond }

// AMSend sends an active message of approximately `bytes` payload size to
// dst over the control route. Delivery places the AM in dst's mailbox; the
// receiver observes it via PopAM (typically from its progression engine or
// while blocked inside MPIX_Pbuf_prepare).
func (w *Worker) AMSend(dst WorkerAddr, id int, payload interface{}, bytes int64) {
	target := w.Ctx.Reg.Lookup(dst)
	pipe := w.Ctx.F.ControlRoute(w.GPU, target.GPU)
	am := AM{Src: w.Addr, ID: id, Payload: payload}
	pipe.TransferThen(bytes, func() {
		target.mailbox[id] = append(target.mailbox[id], am)
		target.cond.Broadcast()
	})
}

// PopAM removes and returns the first mailbox entry with the given id
// matching pred (nil matches anything).
func (w *Worker) PopAM(id int, pred func(AM) bool) (AM, bool) {
	q := w.mailbox[id]
	for i, am := range q {
		if pred == nil || pred(am) {
			w.mailbox[id] = append(q[:i:i], q[i+1:]...)
			return am, true
		}
	}
	return AM{}, false
}

// WaitAM parks p until a matching AM arrives, polling the mailbox on every
// change notification, and returns it.
func (w *Worker) WaitAM(p *sim.Proc, id int, pred func(AM) bool) AM {
	for {
		if am, ok := w.PopAM(id, pred); ok {
			return am
		}
		w.cond.Wait(p)
	}
}

// Progress runs all pending completion callbacks, charging the per-item
// progress cost, and returns how many items were processed. It mirrors
// ucp_worker_progress: without it, put completions (and therefore the
// chained receive-side arrival flags) never fire. Callbacks receive the
// progressing proc so they can issue follow-up operations (the chained
// "partition received" put of Section IV-A.4).
func (w *Worker) Progress(p *sim.Proc) int {
	n := 0
	for len(w.cbq) > 0 {
		cb := w.cbq[0]
		w.cbq = w.cbq[:copy(w.cbq, w.cbq[1:])]
		p.Wait(w.Ctx.M.ProgressItemCost)
		cb(p)
		n++
	}
	return n
}

// ProgressTask is Progress in continuation form, for Task-based progression
// engines: it drains the callback queue charging the per-item cost, then
// continues with done. Callbacks run with a nil proc — every production
// completion callback only mutates request counters and ignores the
// progressing proc (the func(p) signature serves Progress, which host procs
// call from their Wait loops).
func (w *Worker) ProgressTask(t *sim.Task, done sim.TaskFn) {
	w.tN = 0
	w.tDone = done
	w.stepDrain(t)
}

// TaskProgressed reports how many callbacks the last ProgressTask drain ran.
func (w *Worker) TaskProgressed() int { return w.tN }

// stepDrain pops the next queued callback and arms it to run after the
// per-item progress cost, or hands off to the caller's continuation when
// the queue is empty — the continuation form of the Progress loop.
func (w *Worker) stepDrain(t *sim.Task) {
	if len(w.cbq) == 0 {
		t.Then(w.tDone)
		return
	}
	w.tCb = w.cbq[0]
	w.cbq = w.cbq[:copy(w.cbq, w.cbq[1:])]
	t.Then(w.fnRunCb)
	t.Sleep(w.Ctx.M.ProgressItemCost)
}

// stepRunCb runs the callback charged by stepDrain and loops.
func (w *Worker) stepRunCb(t *sim.Task) {
	cb := w.tCb
	w.tCb = nil
	cb(nil)
	w.tN++
	w.stepDrain(t)
}

// HasPending reports whether callbacks are queued or puts are in flight.
func (w *Worker) HasPending() bool {
	w.settle()
	return len(w.cbq) > 0 || w.outstanding > 0
}

// Outstanding reports puts whose completion callbacks have not run yet.
func (w *Worker) Outstanding() int {
	w.settle()
	return w.outstanding
}

// lazyComplete records a callback-free put whose local completion at ser
// will be settled lazily instead of by a scheduled event.
func (w *Worker) lazyComplete(ser sim.Time) {
	w.lazyDone = append(w.lazyDone, ser)
	w.Ctx.K.NoteElided(1)
}

// settle retires lazy completions whose time has passed. The scheduled
// event it replaces fires in the callback phase at exactly ser, before any
// proc wakes at that time — so folding entries with ser <= now is
// observably identical for every reader.
func (w *Worker) settle() {
	if len(w.lazyDone) == 0 {
		return
	}
	now := w.Ctx.K.Now()
	kept := w.lazyDone[:0]
	for _, t := range w.lazyDone {
		if t <= now {
			w.outstanding--
		} else {
			kept = append(kept, t)
		}
	}
	w.lazyDone = kept
}

// queueCallback records a completion for the next Progress call.
func (w *Worker) queueCallback(cb func(p *sim.Proc)) {
	w.cbq = append(w.cbq, cb)
	w.cond.Broadcast()
}

// MemHandle is registered memory: the partition destination views and the
// partition-status flag array of a partitioned receive buffer
// (Section IV-A.2 registers both with ucp_mem_map).
type MemHandle struct {
	owner *Worker
	parts [][]float64
	flags *gpu.Flags
	bytes int64
}

// MemMap registers the given partition views plus flag array, charging the
// size-dependent registration cost to p.
func (w *Worker) MemMap(p *sim.Proc, parts [][]float64, flags *gpu.Flags) *MemHandle {
	var total int64
	for _, pt := range parts {
		total += int64(8 * len(pt))
	}
	if flags != nil {
		total += int64(8 * flags.Len())
	}
	p.Wait(w.Ctx.M.MemMapCost(total))
	return &MemHandle{owner: w, parts: parts, flags: flags, bytes: total}
}

// Rkey is a packed remote key: everything a peer needs to address the
// registered memory with RMA operations.
type Rkey struct {
	Owner    WorkerAddr
	OwnerGPU int
	parts    [][]float64
	flags    *gpu.Flags
	bytes    int64
}

// RkeyPack produces the remote key for a registered region (cheap; the cost
// lives in MemMap, as in UCX).
func (h *MemHandle) RkeyPack() Rkey {
	return Rkey{Owner: h.owner.Addr, OwnerGPU: h.owner.GPU, parts: h.parts, flags: h.flags, bytes: h.bytes}
}

// Parts returns the number of registered partition views.
func (k Rkey) Parts() int { return len(k.parts) }

// Endpoint addresses a remote worker from a local one, carrying the
// resolved data route.
type Endpoint struct {
	w      *Worker
	Remote WorkerAddr
	route  *sim.Pipe
}

// EpTo returns (creating and charging on first use) the endpoint to addr.
func (w *Worker) EpTo(p *sim.Proc, addr WorkerAddr) *Endpoint {
	if ep, ok := w.eps[addr]; ok {
		return ep
	}
	target := w.Ctx.Reg.Lookup(addr)
	p.Wait(w.Ctx.M.EpCreateCost)
	ep := &Endpoint{w: w, Remote: addr, route: w.Ctx.F.Route(w.GPU, target.GPU)}
	w.eps[addr] = ep
	return ep
}

// RkeyUnpack charges the unpack cost and validates that the key belongs to
// the endpoint's remote worker.
func (ep *Endpoint) RkeyUnpack(p *sim.Proc, k Rkey) (Rkey, error) {
	if k.Owner != ep.Remote {
		return Rkey{}, fmt.Errorf("ucx: rkey owner %d does not match endpoint remote %d", k.Owner, ep.Remote)
	}
	p.Wait(ep.w.Ctx.M.RkeyUnpackCost)
	return k, nil
}

// PutPartition issues a non-blocking RMA put of src into remote partition
// view part. The issue cost is charged to p; delivery copies the data into
// the remote buffer; cb (if non-nil) is queued as a completion callback on
// the initiating worker, to run on its next Progress.
func (ep *Endpoint) PutPartition(p *sim.Proc, k Rkey, part int, src []float64, cb func(p *sim.Proc)) {
	ep.PutPartitionValidate(k, part, src)
	p.Wait(ep.w.Ctx.M.PutDataIssueCost)
	ep.PutPartitionCommit(k, part, src, cb)
}

// PutPartitionValidate performs PutPartition's misuse checks without issuing
// anything. Task-based callers run it before charging the issue cost so a
// bad put fails at the call site, as the blocking form does.
func (ep *Endpoint) PutPartitionValidate(k Rkey, part int, src []float64) {
	if part < 0 || part >= len(k.parts) {
		panic(fmt.Sprintf("ucx: put to partition %d of %d", part, len(k.parts)))
	}
	if len(k.parts[part]) < len(src) {
		panic(fmt.Sprintf("ucx: partition %d put overflow: %d into %d", part, len(src), len(k.parts[part])))
	}
}

// PutPartitionCommit is the post-issue-cost half of PutPartition: it books
// the transfer on the route and schedules delivery and completion. Callers
// must have charged Model.PutDataIssueCost of virtual time after
// PutPartitionValidate.
func (ep *Endpoint) PutPartitionCommit(k Rkey, part int, src []float64, cb func(p *sim.Proc)) {
	dst := k.parts[part]
	// Build the trace args only when a tracer is attached: the two
	// fmt.Sprintf calls per put showed up in untraced benchmark profiles.
	if tr := ep.w.Ctx.K.Tracer(); tr != nil {
		tr.Instant(fmt.Sprintf("worker%d", ep.w.Addr), fmt.Sprintf("put_nbx part %d (%dB)", part, 8*len(src)), ep.w.Ctx.K.Now())
	}
	ep.w.outstanding++
	// Remote delivery happens at the pipe's delivery time; the operation
	// completes *locally* once the pipe has serialized it (UCX put
	// completion semantics: the source buffer is reusable, the remote
	// write is not yet guaranteed visible). Ordering of subsequent puts on
	// the same endpoint is preserved by the pipe's FIFO. A timing-only world
	// still books the delivery event, but it moves no data.
	deliver := noDelivery
	if !ep.w.Ctx.K.TimingOnly() {
		deliver = func() { copy(dst, src) }
	}
	if cb == nil {
		ser, _ := ep.route.TransferStaged(int64(8*len(src)), nil, deliver)
		ep.w.lazyComplete(ser)
		return
	}
	w := ep.w
	ep.route.TransferStaged(int64(8*len(src)), func() {
		w.outstanding--
		w.queueCallback(cb)
	}, deliver)
}

// noDelivery is a timing-only put's delivery callback.
func noDelivery() {}

// PutFlag issues a small RMA put setting remote flag idx to val (the
// receive-side completion signal UCX lacks natively, built as a chained
// put). cb runs on the initiator's next Progress after delivery.
func (ep *Endpoint) PutFlag(p *sim.Proc, k Rkey, idx int, val int64, cb func(p *sim.Proc)) {
	ep.PutFlagValidate(k)
	p.Wait(ep.w.Ctx.M.PutIssueCost)
	ep.PutFlagCommit(k, idx, val, cb)
}

// PutFlagValidate performs PutFlag's misuse check without issuing anything.
func (ep *Endpoint) PutFlagValidate(k Rkey) {
	if k.flags == nil {
		panic("ucx: PutFlag on rkey without registered flags")
	}
}

// PutFlagCommit is the post-issue-cost half of PutFlag. Callers must have
// charged Model.PutIssueCost of virtual time after PutFlagValidate.
func (ep *Endpoint) PutFlagCommit(k Rkey, idx int, val int64, cb func(p *sim.Proc)) {
	if tr := ep.w.Ctx.K.Tracer(); tr != nil {
		tr.Instant(fmt.Sprintf("worker%d", ep.w.Addr), fmt.Sprintf("put_flag %d", idx), ep.w.Ctx.K.Now())
	}
	ep.w.outstanding++
	if cb == nil {
		ser, _ := ep.route.TransferStaged(8, nil, func() { k.flags.Set(idx, val) })
		ep.w.lazyComplete(ser)
		return
	}
	w := ep.w
	ep.route.TransferStaged(8, func() {
		w.outstanding--
		w.queueCallback(cb)
	}, func() { k.flags.Set(idx, val) })
}

// ErrNoIPC is returned by RkeyPtr for peers that cannot be mapped directly.
var ErrNoIPC = errors.New("ucx: rkey_ptr requires an intra-node (CUDA IPC reachable) peer")

// RkeyPtr returns directly addressable views of the remote partitions and
// flag array, as the modified uct_cuda_ipc_rkey_ptr does via
// cuIpcOpenMemHandle. Only intra-node peers can be mapped.
func (ep *Endpoint) RkeyPtr(k Rkey) ([][]float64, *gpu.Flags, error) {
	target := ep.w.Ctx.Reg.Lookup(ep.Remote)
	if !ep.w.Ctx.F.Topo.SameNode(ep.w.GPU, target.GPU) {
		return nil, nil, ErrNoIPC
	}
	return k.parts, k.flags, nil
}

// Route exposes the endpoint's data pipe (the Kernel Copy path transfers on
// it directly from device code).
func (ep *Endpoint) Route() *sim.Pipe { return ep.route }
