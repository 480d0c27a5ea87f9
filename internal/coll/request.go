package coll

import (
	"fmt"
	"sort"

	"mpipart/internal/core"
	"mpipart/internal/gpu"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)

// collTagBase keeps partitioned-collective channels away from application
// and baseline-collective tags.
const collTagBase = 1 << 21

// Request is a persistent partitioned collective (MPIX_P<collective>_init):
// a schedule plus one partitioned point-to-point channel per directed
// neighbour edge, progressed by Algorithm 2.
type Request struct {
	R     *mpi.Rank
	Sched *Schedule
	Op    mpi.ReduceOp

	buf []float64
	up  int // user partitions
	// chunkTab holds the [u][ch] chunk views of the buffer, precomputed at
	// init: Progress resolves a view per arrival, and rebuilding the
	// partition table each call allocated in the progression hot path.
	chunkTab [][][]float64

	sends map[int]*core.SendRequest
	recvs map[int]*core.RecvRequest
	// staging buffers for reducing arrivals: per neighbour, per transport
	// partition (user partition × use).
	staging map[int][][]float64

	// userPending are the device-initiated "user partition ready" flags in
	// pinned host memory (shared with the worker condition so device
	// stores wake the progression engine); userReady records host-side
	// Pready calls.
	userPending *gpu.Flags
	userReady   []bool

	// stream is the library-internal stream reduction kernels run on; the
	// cudaStreamSynchronize after each reduction is the cost that keeps
	// the partitioned allreduce behind NCCL (Section VI-B).
	stream *gpu.Stream

	states  []upState
	doneUPs int

	started  bool
	prepared bool
	epoch    int
	active   bool
	freed    bool
	// inProgress guards against virtual-time re-entrancy: both the
	// progression engine (ProgressTask) and a host proc blocked in Wait
	// (Progress) drive the schedule walk, and it yields mid-pass (stream
	// synchronize, put issue costs); the second driver must not
	// double-apply reductions or sends.
	inProgress bool
	// The schedule walk's cursor (see next): the user partition being
	// advanced, the next incoming edge of its current step to check (-1 at
	// step entry, before the local-data gate), and whether the pass
	// advanced anything. The Task driver also keeps the engine's
	// continuation and its bound steps.
	wUp, wIn  int
	wDid      bool
	tDone     func(didWork, stillActive bool)
	fnReduced sim.TaskFn
	fnSent    sim.TaskFn

	// devHandle is the device-side collective handle, if created.
	devHandle *DeviceColl
}

// upState is the per-user-partition cursor through the schedule
// (Algorithm 2 keeps parrived/pready counters per state).
type upState struct {
	step     int
	inDone   []bool
	parrived int
	pready   int
}

// PallreduceInit is MPIX_Pallreduce_init: a ring reduce-scatter/allgather
// allreduce over the in-place buffer with the given number of user
// partitions.
func PallreduceInit(p *sim.Proc, r *mpi.Rank, buf []float64, userParts int, op mpi.ReduceOp) *Request {
	return InitWithSchedule(p, r, buf, userParts, op, RingAllreduceSchedule(r.ID, r.W.Size()))
}

// PbcastInit is MPIX_Pbcast_init: a binomial-tree broadcast from root.
func PbcastInit(p *sim.Proc, r *mpi.Rank, buf []float64, userParts, root int) *Request {
	return InitWithSchedule(p, r, buf, userParts, mpi.OpSum, BinomialBcastSchedule(r.ID, r.W.Size(), root))
}

// PreduceInit is MPIX_Preduce_init: a binomial-tree reduction to root with
// MPI_IN_PLACE semantics (non-root buffers hold partial accumulations
// afterwards).
func PreduceInit(p *sim.Proc, r *mpi.Rank, buf []float64, userParts int, op mpi.ReduceOp, root int) *Request {
	return InitWithSchedule(p, r, buf, userParts, op, BinomialReduceSchedule(r.ID, r.W.Size(), root))
}

// PallgatherInit is MPIX_Pallgather_init: an in-place ring allgather; each
// user partition holds P chunks of which this rank contributes chunk
// rank.
func PallgatherInit(p *sim.Proc, r *mpi.Rank, buf []float64, userParts int) *Request {
	return InitWithSchedule(p, r, buf, userParts, mpi.OpSum, RingAllgatherSchedule(r.ID, r.W.Size()))
}

// PscanInit is MPIX_Pscan_init: an inclusive prefix scan along the rank
// order (rank r ends with op over ranks 0..r), accumulated in place.
func PscanInit(p *sim.Proc, r *mpi.Rank, buf []float64, userParts int, op mpi.ReduceOp) *Request {
	return InitWithSchedule(p, r, buf, userParts, op, LinearScanSchedule(r.ID, r.W.Size()))
}

// InitWithSchedule builds an in-place collective request from any valid
// schedule — the generalization the paper argues for, since at least 21
// collectives would otherwise each need a bespoke implementation.
func InitWithSchedule(p *sim.Proc, r *mpi.Rank, buf []float64, userParts int, op mpi.ReduceOp, sched *Schedule) *Request {
	if err := sched.Validate(); err != nil {
		panic(err)
	}
	if userParts <= 0 {
		panic("coll: user partition count must be positive")
	}
	c := &Request{
		R:         r,
		Sched:     sched,
		Op:        op,
		buf:       buf,
		up:        userParts,
		sends:     map[int]*core.SendRequest{},
		recvs:     map[int]*core.RecvRequest{},
		staging:   map[int][][]float64{},
		userReady: make([]bool, userParts),
		states:    make([]upState, userParts),
	}
	c.chunkTab = make([][][]float64, userParts)
	for u, view := range core.EqualPartitions(buf, userParts) {
		c.chunkTab[u] = core.EqualPartitions(view, sched.Chunks)
	}
	c.userPending = gpu.NewFlagsShared(fmt.Sprintf("collready@%d", r.ID), userParts, r.Worker.Cond())

	// During initialization we know message size, communicator size, and
	// partition count, so every resource for the algorithm is allocated
	// here: the request, the schedule, the staging, the channels.
	p.Wait(r.W.Model.CollInitBase)
	p.Wait(sim.Duration(len(sched.Steps)) * r.W.Model.SchedBuildPerStep)

	tag := collTagBase + nextCollSeq(r)

	// Per-channel chunk maps from the schedule.
	sendChunk := map[int][]int{}
	recvChunk := map[int][]int{}
	recvReduce := map[int][]bool{}
	for _, nbr := range sortedNbrs(sched.SendUses) {
		sendChunk[nbr] = make([]int, sched.SendUses[nbr])
	}
	for _, nbr := range sortedNbrs(sched.RecvUses) {
		recvChunk[nbr] = make([]int, sched.RecvUses[nbr])
		recvReduce[nbr] = make([]bool, sched.RecvUses[nbr])
	}
	for _, st := range sched.Steps {
		for _, eu := range st.Out {
			sendChunk[eu.Nbr][eu.Use] = eu.Chunk
		}
		for _, eu := range st.In {
			recvChunk[eu.Nbr][eu.Use] = eu.Chunk
			recvReduce[eu.Nbr][eu.Use] = st.Reduce
		}
	}

	// Build the point-to-point channels in ascending neighbour order: the
	// inits charge virtual time and register with the transport, so the
	// posting order must be identical on every run for the schedule (and the
	// golden gate) to reproduce. Send transport partition (up, use) is a
	// view of the user chunk the schedule says that use carries (data is
	// read at Pready time, i.e. after reductions).
	for _, nbr := range sortedNbrs(sched.SendUses) {
		uses := sched.SendUses[nbr]
		parts := make([][]float64, 0, userParts*uses)
		for u := 0; u < userParts; u++ {
			for use := 0; use < uses; use++ {
				parts = append(parts, c.chunkView(u, sendChunk[nbr][use]))
			}
		}
		c.sends[nbr] = core.PsendInitParts(p, r, nbr, tag, parts)
	}
	// Receive transport partitions land in staging when the step reduces
	// (reduce-scatter phase) and directly in the user chunk otherwise
	// (allgather phase / broadcasts).
	for _, nbr := range sortedNbrs(sched.RecvUses) {
		uses := sched.RecvUses[nbr]
		parts := make([][]float64, 0, userParts*uses)
		stag := make([][]float64, userParts*uses)
		for u := 0; u < userParts; u++ {
			for use := 0; use < uses; use++ {
				view := c.chunkView(u, recvChunk[nbr][use])
				if recvReduce[nbr][use] {
					stag[u*uses+use] = r.Dev.Alloc(len(view))
					view = stag[u*uses+use]
				}
				parts = append(parts, view)
			}
		}
		c.staging[nbr] = stag
		c.recvs[nbr] = core.PrecvInitParts(p, r, nbr, tag, parts)
	}

	c.stream = r.Dev.NewStream("coll-reduce")
	c.fnReduced = c.stepReduced
	c.fnSent = c.stepSent
	c.resetStates()
	return c
}

// nextCollSeq tracks the per-rank collective posting order so SPMD ranks
// derive matching channel tags without extra communication.
func nextCollSeq(r *mpi.Rank) int {
	seq := 0
	if v, ok := r.CollSeq.(int); ok {
		seq = v
	}
	r.CollSeq = seq + 1
	return seq
}

// chunkView returns the view of chunk ch of user partition u, using the
// same nearly-equal splitting at both levels on every rank.
func (c *Request) chunkView(u, ch int) []float64 {
	return c.chunkTab[u][ch]
}

// UserPartitions returns the user partition count.
func (c *Request) UserPartitions() int { return c.up }

// Buffer returns the collective's in-place buffer.
func (c *Request) Buffer() []float64 { return c.buf }

func (c *Request) resetStates() {
	for i := range c.states {
		c.states[i] = upState{}
		c.armStep(&c.states[i])
	}
	c.doneUPs = 0
}

func (c *Request) armStep(st *upState) {
	if st.step < len(c.Sched.Steps) {
		n := len(c.Sched.Steps[st.step].In)
		if cap(st.inDone) >= n {
			st.inDone = st.inDone[:n]
			for i := range st.inDone {
				st.inDone[i] = false
			}
		} else {
			st.inDone = make([]bool, n)
		}
	}
}

// Start begins a collective epoch: underlying channels start and all
// per-partition schedule state resets.
func (c *Request) Start(p *sim.Proc) {
	c.checkUsable()
	if c.started {
		panic("coll: Start on started collective")
	}
	c.epoch++
	c.started = true
	for i := range c.userReady {
		c.userReady[i] = false
	}
	c.userPending.Reset()
	if c.devHandle != nil {
		c.devHandle.resetEpoch()
	}
	c.resetStates()
	for _, nbr := range sortedNbrs(c.sends) {
		c.sends[nbr].Start(p)
	}
	for _, nbr := range sortedNbrs(c.recvs) {
		c.recvs[nbr].Start(p)
	}
	if !c.active {
		c.active = true
		c.R.Engine.Register(c)
	}
}

// PbufPrepare synchronizes the processes associated with the collective
// (its generalization for collectives, Section II-B3): every underlying
// receive channel prepares (registering memory and answering its sender)
// before the send channels wait for their peers' responses, which makes
// the call deadlock-free when all ranks execute it concurrently.
func (c *Request) PbufPrepare(p *sim.Proc) {
	c.checkUsable()
	if !c.started {
		panic("coll: PbufPrepare before Start")
	}
	for _, nbr := range sortedNbrs(c.recvs) {
		c.recvs[nbr].PbufPrepare(p)
	}
	for _, nbr := range sortedNbrs(c.sends) {
		c.sends[nbr].PbufPrepare(p)
	}
	c.prepared = true
}

// Pready is the host binding: mark user partition up ready. The schedule's
// step-0 sends for that partition fire from the progression engine.
func (c *Request) Pready(p *sim.Proc, up int) {
	c.checkUsable()
	if !c.started {
		panic("coll: Pready before Start")
	}
	if up < 0 || up >= c.up {
		panic(fmt.Sprintf("coll: Pready user partition %d of %d", up, c.up))
	}
	p.Wait(c.R.W.Model.HostPostOverhead)
	c.userReady[up] = true
	// Wake the engine so the step-0 transfer is issued promptly.
	c.R.Worker.Cond().Broadcast()
}

// Parrived reports whether user partition up has completed the whole
// collective (the paper's collective Parrived reads a completion flag).
func (c *Request) Parrived(up int) bool {
	c.checkUsable()
	return c.states[up].step >= len(c.Sched.Steps)
}

// Done reports whether every user partition completed the schedule.
func (c *Request) Done() bool { return c.doneUPs == c.up }

func (c *Request) userReadyNow(up int) bool {
	return c.userReady[up] || c.userPending.Get(up) != 0
}

// walkAct is the next blocking action of the schedule walk.
type walkAct uint8

const (
	walkDone   walkAct = iota // the pass is complete
	walkReduce                // reduce the arrival on S.In[c.wIn] of user partition c.wUp
	walkSend                  // Pready S.Out[st.pready] of user partition c.wUp
)

// begin opens a schedule walk, or reports false when the collective is not
// started or another driver's walk is in flight.
func (c *Request) begin() bool {
	if !c.started || c.inProgress {
		return false
	}
	c.inProgress = true
	c.wUp, c.wIn, c.wDid = 0, -1, false
	return true
}

// next is Algorithm 2, written once as a resumable cursor over c.states:
// each user partition independently advances through the schedule —
// collecting arrivals, reducing staged data, firing the step's sends, and
// moving to the next step when both counters match the step's neighbour
// counts. It does every non-blocking part itself and stops at the next
// blocking action, which the driver performs and then acknowledges with
// reduced or sent before calling next again.
func (c *Request) next() walkAct {
	for ; c.wUp < len(c.states); c.wUp, c.wIn = c.wUp+1, -1 {
		up := c.wUp
		st := &c.states[up]
		for st.step < len(c.Sched.Steps) {
			S := &c.Sched.Steps[st.step]
			if c.wIn < 0 {
				// Local-data gate: reductions and sends of this rank's own
				// contribution wait for the user's Pready. Forwarding sends
				// (a broadcast's interior ranks, the allgather's later
				// steps) carry data whose readiness the schedule already
				// ordered and pass through.
				if !c.userReadyNow(up) && (S.Reduce || (S.LocalData && len(S.Out) > 0)) {
					break
				}
				c.wIn = 0
				if st.parrived == len(S.In) {
					c.wIn = len(S.In)
				}
			}
			// Arrivals (lines 5–13): check each incoming neighbour,
			// reduce its staged chunk exactly once.
			for ; c.wIn < len(S.In); c.wIn++ {
				eu := S.In[c.wIn]
				if st.inDone[c.wIn] || !c.recvs[eu.Nbr].Parrived(up*c.Sched.RecvUses[eu.Nbr]+eu.Use) {
					continue
				}
				if S.Reduce {
					return walkReduce
				}
				c.reduced()
			}
			// Sends (lines 21–28 generalized): fire each outgoing
			// neighbour's Pready once on entering the step.
			if st.pready < len(S.Out) {
				return walkSend
			}
			// Step transition (lines 14–20).
			if st.parrived != len(S.In) {
				break
			}
			st.step++
			st.parrived, st.pready = 0, 0
			c.armStep(st)
			c.wIn, c.wDid = -1, true
			if st.step == len(c.Sched.Steps) {
				c.doneUPs++
			}
		}
	}
	return walkDone
}

// reduced records the arrival at the cursor as consumed (its reduction, if
// any, done); next then skips it.
func (c *Request) reduced() {
	st := &c.states[c.wUp]
	st.inDone[c.wIn] = true
	st.parrived++
	c.wDid = true
}

// sent records the cursor's send as issued.
func (c *Request) sent() {
	c.states[c.wUp].pready++
	c.wDid = true
}

// sendAt returns the channel and transport partition of the cursor's send.
func (c *Request) sendAt() (*core.SendRequest, int) {
	st := &c.states[c.wUp]
	eu := c.Sched.Steps[st.step].Out[st.pready]
	return c.sends[eu.Nbr], c.wUp*c.Sched.SendUses[eu.Nbr] + eu.Use
}

// end closes the walk. If it advanced anything it wakes everyone parked on
// the worker condition (a host proc inside Wait, the progression engine):
// schedule state advanced, so their completion predicates may now hold.
// Without this, a proc that parked while the other driver was blocked
// mid-walk would never re-check.
func (c *Request) end() (didWork, stillActive bool) {
	c.inProgress = false
	if c.wDid {
		c.R.Worker.Cond().Broadcast()
	}
	return c.wDid, c.active
}

// Progress drives the schedule walk from a host proc (Wait), blocking on
// each reduction's stream synchronize and each send's issue costs.
func (c *Request) Progress(p *sim.Proc) (didWork, stillActive bool) {
	if !c.begin() {
		return false, c.active
	}
	for {
		switch c.next() {
		case walkReduce:
			if c.launchReduce() {
				c.stream.Synchronize(p)
			}
			c.reduced()
		case walkSend:
			s, tp := c.sendAt()
			s.Pready(p, tp)
			c.sent()
		default:
			return c.end()
		}
	}
}

// ProgressTask implements mpi.Progressor: it drives the same schedule walk
// on the progression engine's Task, taking each blocking action in
// continuation form.
func (c *Request) ProgressTask(t *sim.Task, done func(didWork, stillActive bool)) {
	if !c.begin() {
		done(false, c.active)
		return
	}
	c.tDone = done
	c.stepWalk(t)
}

// stepWalk runs the walk to its next blocking action and arms it, or
// finishes the pass.
func (c *Request) stepWalk(t *sim.Task) {
	for {
		switch c.next() {
		case walkReduce:
			if c.launchReduce() {
				c.stream.SynchronizeTask(t, c.fnReduced)
				return
			}
			c.reduced()
		case walkSend:
			s, tp := c.sendAt()
			s.PreadyTask(t, tp, c.fnSent)
			return
		default:
			c.tDone(c.end())
			return
		}
	}
}

// stepReduced resumes the walk after a reduction's synchronize.
func (c *Request) stepReduced(t *sim.Task) {
	c.reduced()
	c.stepWalk(t)
}

// stepSent resumes the walk after a send's puts were issued.
func (c *Request) stepSent(t *sim.Task) {
	c.sent()
	c.stepWalk(t)
}

// launchReduce applies the collective's operation to the arrival at the
// cursor: the staged data is combined into the user chunk by a kernel on
// the internal stream. The driver then synchronizes the stream before the
// schedule moves on — the numerically required but expensive step the
// paper identifies as the gap to NCCL. It reports false for an empty chunk,
// which launches nothing.
func (c *Request) launchReduce() bool {
	up := c.wUp
	eu := c.Sched.Steps[c.states[up].step].In[c.wIn]
	uses := c.Sched.RecvUses[eu.Nbr]
	src := c.staging[eu.Nbr][up*uses+eu.Use]
	dst := c.chunkView(up, eu.Chunk)
	op := c.Op
	n := len(dst)
	if n == 0 {
		return false
	}
	block := 1024
	if n < block {
		block = n
	}
	grid := (n + block - 1) / block
	spec := gpu.KernelSpec{
		Name: "preduce", Grid: grid, Block: block,
		WaveTime: c.R.W.Model.ScaledWaveTime(1),
	}
	// A timing-only world launches the kernel for its time and folds
	// nothing.
	if !c.R.W.K.TimingOnly() {
		spec.Body = func(b *gpu.BlockCtx) {
			// Each thread owns one element, so the block's work is one
			// contiguous range: apply the op over it in bulk instead of one
			// two-element slice call per thread (elementwise ops make the
			// result identical, and this loop dominated untraced runs).
			lo := b.ThreadBase()
			hi := lo + b.Dim
			if hi > n {
				hi = n
			}
			if lo < hi {
				op.Apply(dst[lo:hi], src[lo:hi])
			}
		}
	}
	c.stream.Launch(spec)
	return true
}

// Wait completes the collective epoch (MPI_Wait): Algorithm 2 runs until
// every user partition finishes the schedule, then the underlying channels
// flush.
func (c *Request) Wait(p *sim.Proc) {
	c.checkUsable()
	if !c.started {
		panic("coll: Wait before Start")
	}
	for !c.Done() {
		did, _ := c.Progress(p)
		if c.R.Worker.Progress(p) > 0 {
			did = true
		}
		if c.Done() {
			break
		}
		if !did {
			c.R.Worker.Cond().Wait(p)
			p.Wait(c.R.W.Model.ProgressPollInterval)
		}
	}
	for _, nbr := range sortedNbrs(c.sends) {
		c.sends[nbr].Wait(p)
	}
	for _, nbr := range sortedNbrs(c.recvs) {
		c.recvs[nbr].Wait(p)
	}
	c.started = false
	c.active = false
}

// Free releases the collective and its channels.
func (c *Request) Free() {
	if c.started {
		panic("coll: Free of active collective")
	}
	for _, nbr := range sortedNbrs(c.sends) {
		c.sends[nbr].Free()
	}
	for _, nbr := range sortedNbrs(c.recvs) {
		c.recvs[nbr].Free()
	}
	c.freed = true
	c.active = false
}

// sortedNbrs returns the keys of a neighbour-indexed map in ascending
// order. Epoch operations (Start, PbufPrepare, Wait, Free) and channel
// construction walk neighbours through this, never the map directly: their
// calls block and charge virtual time, so map-iteration order would leak
// schedule nondeterminism into the simulation.
func sortedNbrs[V any](m map[int]V) []int {
	nbrs := make([]int, 0, len(m))
	for n := range m {
		nbrs = append(nbrs, n)
	}
	sort.Ints(nbrs)
	return nbrs
}

func (c *Request) checkUsable() {
	if c.freed {
		panic("coll: use of freed collective request")
	}
}
