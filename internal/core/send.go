package core

import (
	"fmt"

	"mpipart/internal/mpi"
	"mpipart/internal/sim"
	"mpipart/internal/ucx"
)

// SendRequest is the send side of a persistent partitioned channel
// (MPI_Psend_init). Partition indices here are *transport* partitions; the
// partitioned-collective layer (package coll) maps user partitions onto
// them.
type SendRequest struct {
	R    *mpi.Rank
	Key  chanKey
	Dest int
	Tag  int

	// parts are the send-side partition views of the user buffer.
	parts [][]float64

	// protocol state
	prepared bool
	epoch    int // increments on Start; 0 = never started
	started  bool
	ep       *ucx.Endpoint
	rkey     ucx.Rkey

	// per-epoch progress state
	issued   []bool // partition put issued this epoch
	nIssued  int
	inflight int  // puts (data or completion) not yet fully acknowledged
	active   bool // registered with the progression engine

	// device request attached by MPIX_Prequest_create, if any
	preq *Prequest

	// freed marks a released request.
	freed bool

	// Continuation-scan state (ProgressTask): the partition cursor, the
	// progress accumulator and the engine's continuation. Per-put state
	// (PreadyTask): the partition in flight, the caller's continuation, and
	// captures of the endpoint/rkey/epoch (taken before the issue-cost
	// sleeps, as the blocking Pready captures them before its waits). The
	// step funcs and the inflight-decrement completion callback are bound
	// once at init so steady-state progression allocates nothing.
	tPart  int
	tDid   bool
	tDone  func(didWork, stillActive bool)
	tPut   int
	tThen  sim.TaskFn
	tEp    *ucx.Endpoint
	tRk    ucx.Rkey
	tEpoch int

	fnScan     sim.TaskFn
	fnNext     sim.TaskFn
	fnDataDone sim.TaskFn
	fnFlagDone sim.TaskFn
	fnCbDone   func(p *sim.Proc)
}

// PsendInit initializes the send side of a partitioned channel with equal
// contiguous partitions (MPI_Psend_init).
func PsendInit(p *sim.Proc, r *mpi.Rank, dest, tag int, buf []float64, nparts int) *SendRequest {
	return PsendInitParts(p, r, dest, tag, EqualPartitions(buf, nparts))
}

// PsendInitParts initializes the send side with an explicit partition
// layout (each partition is a view of the application's send buffer; the
// collective layer uses non-contiguous layouts).
func PsendInitParts(p *sim.Proc, r *mpi.Rank, dest, tag int, parts [][]float64) *SendRequest {
	st := state(p, r)
	if dest < 0 || dest >= r.W.Size() {
		panic(fmt.Sprintf("core: PsendInit to invalid rank %d", dest))
	}
	if len(parts) == 0 {
		panic("core: PsendInit with zero partitions")
	}
	k3 := [3]int{r.ID, dest, tag}
	key := chanKey{src: r.ID, dst: dest, tag: tag, seq: st.seqs[k3]}
	st.seqs[k3]++

	// Host bookkeeping: pre-populate the ucp_request_param_t equivalents,
	// pack setup_t, and send it non-blockingly (① in Fig. 1).
	p.Wait(r.W.Model.PinitCost)
	req := &SendRequest{
		R:      r,
		Key:    key,
		Dest:   dest,
		Tag:    tag,
		parts:  parts,
		issued: make([]bool, len(parts)),
	}
	req.fnScan = req.stepScan
	req.fnNext = req.nextPart
	req.fnDataDone = req.stepDataIssued
	req.fnFlagDone = req.stepFlagIssued
	req.fnCbDone = func(*sim.Proc) { req.inflight-- }
	r.Worker.AMSend(ucx.WorkerAddr(dest), amSetup, setupMsg{
		Key:      key,
		NParts:   len(parts),
		PartLens: partLens(parts),
		Worker:   r.Worker.Addr,
	}, 160)
	sanRegister(r, req, req.sanDesc(), len(parts))
	return req
}

func (s *SendRequest) sanDesc() string { return "psend " + s.Key.String() }

// violate reports a state-machine violation on this request through the
// uniform checker; true means "skip the offending operation" (SanRecord).
func (s *SendRequest) violate(rule, detail string) bool {
	return sanViolate(s.R, rule, s.sanDesc(), detail)
}

// NParts returns the number of transport partitions.
func (s *SendRequest) NParts() int { return len(s.parts) }

// Part returns the send-side view of partition i.
func (s *SendRequest) Part(i int) []float64 { return s.parts[i] }

// Epoch returns the current communication epoch (0 before the first Start).
func (s *SendRequest) Epoch() int { return s.epoch }

// Start begins a communication epoch (MPI_Start): it marks the request
// pending and resets the per-epoch flags to their defaults. Per the MPI
// standard it is non-blocking and guarantees no progress by itself.
func (s *SendRequest) Start(p *sim.Proc) {
	if s.checkUsable("Start") {
		return
	}
	if s.started {
		if s.violate("double-start", "Start on already-started send request") {
			return
		}
	}
	sanStart(s.R, s)
	p.Wait(s.R.W.Model.HostPostOverhead)
	s.epoch++
	s.started = true
	s.nIssued = 0
	for i := range s.issued {
		s.issued[i] = false
	}
	if s.preq != nil {
		s.preq.resetEpoch()
	}
	if !s.active {
		s.active = true
		s.R.Engine.Register(s)
	}
}

// PbufPrepare guarantees the receiver is ready (MPIX_Pbuf_prepare, ② in
// Fig. 1). The first call blocks until the receiver's setup response —
// including its registered memory keys — arrives, then creates the endpoint
// and unpacks the rkeys. Subsequent calls wait for the receiver's
// ready-to-receive signal for the current epoch.
func (s *SendRequest) PbufPrepare(p *sim.Proc) {
	if s.checkUsable("PbufPrepare") {
		return
	}
	if !s.started {
		if s.violate("pbufprepare-before-start", "PbufPrepare before Start") {
			return
		}
	}
	t0 := p.Now()
	defer func() {
		s.R.W.K.Tracer().Span(fmt.Sprintf("rank%d/host", s.R.ID), "PbufPrepare "+s.Key.String(), t0, p.Now())
	}()
	chargeMCAOnce(p, s.R)
	if !s.prepared {
		am := s.R.Worker.WaitAM(p, amSetupRsp, func(a ucx.AM) bool {
			return a.Payload.(setupRsp).Key == s.Key
		})
		rsp := am.Payload.(setupRsp)
		s.ep = s.R.Worker.EpTo(p, rsp.Worker)
		rk, err := s.ep.RkeyUnpack(p, rsp.Rkey)
		if err != nil {
			panic("core: " + err.Error())
		}
		if rk.Parts() != len(s.parts) {
			panic(fmt.Sprintf("core: partition count mismatch on %s: send %d recv %d",
				s.Key, len(s.parts), rk.Parts()))
		}
		s.rkey = rk
		s.prepared = true
		return
	}
	// Later epochs: wait for the matching ready-to-receive signal.
	s.R.Worker.WaitAM(p, amRTR, func(a ucx.AM) bool {
		m := a.Payload.(rtrMsg)
		return m.Key == s.Key && m.Epoch >= s.epoch
	})
}

// Pready is the host binding of MPI_Pready: mark partition part ready and
// transfer it. It issues the ucp_put_nbx of the partition data using the
// parameters pre-populated at init time, with a chained put attached to the
// completion callback that raises the receive-side arrival flag
// (Section IV-A.4). The progression engine also calls this on behalf of
// device-side MPIX_Pready notifications.
func (s *SendRequest) Pready(p *sim.Proc, part int) {
	if s.checkUsable("Pready") {
		return
	}
	if !s.started {
		if s.violate("pready-before-start", "Pready before Start") {
			return
		}
	}
	if !s.prepared {
		if s.violate("pready-before-pbufprepare", "Pready before PbufPrepare") {
			return
		}
	}
	if part < 0 || part >= len(s.parts) {
		if s.violate("pready-range", fmt.Sprintf("Pready partition %d out of %d", part, len(s.parts))) {
			return
		}
	}
	if s.issued[part] {
		if s.violate("double-pready", fmt.Sprintf("duplicate Pready of partition %d", part)) {
			return
		}
	}
	s.markIssued(part)
	s.inflight++
	ep, rk, epoch := s.ep, s.rkey, s.epoch
	// The receive-side completion-signal put is issued immediately behind
	// the data put: the transport's per-route FIFO guarantees the flag can
	// never pass its partition's data (the role the chained completion
	// callback plays on real UCX), and issuing it eagerly preserves the
	// fine-grained arrival semantics MPI_Parrived exists for — the signal
	// trails only its own partition's data, not every later partition's.
	ep.PutPartition(p, rk, part, s.parts[part], nil)
	ep.PutFlag(p, rk, part, int64(epoch), s.fnCbDone)
}

// completionOnly raises the receive-side arrival flag without moving data;
// the Kernel Copy path uses it after device code has already stored the
// partition into the peer's mapped memory (④.b/⑤ in Fig. 1).
func (s *SendRequest) completionOnly(p *sim.Proc, part int) {
	if s.issued[part] {
		if s.violate("double-pready", fmt.Sprintf("duplicate completion of partition %d", part)) {
			return
		}
	}
	s.markIssued(part)
	s.inflight++
	s.ep.PutFlag(p, s.rkey, part, int64(s.epoch), s.fnCbDone)
}

func (s *SendRequest) markIssued(part int) {
	s.issued[part] = true
	s.nIssued++
}

// Progress implements mpi.Progressor: it converts device-side MPIX_Pready
// notifications (flags in pinned host memory) into host-side transfers.
func (s *SendRequest) Progress(p *sim.Proc) (didWork, stillActive bool) {
	if !s.started {
		return false, s.active
	}
	if q := s.preq; q != nil {
		for part := 0; part < len(s.parts); part++ {
			if s.issued[part] {
				continue
			}
			switch q.pending.Get(part) {
			case readyData:
				s.Pready(p, part)
				didWork = true
			case readyCompleted:
				s.completionOnly(p, part)
				didWork = true
			}
		}
	}
	return didWork, s.active
}

// ProgressTask implements mpi.Progressor: the continuation form of
// Progress, driven natively on the engine's Task. The partition cursor and
// put sequencing replicate the blocking path operation-for-operation
// (guards, markIssued before the issue-cost waits, data put then chained
// flag put), so virtual time is bit-identical; the host saves the goroutine
// handoffs the engine proc paid per issue-cost wait.
func (s *SendRequest) ProgressTask(t *sim.Task, done func(didWork, stillActive bool)) {
	s.tDone = done
	s.tDid = false
	s.tPart = 0
	s.stepScan(t)
}

// stepScan walks the partition pending flags from the cursor, issuing the
// next ready partition's puts or finishing the scan.
func (s *SendRequest) stepScan(t *sim.Task) {
	if !s.started {
		s.tDone(false, s.active)
		return
	}
	if q := s.preq; q != nil {
		for s.tPart < len(s.parts) {
			part := s.tPart
			if s.issued[part] {
				s.tPart++
				continue
			}
			switch q.pending.Get(part) {
			case readyData:
				s.tDid = true
				s.PreadyTask(t, part, s.fnNext)
				return
			case readyCompleted:
				s.tDid = true
				s.completionOnlyTask(t, part)
				return
			}
			s.tPart++
		}
	}
	s.tDone(s.tDid, s.active)
}

// nextPart advances the cursor past the current partition and resumes the
// scan in the same dispatch.
func (s *SendRequest) nextPart(t *sim.Task) {
	s.tPart++
	t.Then(s.fnScan)
}

// PreadyTask is Pready in continuation form: the same sanitizer guards,
// then markIssued and the data-put/flag-put sequence with the issue costs
// taken as Task sleeps instead of proc waits, then then runs (also when a
// guard skips the put). One Task may issue on a request at a time.
func (s *SendRequest) PreadyTask(t *sim.Task, part int, then sim.TaskFn) {
	t.Then(then)
	if s.checkUsable("Pready") {
		return
	}
	if !s.started {
		if s.violate("pready-before-start", "Pready before Start") {
			return
		}
	}
	if !s.prepared {
		if s.violate("pready-before-pbufprepare", "Pready before PbufPrepare") {
			return
		}
	}
	if part < 0 || part >= len(s.parts) {
		if s.violate("pready-range", fmt.Sprintf("Pready partition %d out of %d", part, len(s.parts))) {
			return
		}
	}
	if s.issued[part] {
		if s.violate("double-pready", fmt.Sprintf("duplicate Pready of partition %d", part)) {
			return
		}
	}
	s.markIssued(part)
	s.inflight++
	s.tPut, s.tThen = part, then
	s.tEp, s.tRk, s.tEpoch = s.ep, s.rkey, s.epoch
	s.tEp.PutPartitionValidate(s.tRk, part, s.parts[part])
	t.Then(s.fnDataDone)
	t.Sleep(s.R.W.Model.PutDataIssueCost)
}

// stepDataIssued commits the data put after its issue cost and charges the
// chained flag put's issue cost.
func (s *SendRequest) stepDataIssued(t *sim.Task) {
	part := s.tPut
	s.tEp.PutPartitionCommit(s.tRk, part, s.parts[part], nil)
	s.tEp.PutFlagValidate(s.tRk)
	t.Then(s.fnFlagDone)
	t.Sleep(s.R.W.Model.PutIssueCost)
}

// stepFlagIssued commits the arrival-flag put (chained behind a data put,
// or alone on the Kernel Copy path) and runs the issuer's continuation.
func (s *SendRequest) stepFlagIssued(t *sim.Task) {
	s.tEp.PutFlagCommit(s.tRk, s.tPut, int64(s.tEpoch), s.fnCbDone)
	t.Then(s.tThen)
}

// completionOnlyTask is completionOnly in continuation form (flag only, no
// data movement — the Kernel Copy path), resuming the scan afterwards.
func (s *SendRequest) completionOnlyTask(t *sim.Task, part int) {
	if s.issued[part] {
		if s.violate("double-pready", fmt.Sprintf("duplicate completion of partition %d", part)) {
			s.nextPart(t)
			return
		}
	}
	s.markIssued(part)
	s.inflight++
	s.tPut, s.tThen = part, s.fnNext
	s.tEp, s.tRk, s.tEpoch = s.ep, s.rkey, s.epoch
	s.tEp.PutFlagValidate(s.tRk)
	t.Then(s.fnFlagDone)
	t.Sleep(s.R.W.Model.PutIssueCost)
}

// done reports whether the epoch's transfers are fully flushed.
func (s *SendRequest) done() bool {
	return s.nIssued == len(s.parts) && s.inflight == 0 && !s.R.Worker.HasPending()
}

// Wait completes the epoch (MPI_Wait on the send side): it progresses
// outstanding puts until every partition has been transferred and every
// chained completion signal delivered, then deactivates the request until
// the next Start.
func (s *SendRequest) Wait(p *sim.Proc) {
	if s.checkUsable("Wait") {
		return
	}
	if !s.started {
		if s.violate("wait-before-start", "Wait before Start") {
			return
		}
	}
	for !s.done() {
		s.Progress(p)
		s.R.Worker.Progress(p) //nolint:staticcheck // intentional double progress
		if s.done() {
			break
		}
		p.Wait(s.R.W.Model.ProgressPollInterval)
	}
	s.started = false
	s.active = false
	sanComplete(s.R, s)
}

// Test is the non-blocking completion check (MPI_Test).
func (s *SendRequest) Test(p *sim.Proc) bool {
	if s.checkUsable("Test") {
		return false
	}
	s.R.Worker.Progress(p)
	if s.started && s.done() {
		s.started = false
		s.active = false
		sanComplete(s.R, s)
		return true
	}
	return !s.started
}

// Free releases the request (MPI_Request_free). The channel must not be in
// an active epoch.
func (s *SendRequest) Free() {
	if s.started {
		if s.violate("free-active", "Free of send request inside an active epoch") {
			return
		}
	}
	s.freed = true
	s.active = false
	sanFree(s.R, s)
}

// checkUsable guards against use-after-Free; true means "skip the operation"
// (sanitizer in SanRecord mode).
func (s *SendRequest) checkUsable(op string) bool {
	if s.freed {
		return s.violate("use-after-free", op+" on freed send request")
	}
	return false
}
