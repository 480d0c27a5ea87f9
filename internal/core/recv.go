package core

import (
	"fmt"

	"mpipart/internal/gpu"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
	"mpipart/internal/ucx"
)

// RecvRequest is the receive side of a persistent partitioned channel
// (MPI_Precv_init).
type RecvRequest struct {
	R   *mpi.Rank
	Key chanKey
	Src int
	Tag int

	parts [][]float64

	// arrival holds the receive-side partition-status flags in pinned host
	// memory; the sender's chained puts write the epoch number into them.
	arrival *gpu.Flags

	// deviceMirror, when enabled, is the GPU-global-memory copy of the
	// arrival flags that the device MPIX_Parrived binding polls; MPI_Wait
	// pushes arrivals to it as they are observed (Section IV-A.4).
	deviceMirror *gpu.Flags
	mirrored     []bool

	prepared bool
	epoch    int
	started  bool
	handle   *ucx.MemHandle
	freed    bool
}

// PrecvInit initializes the receive side of a partitioned channel with
// equal contiguous partitions (MPI_Precv_init).
func PrecvInit(p *sim.Proc, r *mpi.Rank, src, tag int, buf []float64, nparts int) *RecvRequest {
	return PrecvInitParts(p, r, src, tag, EqualPartitions(buf, nparts))
}

// PrecvInitParts initializes the receive side with an explicit partition
// layout.
func PrecvInitParts(p *sim.Proc, r *mpi.Rank, src, tag int, parts [][]float64) *RecvRequest {
	st := state(p, r)
	if src < 0 || src >= r.W.Size() {
		panic(fmt.Sprintf("core: PrecvInit from invalid rank %d", src))
	}
	if len(parts) == 0 {
		panic("core: PrecvInit with zero partitions")
	}
	k3 := [3]int{src, r.ID, tag}
	key := chanKey{src: src, dst: r.ID, tag: tag, seq: st.recvSeq[k3]}
	st.recvSeq[k3]++

	p.Wait(r.W.Model.PinitCost)
	req := &RecvRequest{
		R:     r,
		Key:   key,
		Src:   src,
		Tag:   tag,
		parts: parts,
		// Arrival flags share the worker's condition so remote completion
		// signals wake this rank's progression engine (the collective layer
		// progresses schedules from there).
		arrival: gpu.NewFlagsShared("arrival:"+key.String(), len(parts), r.Worker.Cond()),
	}
	sanRegister(r, req, req.sanDesc(), len(parts))
	return req
}

func (rr *RecvRequest) sanDesc() string { return "precv " + rr.Key.String() }

// violate reports a state-machine violation on this request through the
// uniform checker; true means "skip the offending operation" (SanRecord).
func (rr *RecvRequest) violate(rule, detail string) bool {
	return sanViolate(rr.R, rule, rr.sanDesc(), detail)
}

// NParts returns the number of transport partitions.
func (rr *RecvRequest) NParts() int { return len(rr.parts) }

// Part returns the receive-side view of partition i.
func (rr *RecvRequest) Part(i int) []float64 { return rr.parts[i] }

// Epoch returns the current communication epoch.
func (rr *RecvRequest) Epoch() int { return rr.epoch }

// Start begins a receive epoch (MPI_Start): flags return to their default
// (unarrived) state.
func (rr *RecvRequest) Start(p *sim.Proc) {
	if rr.checkUsable("Start") {
		return
	}
	if rr.started {
		if rr.violate("double-start", "Start on already-started recv request") {
			return
		}
	}
	sanStart(rr.R, rr)
	p.Wait(rr.R.W.Model.HostPostOverhead)
	rr.epoch++
	rr.started = true
	rr.arrival.Reset()
	if rr.deviceMirror != nil {
		rr.deviceMirror.Reset()
		for i := range rr.mirrored {
			rr.mirrored[i] = false
		}
	}
}

// PbufPrepare guarantees buffer readiness to the sender (MPIX_Pbuf_prepare,
// ② in Fig. 1). On the first call the receiver waits for the sender's
// setup_t, registers the receive buffer and the partition-status flags with
// ucp_mem_map, packs the remote keys, and responds with its own setup
// object. On later calls it only sends the ready-to-receive signal.
func (rr *RecvRequest) PbufPrepare(p *sim.Proc) {
	if rr.checkUsable("PbufPrepare") {
		return
	}
	if !rr.started {
		if rr.violate("pbufprepare-before-start", "PbufPrepare before Start") {
			return
		}
	}
	chargeMCAOnce(p, rr.R)
	if !rr.prepared {
		am := rr.R.Worker.WaitAM(p, amSetup, func(a ucx.AM) bool {
			return a.Payload.(setupMsg).Key == rr.Key
		})
		setup := am.Payload.(setupMsg)
		if setup.NParts != len(rr.parts) || !sameLens(setup.PartLens, rr.parts) {
			panic(fmt.Sprintf("core: send/recv partition layout mismatch on %s", rr.Key))
		}
		// Register the receive buffer and the internal partition-status
		// flags (ucp_mem_map + ucp_rkey_pack).
		rr.handle = rr.R.Worker.MemMap(p, rr.parts, rr.arrival)
		rr.R.Worker.AMSend(setup.Worker, amSetupRsp, setupRsp{
			Key:    rr.Key,
			Rkey:   rr.handle.RkeyPack(),
			Worker: rr.R.Worker.Addr,
		}, 224)
		rr.prepared = true
		return
	}
	rr.R.Worker.AMSend(ucx.WorkerAddr(rr.Src), amRTR, rtrMsg{Key: rr.Key, Epoch: rr.epoch}, 48)
}

// Parrived is the host binding of MPI_Parrived: poll the receive-side
// completion flag of one partition.
func (rr *RecvRequest) Parrived(part int) bool {
	if rr.checkUsable("Parrived") {
		return false
	}
	if part < 0 || part >= len(rr.parts) {
		if rr.violate("parrived-range", fmt.Sprintf("Parrived partition %d out of %d", part, len(rr.parts))) {
			return false
		}
	}
	return rr.arrival.Get(part) == int64(rr.epoch)
}

// ArrivedCount returns how many partitions have arrived this epoch.
func (rr *RecvRequest) ArrivedCount() int {
	n := 0
	for i := 0; i < rr.arrival.Len(); i++ {
		if rr.arrival.Get(i) == int64(rr.epoch) {
			n++
		}
	}
	return n
}

// ArrivalFlags exposes the pinned-host-memory flag array (the collective
// layer polls it directly during schedule progression).
func (rr *RecvRequest) ArrivalFlags() *gpu.Flags { return rr.arrival }

// EnableDeviceParrived allocates the GPU-global-memory mirror of the
// arrival flags for the device MPIX_Parrived binding. The mirror is updated
// during MPI_Wait as partitions arrive (the paper issues a host→device
// memory copy there, because device code polls global memory far more
// cheaply than host memory).
func (rr *RecvRequest) EnableDeviceParrived(p *sim.Proc) *gpu.Flags {
	if rr.checkUsable("EnableDeviceParrived") {
		return rr.deviceMirror
	}
	if rr.deviceMirror == nil {
		p.Wait(rr.R.W.Model.DeviceAllocCost)
		rr.deviceMirror = gpu.NewFlags(rr.R.W.K, "devarrival:"+rr.Key.String(), len(rr.parts))
		rr.mirrored = make([]bool, len(rr.parts))
	}
	return rr.deviceMirror
}

// pushMirror copies newly arrived flags to the device mirror (one small
// async H2D copy per newly observed partition).
func (rr *RecvRequest) pushMirror() {
	if rr.deviceMirror == nil {
		return
	}
	for i := 0; i < rr.arrival.Len(); i++ {
		if !rr.mirrored[i] && rr.arrival.Get(i) == int64(rr.epoch) {
			rr.mirrored[i] = true
			i := i
			epoch := int64(rr.epoch)
			rr.R.W.F.HostToDevice(rr.R.Dev.ID).TransferThen(8, func() {
				rr.deviceMirror.Set(i, epoch)
			})
		}
	}
}

// Wait completes the receive epoch (MPI_Wait): it blocks until every
// partition's arrival flag carries the current epoch, pushing arrivals to
// the device mirror as they are observed.
func (rr *RecvRequest) Wait(p *sim.Proc) {
	if rr.checkUsable("Wait") {
		return
	}
	if !rr.started {
		if rr.violate("wait-before-start", "Wait before Start") {
			return
		}
	}
	epoch := int64(rr.epoch)
	for {
		rr.pushMirror()
		done := true
		for i := 0; i < rr.arrival.Len(); i++ {
			if rr.arrival.Get(i) != epoch {
				done = false
				break
			}
		}
		if done {
			break
		}
		rr.arrival.Cond().Wait(p)
	}
	rr.pushMirror()
	rr.started = false
	sanComplete(rr.R, rr)
}

// Test is the non-blocking completion check (MPI_Test).
func (rr *RecvRequest) Test() bool {
	if rr.checkUsable("Test") {
		return false
	}
	if !rr.started {
		return true
	}
	rr.pushMirror()
	if rr.ArrivedCount() == len(rr.parts) {
		rr.started = false
		sanComplete(rr.R, rr)
		return true
	}
	return false
}

// Free releases the request.
func (rr *RecvRequest) Free() {
	if rr.started {
		if rr.violate("free-active", "Free of recv request inside an active epoch") {
			return
		}
	}
	rr.freed = true
	sanFree(rr.R, rr)
}

// checkUsable guards against use-after-Free; true means "skip the operation"
// (sanitizer in SanRecord mode).
func (rr *RecvRequest) checkUsable(op string) bool {
	if rr.freed {
		return rr.violate("use-after-free", op+" on freed recv request")
	}
	return false
}
