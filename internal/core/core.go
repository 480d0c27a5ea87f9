// Package core is the paper's primary contribution: a UCX-based MPI
// Partitioned point-to-point library with MPI-native GPU-initiated
// communication (Section IV-A).
//
// The host control flow follows Figure 1 of the paper exactly:
//
//	sreq := core.PsendInit(r, dst, tag, buf, nparts)   // ① setup_t sent
//	rreq := core.PrecvInit(r, src, tag, buf, nparts)   // ① recv posted
//	sreq.Start(p)                                       // mark pending
//	sreq.PbufPrepare(p)                                 // ② receiver maps
//	                                                    //   buffer+flags,
//	                                                    //   responds rkeys
//	preq := core.PrequestCreate(p, sreq, opts)          // ③ device request
//	stream.Launch(kernel using preq.Pready*)            // ④ device Pready
//	sreq.Wait(p)                                        // ⑤ completion
//
// Device bindings (MPIX_Pready at thread / warp / block granularity, with
// optional multi-block aggregation counters, and the intra-node Kernel Copy
// path) are methods on Prequest called from simulated kernel bodies.
//
// Two copy mechanisms exist, as in Section IV-A.4:
//
//   - ProgressionEngine: a CUDA thread raises a flag in pinned host memory;
//     the MPI progression engine detects it and issues the host MPI_Pready
//     (a ucp_put_nbx of the partition with a chained put that raises the
//     receive-side arrival flag).
//   - KernelCopy: device code stores the partition directly into the peer's
//     mapped memory over NVLink (via the ucp_rkey_ptr mapping) and raises
//     the host flag with the "data already moved" value; the progression
//     engine then sends only the completion signal.
package core

import (
	"fmt"

	"mpipart/internal/mpi"
	"mpipart/internal/sim"
	"mpipart/internal/ucx"
)

// Active-message ids used by the partitioned protocol.
const (
	amSetup    = 101 // sender → receiver: setup_t
	amSetupRsp = 102 // receiver → sender: setup_t response with rkeys
	amRTR      = 103 // receiver → sender: ready-to-receive (later epochs)
)

// chanKey matches a partitioned channel: communicator (implicit), source,
// destination, tag, and posting order (seq) for identical tuples.
type chanKey struct {
	src, dst, tag, seq int
}

func (k chanKey) String() string {
	return fmt.Sprintf("%d->%d tag %d #%d", k.src, k.dst, k.tag, k.seq)
}

// setupMsg is the paper's setup_t: everything the receiver needs to match
// and configure the channel.
type setupMsg struct {
	Key      chanKey
	NParts   int
	PartLens []int
	Worker   ucx.WorkerAddr
}

// setupRsp carries the receiver's registered memory keys back to the sender.
type setupRsp struct {
	Key    chanKey
	Rkey   ucx.Rkey
	Worker ucx.WorkerAddr
}

// rtrMsg signals the receiver is ready for epoch Epoch.
type rtrMsg struct {
	Key   chanKey
	Epoch int
}

// procState is the lazy per-rank state of the partitioned library.
type procState struct {
	seqs    map[[3]int]int // (src,dst,tag) -> next channel seq (send side)
	recvSeq map[[3]int]int // (src,dst,tag) -> next channel seq (recv side)
}

// state returns (creating if needed) the partitioned library's per-rank
// state, charging the lazy UCP context/worker creation on first use
// (Section IV-A.1: "On the first call into the MPI Partitioned API, these
// initialization routines create a UCP context").
func state(p *sim.Proc, r *mpi.Rank) *procState {
	if st, ok := r.PartState.(*procState); ok {
		return st
	}
	p.Wait(r.W.Model.UCPContextCreate)
	r.UCPInitialized = true
	st := &procState{seqs: make(map[[3]int]int), recvSeq: make(map[[3]int]int)}
	r.PartState = st
	return st
}

// chargeMCAOnce charges the one-time MCA module initialization folded into
// the first MPIX_Pbuf_prepare of a process (Table I: first call 193.4 µs).
func chargeMCAOnce(p *sim.Proc, r *mpi.Rank) {
	if r.MCAInitialized {
		return
	}
	r.MCAInitialized = true
	p.Wait(r.W.Model.MCAInitCost)
}

// EqualPartitions splits buf into n contiguous, nearly equal partitions —
// the standard MPI Partitioned buffer layout.
func EqualPartitions(buf []float64, n int) [][]float64 {
	if n <= 0 {
		panic("core: partition count must be positive")
	}
	parts := make([][]float64, n)
	base, rem := len(buf)/n, len(buf)%n
	off := 0
	for i := 0; i < n; i++ {
		sz := base
		if i < rem {
			sz++
		}
		parts[i] = buf[off : off+sz : off+sz]
		off += sz
	}
	return parts
}

func partLens(parts [][]float64) []int {
	ls := make([]int, len(parts))
	for i, pt := range parts {
		ls[i] = len(pt)
	}
	return ls
}

func sameLens(a []int, b [][]float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != len(b[i]) {
			return false
		}
	}
	return true
}
