// Package nccl simulates the NVIDIA Collective Communications Library
// baseline the paper compares against (Figs. 6, 7, 10, 11): stream-ordered,
// fused ring collectives executed entirely on the device.
//
// The decisive mechanism — and why NCCL beats the partitioned allreduce in
// the paper — is that the whole ring runs inside ONE persistent kernel: the
// per-step reductions are fused (no kernel launch, no cudaStreamSynchronize
// between steps), and inter-GPU synchronization happens with device-side
// flag exchanges over NVLink. The model charges exactly that: one launch,
// per-hop link transfers, fused-reduction time at HBM-class bandwidth, and
// nothing else.
package nccl

import (
	"fmt"

	"mpipart/internal/gpu"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)

// FusedReduceBytesPerSec is the device-side reduction bandwidth of the
// fused kernel (HBM-bound; overlapped with transfers in real NCCL, charged
// serially here, which is slightly pessimistic for NCCL).
const FusedReduceBytesPerSec = 1500e9

// Comm is an NCCL communicator spanning all ranks of a world. Creating the
// communicator (ncclCommInitRank) happens once at startup, outside every
// timed region of the paper, so no cost is charged.
type Comm struct {
	w *mpi.World
	// ops keyed by collective sequence number: each rank's i-th AllReduce
	// call joins the i-th op.
	ops  map[int]*ringOp
	seqs []int // per-rank next sequence number
}

// NewComm creates the communicator for the whole world.
func NewComm(w *mpi.World) *Comm {
	return &Comm{w: w, ops: make(map[int]*ringOp), seqs: make([]int, w.Size())}
}

// ringOp is the shared state of one in-flight fused ring allreduce.
type ringOp struct {
	seq  int
	bufs [][]float64
	// staging[rank][step] receives the chunk arriving at that rank in that
	// step; arrived counts/conds synchronize the device kernels.
	staging [][][]float64
	arrived []*sim.Counter
	joined  int
}

func (c *Comm) op(seq, n int) *ringOp {
	o, ok := c.ops[seq]
	if !ok {
		P := c.w.Size()
		steps := 2 * (P - 1)
		o = &ringOp{
			seq:     seq,
			bufs:    make([][]float64, P),
			staging: make([][][]float64, P),
			arrived: make([]*sim.Counter, P),
		}
		for r := 0; r < P; r++ {
			o.staging[r] = make([][]float64, steps)
			o.arrived[r] = sim.NewCounter(c.w.K, fmt.Sprintf("nccl-%d-r%d", seq, r))
		}
		c.ops[seq] = o
	}
	return o
}

// AllReduce enqueues ncclAllReduce(sum) on the rank's stream, in place over
// buf. It returns the stream op's completion gate; synchronize the stream
// (or wait on the gate) to observe the result, exactly like NCCL's
// stream-ordered semantics. All ranks must call it collectively (their i-th
// calls form one collective).
func (c *Comm) AllReduce(r *mpi.Rank, stream *gpu.Stream, buf []float64) *sim.Gate {
	seq := c.seqs[r.ID]
	c.seqs[r.ID]++
	o := c.op(seq, len(buf))
	o.bufs[r.ID] = buf
	o.joined++
	rr := &ringRank{c: c, o: o, me: r.ID, seq: seq}
	rr.fnSend = rr.stepSend
	rr.fnRecv = rr.stepRecv
	rr.fnFold = rr.stepFold
	return stream.Enqueue(fmt.Sprintf("ncclAllReduce#%d", seq), rr.run)
}

func (o *ringOp) done(P int) bool {
	for r := 0; r < P; r++ {
		if o.bufs[r] == nil {
			return false
		}
	}
	return true
}

// ringRank is rank me's side of one fused ring reduce-scatter / allgather,
// run as steps of its stream's Task. Chunk indices follow the same ring
// arithmetic as the partitioned schedule (Algorithm 1), so the two
// implementations are algorithm-identical and differ only in execution
// mechanism.
type ringRank struct {
	c       *Comm
	o       *ringOp
	me, seq int

	// Set when the kernel starts: the chunk views, the link to the ring
	// successor, the step cursor and the stream's continuation.
	chunks  [][]float64
	next    int
	route   *sim.Pipe
	payload bool
	step    int
	done    sim.TaskFn

	fnSend, fnRecv, fnFold sim.TaskFn
}

// run is the fused kernel body: set up the ring and walk its 2(P-1) steps.
func (rr *ringRank) run(t *sim.Task, done sim.TaskFn) {
	c, P := rr.c, rr.c.w.Size()
	rr.done = done
	if P > 1 {
		rr.chunks = equalViews(rr.o.bufs[rr.me], P)
		rr.next = (rr.me + 1) % P
		rr.route = c.w.F.Route(rr.me, rr.next)
		rr.payload = !c.w.K.TimingOnly()
	}
	rr.stepSend(t)
}

// stepSend pushes this step's chunk to the successor's staging, then waits
// for the predecessor's chunk; after the last step it finishes the kernel.
func (rr *ringRank) stepSend(t *sim.Task) {
	o, P := rr.o, rr.c.w.Size()
	if rr.step >= 2*(P-1) {
		if o.joined == P && o.done(P) {
			delete(rr.c.ops, rr.seq) // all ranks finished; release the op
		}
		t.Then(rr.done)
		return
	}
	// The transfer is initiated by device-side stores, no host involved.
	// Staging hands the receiver a VIEW of the sender's chunk rather than a
	// copy: ring rank me mutates chunk k only at the step before it sends k
	// (reduce fold or allgather overwrite), never after, so between delivery
	// and the receiver's read the bytes are stable and the view is
	// indistinguishable from a snapshot. The per-step copy this replaces was
	// a top allocation site.
	src := rr.chunks[(rr.me+2*P-rr.step)%P]
	next, stepIdx := rr.next, rr.step
	arr := o.arrived[next]
	rr.route.TransferThen(int64(8*len(src)), func() {
		o.staging[next][stepIdx] = src
		arr.Add(1)
	})
	t.Then(rr.fnRecv)
}

// stepRecv waits for the predecessor's chunk for this step (re-run on every
// arrival), then folds it at HBM bandwidth — no launch, no sync — in the
// reduce-scatter half or copies it in the allgather half.
func (rr *ringRank) stepRecv(t *sim.Task) {
	o, P := rr.o, rr.c.w.Size()
	if !o.arrived[rr.me].AwaitAtLeast(t, rr.step+1) {
		return
	}
	if rr.step < P-1 {
		in := o.staging[rr.me][rr.step]
		t.Then(rr.fnFold)
		t.Sleep(sim.Duration(float64(8*len(in)) / FusedReduceBytesPerSec * 1e9))
		return
	}
	if rr.payload {
		copy(rr.chunks[(rr.me+2*P-rr.step-1)%P], o.staging[rr.me][rr.step])
	}
	rr.endStep(t)
}

// stepFold applies the fused reduction once its time has been charged.
func (rr *ringRank) stepFold(t *sim.Task) {
	P := rr.c.w.Size()
	if rr.payload {
		in := rr.o.staging[rr.me][rr.step]
		dst := rr.chunks[(rr.me+2*P-rr.step-1)%P]
		for i := range in {
			dst[i] += in[i]
		}
	}
	rr.endStep(t)
}

// endStep releases the step's staging view and moves to the next step.
func (rr *ringRank) endStep(t *sim.Task) {
	rr.o.staging[rr.me][rr.step] = nil
	rr.step++
	t.Then(rr.fnSend)
}

// equalViews splits buf into P nearly equal contiguous views (same
// splitting rule as the partitioned layers, so chunk boundaries match).
func equalViews(buf []float64, P int) [][]float64 {
	views := make([][]float64, P)
	base, rem := len(buf)/P, len(buf)%P
	off := 0
	for i := 0; i < P; i++ {
		sz := base
		if i < rem {
			sz++
		}
		views[i] = buf[off : off+sz : off+sz]
		off += sz
	}
	return views
}
