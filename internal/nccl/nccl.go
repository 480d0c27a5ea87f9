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
	me := r.ID
	return stream.Enqueue(fmt.Sprintf("ncclAllReduce#%d", seq), func(p *sim.Proc) {
		c.runRing(p, o, me)
		if o.joined == c.w.Size() && o.done(c.w.Size()) {
			delete(c.ops, seq) // all ranks finished; release the op
		}
	})
}

func (o *ringOp) done(P int) bool {
	for r := 0; r < P; r++ {
		if o.bufs[r] == nil {
			return false
		}
	}
	return true
}

// runRing executes rank me's side of the fused ring reduce-scatter /
// allgather. Chunk indices follow the same ring arithmetic as the
// partitioned schedule (Algorithm 1), so the two implementations are
// algorithm-identical and differ only in execution mechanism.
func (c *Comm) runRing(p *sim.Proc, o *ringOp, me int) {
	P := c.w.Size()
	if P == 1 {
		return
	}
	buf := o.bufs[me]
	chunks := equalViews(buf, P)
	next := (me + 1) % P
	steps := 2 * (P - 1)
	route := c.w.F.Route(me, next)
	payload := !c.w.K.TimingOnly()

	for step := 0; step < steps; step++ {
		sc := (me + 2*P - step) % P
		rc := (me + 2*P - step - 1) % P
		// Push our chunk to the neighbour's staging for this step; the
		// transfer is initiated by device-side stores, no host involved.
		// Staging hands the receiver a VIEW of the sender's chunk rather
		// than a copy: ring rank me mutates chunk k only at the step before
		// it sends k (reduce fold or allgather overwrite), never after, so
		// between delivery and the receiver's read the bytes are stable and
		// the view is indistinguishable from a snapshot. The per-step copy
		// this replaces was a top allocation site.
		src := chunks[sc]
		arr := o.arrived[next]
		stepIdx := step
		route.TransferThen(int64(8*len(src)), func() {
			o.staging[next][stepIdx] = src
			arr.Add(1)
		})
		// Wait for the predecessor's chunk for this step.
		o.arrived[me].WaitAtLeast(p, step+1)
		in := o.staging[me][step]
		dst := chunks[rc]
		if step < P-1 {
			// Fused reduction at HBM bandwidth — no launch, no sync.
			p.Wait(sim.Duration(float64(8*len(in)) / FusedReduceBytesPerSec * 1e9))
			if payload {
				for i := range in {
					dst[i] += in[i]
				}
			}
		} else if payload {
			copy(dst, in)
		}
		o.staging[me][step] = nil
	}
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
