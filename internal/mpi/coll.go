package mpi

import (
	"mpipart/internal/gpu"
	"mpipart/internal/sim"
)

// Op codes for reductions.
type ReduceOp int

const (
	// OpSum is MPI_SUM, the only operation the paper's workloads use.
	OpSum ReduceOp = iota
	// OpMax is MPI_MAX (used by the Jacobi residual norm).
	OpMax
)

// Apply reduces src into dst element-wise.
func (op ReduceOp) Apply(dst, src []float64) {
	dst = dst[:len(src)] // one bounds check for the whole loop
	switch op {
	case OpSum:
		for i, v := range src {
			dst[i] += v
		}
	case OpMax:
		for i, v := range src {
			if v > dst[i] {
				dst[i] = v
			}
		}
	}
}

// allreduceTagBase keeps traditional-collective traffic away from
// application tags.
const allreduceTagBase = 1 << 20

// Allreduce is the traditional MPI_Allreduce baseline on a GPU buffer. It
// models what Open MPI v5.0.x does for device buffers without a
// device-optimized collective component: stage the whole buffer to host
// over C2C and fall back to the basic linear algorithm — every rank sends
// its full buffer to root, root applies P-1 full-size CPU reductions, then
// broadcasts the result — before copying back to the device. This host
// staging plus unpipelined linear reduction is what leaves the traditional
// collective orders of magnitude behind the partitioned one in Figs. 6/7 —
// on the real system as in the model.
//
// buf is the rank's device buffer (in place, like MPI_IN_PLACE). All ranks
// must call Allreduce collectively from their host procs.
func (r *Rank) Allreduce(p *sim.Proc, buf []float64, op ReduceOp) {
	P := r.W.Size()
	if P == 1 {
		return
	}
	n := len(buf)
	bytes := int64(8 * n)

	// Stage device -> host. The C2C staging cost is charged by the memcpy
	// calls; the algorithm then works on buf in place — a separate host
	// shadow buffer would change no delivered bytes (every transfer below
	// completes before the next mutation of its source), only add two
	// full-size copies per call to the measured host time.
	r.Dev.MemcpyD2H(p, bytes)

	reduceCost := sim.Duration(float64(bytes) / r.W.Model.CPUReduceBytesPerSec * 1e9)
	if r.ID == 0 {
		// Linear reduce at root: receive and fold each peer in turn. The
		// receive scratch lives on the rank and is reused across calls; a
		// timing-only world receives into a length-only view and folds
		// nothing.
		payload := !r.W.K.TimingOnly()
		var tmp []float64
		if payload {
			if cap(r.arTmp) < n {
				r.arTmp = make([]float64, n)
			}
			tmp = r.arTmp[:n]
		} else {
			tmp = gpu.LengthOnly(n)
		}
		for src := 1; src < P; src++ {
			r.RecvHostBuf(p, src, allreduceTagBase+src, tmp)
			p.Wait(reduceCost)
			if payload {
				op.Apply(buf, tmp)
			}
		}
		// Linear bcast of the result (buf is not mutated after this point,
		// so the in-flight sends read stable data).
		ops := make([]*Op, 0, P-1)
		for dst := 1; dst < P; dst++ {
			ops = append(ops, r.IsendHost(p, dst, allreduceTagBase+1024+dst, buf))
		}
		for _, o := range ops {
			o.Wait(p)
		}
	} else {
		r.SendHostBuf(p, 0, allreduceTagBase+r.ID, buf)
		r.RecvHostBuf(p, 0, allreduceTagBase+1024+r.ID, buf)
	}

	// Stage host -> device.
	r.Dev.MemcpyH2D(p, bytes)
}

// SendHostBuf / RecvHostBuf are blocking host-path transfers used by the
// staged collectives.
func (r *Rank) SendHostBuf(p *sim.Proc, dst, tag int, buf []float64) {
	p.Wait(r.W.Model.HostSendOverhead - r.W.Model.HostPostOverhead)
	r.IsendHost(p, dst, tag, buf).Wait(p)
}

// RecvHostBuf is the blocking host-path receive.
func (r *Rank) RecvHostBuf(p *sim.Proc, src, tag int, buf []float64) {
	p.Wait(r.W.Model.HostSendOverhead - r.W.Model.HostPostOverhead)
	r.IrecvHost(p, src, tag, buf).Wait(p)
}

type chunk struct{ off, n int }

// splitChunks divides n elements into P nearly equal contiguous chunks.
func splitChunks(n, P int) []chunk {
	cs := make([]chunk, P)
	base, rem := n/P, n%P
	off := 0
	for i := 0; i < P; i++ {
		sz := base
		if i < rem {
			sz++
		}
		cs[i] = chunk{off: off, n: sz}
		off += sz
	}
	return cs
}

func chunkMaxLen(cs []chunk) int {
	m := 0
	for _, c := range cs {
		if c.n > m {
			m = c.n
		}
	}
	return m
}
