package mpi

import (
	"fmt"

	"mpipart/internal/sim"
)

// msgKey is the matching tuple for point-to-point messages. The communicator
// is implicit (MPI_COMM_WORLD); matching is by (source, destination, tag) in
// posting order, as the standard requires.
type msgKey struct {
	src, dst, tag int
}

// pendingOp is a posted send or receive awaiting its match.
type pendingOp struct {
	buf  []float64
	op   *Op
	rank *Rank
	host bool // host-memory path (staged collectives) vs GPU buffer path
	// eager sends carry a snapshot of the data and complete immediately
	// at the sender; the snapshot is what gets delivered on match.
	eager bool
}

// Op is a non-blocking point-to-point operation handle.
type Op struct {
	done *sim.Gate
	// Bytes moved, for diagnostics.
	bytes int64
}

// Wait parks p until the operation completes (data delivered).
func (o *Op) Wait(p *sim.Proc) { o.done.Wait(p) }

// Done reports completion without blocking (MPI_Test).
func (o *Op) Done() bool { return o.done.IsOpen() }

// Isend posts a non-blocking send of a GPU buffer to rank dst with the
// given tag. The transfer path is GPUDirect-style: device memory to device
// memory over NVLink or InfiniBand.
func (r *Rank) Isend(p *sim.Proc, dst, tag int, buf []float64) *Op {
	return r.isend(p, dst, tag, buf, false)
}

// IsendHost posts a non-blocking send of a host buffer (staged collective
// traffic; intra-node uses shared memory).
func (r *Rank) IsendHost(p *sim.Proc, dst, tag int, buf []float64) *Op {
	return r.isend(p, dst, tag, buf, true)
}

// Irecv posts a non-blocking receive of a GPU buffer from rank src.
func (r *Rank) Irecv(p *sim.Proc, src, tag int, buf []float64) *Op {
	return r.irecv(p, src, tag, buf, false)
}

// IrecvHost posts a non-blocking receive into a host buffer.
func (r *Rank) IrecvHost(p *sim.Proc, src, tag int, buf []float64) *Op {
	return r.irecv(p, src, tag, buf, true)
}

// Send is the blocking send (MPI_Send): it completes when the data has been
// delivered into the matched receive buffer (rendezvous semantics, which is
// what large GPU messages use in practice).
func (r *Rank) Send(p *sim.Proc, dst, tag int, buf []float64) {
	p.Wait(r.W.Model.HostSendOverhead - r.W.Model.HostPostOverhead)
	r.Isend(p, dst, tag, buf).Wait(p)
}

// Recv is the blocking receive (MPI_Recv).
func (r *Rank) Recv(p *sim.Proc, src, tag int, buf []float64) {
	p.Wait(r.W.Model.HostSendOverhead - r.W.Model.HostPostOverhead)
	r.Irecv(p, src, tag, buf).Wait(p)
}

func (r *Rank) isend(p *sim.Proc, dst, tag int, buf []float64, host bool) *Op {
	if dst < 0 || dst >= r.W.Size() {
		panic(fmt.Sprintf("mpi: send to invalid rank %d", dst))
	}
	p.Wait(r.W.Model.HostPostOverhead)
	key := msgKey{src: r.ID, dst: dst, tag: tag}
	op := &Op{done: sim.NewGate(r.W.K, fmt.Sprintf("send %d->%d tag %d", r.ID, dst, tag)), bytes: int64(8 * len(buf))}
	send := &pendingOp{buf: buf, op: op, rank: r, host: host}
	if op.bytes <= r.W.Model.EagerThresholdBytes {
		// Eager protocol: snapshot the payload (a timing-only world has
		// none to snapshot) and complete the send locally; the copy is
		// delivered to the receiver on match. Small *device* payloads
		// crossing nodes are first staged through host memory (CUDA-aware
		// eager path over InfiniBand).
		if !host && !r.W.Topo.SameNode(r.ID, dst) {
			p.Wait(r.W.Model.GPUEagerStagingCost)
		}
		send.eager = true
		if !r.W.K.TimingOnly() {
			send.buf = append([]float64(nil), buf...)
		}
		op.done.Open()
	}
	w := r.W
	if q := w.recvQ[key]; len(q) > 0 {
		recv := q[0]
		w.recvQ[key] = append(q[:0:0], q[1:]...)
		w.startTransfer(send, recv, key)
	} else {
		w.sendQ[key] = append(w.sendQ[key], send)
	}
	return op
}

func (r *Rank) irecv(p *sim.Proc, src, tag int, buf []float64, host bool) *Op {
	if src < 0 || src >= r.W.Size() {
		panic(fmt.Sprintf("mpi: recv from invalid rank %d", src))
	}
	p.Wait(r.W.Model.HostPostOverhead)
	key := msgKey{src: src, dst: r.ID, tag: tag}
	op := &Op{done: sim.NewGate(r.W.K, fmt.Sprintf("recv %d->%d tag %d", src, r.ID, tag)), bytes: int64(8 * len(buf))}
	recv := &pendingOp{buf: buf, op: op, rank: r, host: host}
	w := r.W
	if q := w.sendQ[key]; len(q) > 0 {
		send := q[0]
		w.sendQ[key] = append(q[:0:0], q[1:]...)
		w.startTransfer(send, recv, key)
	} else {
		w.recvQ[key] = append(w.recvQ[key], recv)
	}
	return op
}

// startTransfer runs the rendezvous: one control hop (CTS), then the data
// transfer over the appropriate route; delivery completes both operations.
func (w *World) startTransfer(send, recv *pendingOp, key msgKey) {
	if len(send.buf) > len(recv.buf) {
		panic(fmt.Sprintf("mpi: message truncation %d->%d tag %d: %d into %d elems",
			key.src, key.dst, key.tag, len(send.buf), len(recv.buf)))
	}
	srcGPU, dstGPU := send.rank.Dev.ID, recv.rank.Dev.ID
	route := w.F.Route(srcGPU, dstGPU)
	if send.host || recv.host {
		route = w.F.ControlRoute(srcGPU, dstGPU)
	}
	payload := !w.K.TimingOnly()
	deliver := func() {
		route.TransferThen(int64(8*len(send.buf)), func() {
			if payload {
				copy(recv.buf, send.buf)
			}
			send.op.done.Open()
			recv.op.done.Open()
		})
	}
	if send.eager {
		// Eager messages were pushed without a handshake.
		deliver()
		return
	}
	// Rendezvous: one CTS control hop, then the payload.
	cts := w.F.ControlRoute(dstGPU, srcGPU)
	w.K.At(cts.Transfer(32), deliver)
}

// PendingMessages reports unmatched posted operations, for tests.
func (w *World) PendingMessages() (sends, recvs int) {
	for _, q := range w.sendQ {
		sends += len(q)
	}
	for _, q := range w.recvQ {
		recvs += len(q)
	}
	return
}
