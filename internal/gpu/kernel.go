package gpu

import (
	"mpipart/internal/sim"
)

// KernelSpec describes a kernel launch: a 1-D grid of 1-D blocks whose
// bodies are real Go functions. Per-wave execution cost comes from WaveTime
// (defaulting to the calibrated vector-add wave time); everything a body
// does through the BlockCtx device API charges additional, properly
// serialized time.
type KernelSpec struct {
	// Name appears in traces and diagnostics.
	Name string
	// Grid is the number of blocks; Block is threads per block (≤1024).
	Grid, Block int
	// WaveTime is the compute time of one full wave of this kernel.
	// Zero selects Model.VecAddWaveTime.
	WaveTime sim.Duration
	// Body is executed once per block, after the wave's compute time has
	// elapsed (so stores and Pready signalling happen at the virtual time
	// the block's work completes, while the arithmetic itself is "paid
	// for" by WaveTime). b is valid only during the call: the stream
	// reuses one BlockCtx for every block, so a body must not retain b.
	Body func(b *BlockCtx)
}

// BlockCtx is the device-side view a kernel body runs against: one block of
// the grid, with the device intrinsics the paper's GPU-initiated designs
// use. All charge methods accumulate into the block's local time, of which
// the per-wave maximum extends the kernel (blocks in a wave run in
// parallel); posted stores (host flags, remote copies) serialize on their
// respective pipes instead.
type BlockCtx struct {
	// Idx is blockIdx.x, Dim is blockDim.x, Grid is gridDim.x.
	Idx, Dim, Grid int

	stream *Stream
	extra  sim.Duration
}

// Device returns the GPU executing the block.
func (b *BlockCtx) Device() *Device { return b.stream.dev }

// Stream returns the stream executing the kernel.
func (b *BlockCtx) Stream() *Stream { return b.stream }

// Now returns the current virtual time (end of this block's compute wave).
func (b *BlockCtx) Now() sim.Time { return b.stream.dev.K.Now() }

// ThreadBase returns the global index of the block's thread 0.
func (b *BlockCtx) ThreadBase() int { return b.Idx * b.Dim }

// ForEachThread invokes fn once per thread with the global thread index.
// The arithmetic inside fn represents the work WaveTime accounts for.
func (b *BlockCtx) ForEachThread(fn func(gtid int)) {
	base := b.ThreadBase()
	for t := 0; t < b.Dim; t++ {
		fn(base + t)
	}
}

// Warps returns the number of (possibly partial) warps in the block.
func (b *BlockCtx) Warps() int { return (b.Dim + 31) / 32 }

// Charge adds device time to this block (extends the wave by the per-wave
// maximum across blocks).
func (b *BlockCtx) Charge(d sim.Duration) { b.extra += d }

// SyncThreads models __syncthreads().
func (b *BlockCtx) SyncThreads() { b.extra += b.stream.dev.M.SyncThreadsCost }

// SyncWarp models __syncwarp().
func (b *BlockCtx) SyncWarp() { b.extra += b.stream.dev.M.SyncWarpCost }

// AtomicAdd models an atomic add on a counter in GPU global memory and
// returns the post-add value.
func (b *BlockCtx) AtomicAdd(ctr *int64, delta int64) int64 {
	b.extra += b.stream.dev.M.DeviceAtomicCost
	*ctr += delta
	return *ctr
}

// PollDeviceFlag models a device-side read of a flag in GPU global memory
// (the device MPIX_Parrived binding polls such flags because global memory
// access is far cheaper than host memory access).
func (b *BlockCtx) PollDeviceFlag(f *Flags, i int) int64 {
	b.extra += b.stream.dev.M.DeviceFlagPollCost
	return f.Get(i)
}

// WriteHostFlag posts a store of v into pinned-host-memory flag f[i]. The
// store is asynchronous for the issuing thread but serializes on the
// device's C2C flag-write pipe; the flag becomes host-visible at delivery.
func (b *BlockCtx) WriteHostFlag(f *Flags, i int, v int64) {
	d := b.stream.dev
	d.F.FlagWritePipe(d.ID).TransferThen(8, func() { f.Set(i, v) })
}

// RemoteCopy posts a device-initiated copy of src into dst over the given
// pipe (the Kernel Copy path: a store through an address obtained from
// ucp_rkey_ptr, travelling over NVLink). dst receives the data at delivery
// time; then (if non-nil) runs at delivery.
//
// The source slice is read at delivery time: MPI Partitioned semantics
// forbid the sender from mutating a partition between Pready and the end of
// the epoch, so the contents are stable over the transfer. A timing-only
// world charges the transfer and runs then, but moves no data.
func (b *BlockCtx) RemoteCopy(pipe *sim.Pipe, dst, src []float64, then func()) {
	if len(dst) < len(src) {
		panic("gpu: RemoteCopy destination shorter than source")
	}
	payload := !b.stream.dev.K.TimingOnly()
	pipe.TransferThen(int64(8*len(src)), func() {
		if payload {
			copy(dst, src)
		}
		if then != nil {
			then()
		}
	})
}
