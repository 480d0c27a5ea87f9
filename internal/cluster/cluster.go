// Package cluster defines the simulated machine: the topology of a GH200
// Grace Hopper testbed (nodes × superchips) and the calibrated cost model
// that drives every timing in the reproduction.
//
// The defaults in DefaultModel are calibrated against the measurements the
// paper reports for its two-node, four-GH200-per-node testbed (Section V):
// a 7.8 µs cudaStreamSynchronize, kernel execution up to 933.4 µs at 128K
// grids, NVLink pairs at 150 GB/s, ConnectX-7 at 400 Gbit, and the Table I
// API overheads. See DESIGN.md §4 for the derivations.
package cluster

import (
	"fmt"
	"math"
	"reflect"

	"mpipart/internal/sim"
)

// Topology describes the shape of the simulated machine. GPUs are numbered
// globally: GPU g lives on node g / GPUsPerNode. Each GPU is one GH200
// superchip (Grace CPU + Hopper GPU + its own ConnectX-7 NIC), matching the
// paper's testbed where each node has four superchips and four NICs.
type Topology struct {
	Nodes       int
	GPUsPerNode int
}

// TwoNodeGH200 returns the paper's testbed: two nodes, four GH200 each.
func TwoNodeGH200() Topology { return Topology{Nodes: 2, GPUsPerNode: 4} }

// OneNodeGH200 returns a single node with four GH200 superchips.
func OneNodeGH200() Topology { return Topology{Nodes: 1, GPUsPerNode: 4} }

// TotalGPUs returns the number of GPUs (= MPI ranks) in the machine.
func (t Topology) TotalGPUs() int { return t.Nodes * t.GPUsPerNode }

// NodeOf returns the node hosting global GPU id g.
func (t Topology) NodeOf(g int) int { return g / t.GPUsPerNode }

// SameNode reports whether two global GPU ids share a node.
func (t Topology) SameNode(a, b int) bool { return t.NodeOf(a) == t.NodeOf(b) }

// Validate reports whether the topology is usable.
func (t Topology) Validate() error {
	if t.Nodes <= 0 || t.GPUsPerNode <= 0 {
		return fmt.Errorf("cluster: invalid topology %+v", t)
	}
	return nil
}

// Model holds every calibrated cost parameter of the simulation. All
// durations are virtual time. Figures in comments refer to the paper.
type Model struct {
	// ---- GPU execution (Fig. 2 calibration) ----

	// StreamSyncCost is the fixed cost of cudaStreamSynchronize
	// (7.8 ± 0.1 µs in the paper, independent of kernel size).
	StreamSyncCost sim.Duration
	// KernelLaunchCost is the latency from stream dispatch to kernel start.
	KernelLaunchCost sim.Duration
	// SMs is the number of streaming multiprocessors (H100: 132).
	SMs int
	// MaxThreadsPerSM bounds resident blocks per SM (H100: 2048).
	MaxThreadsPerSM int
	// MaxBlocksPerSM bounds resident blocks per SM (H100: 32).
	MaxBlocksPerSM int
	// VecAddWaveTime is the execution time of one full wave of the vector
	// add kernel (8 B per thread). With 2 resident 1024-thread blocks per
	// SM a 128K-grid kernel runs ceil(131072/264)=497 waves; 1.88 µs/wave
	// reproduces the paper's ≈933 µs kernel execution time.
	VecAddWaveTime sim.Duration

	// ---- GPU-initiated signalling (Fig. 3 calibration) ----

	// HostFlagWriteGap is the serialized per-write occupancy of a GPU
	// thread storing to pinned host memory over NVLink-C2C. 1024 writes
	// at 260 ns ≈ 266 µs, giving the paper's 271.5× thread-vs-block gap.
	HostFlagWriteGap sim.Duration
	// HostFlagWriteLatency is the delivery latency of such a store.
	HostFlagWriteLatency sim.Duration
	// SyncWarpCost is the cost of __syncwarp() charged per block that
	// executes it.
	SyncWarpCost sim.Duration
	// SyncThreadsCost is the cost of __syncthreads() per block.
	SyncThreadsCost sim.Duration
	// DeviceAtomicCost is the cost of an atomic add in GPU global memory
	// (used by multi-block partition aggregation counters).
	DeviceAtomicCost sim.Duration
	// DeviceFlagPollCost is the cost of a device-side poll of a flag in
	// GPU global memory (device Parrived).
	DeviceFlagPollCost sim.Duration

	// ---- Interconnect (Section V) ----

	// NVLinkLatency / NVLinkBytesPerSec model one GPU↔GPU direction
	// (6 NVLink4 links per neighbor pair, 150 GB/s).
	NVLinkLatency     sim.Duration
	NVLinkBytesPerSec float64
	// IBLatency / IBBytesPerSec model one ConnectX-7 NDR NIC direction
	// (400 Gbit ≈ 50 GB/s; effective 48 GB/s).
	IBLatency     sim.Duration
	IBBytesPerSec float64
	// C2CLatency / C2CBytesPerSec model the NVLink-C2C host↔device path
	// (450 GB/s per direction).
	C2CLatency     sim.Duration
	C2CBytesPerSec float64
	// HostLoopbackLatency is host-to-host small-message latency within a
	// node (shared-memory transport for control messages).
	HostLoopbackLatency sim.Duration
	// ShmBytesPerSec is the intra-node shared-memory data bandwidth for
	// host-staged bulk transfers (pageable copies through the shm BTL).
	ShmBytesPerSec float64

	// ---- Host-side software costs ----

	// HostSendOverhead is the per-call host CPU cost of MPI_Send/Recv.
	HostSendOverhead sim.Duration
	// HostPostOverhead is the cheaper cost of posting a non-blocking op.
	HostPostOverhead sim.Duration
	// PutIssueCost is the host CPU cost of issuing a small immediate
	// ucp_put_nbx (the chained completion-flag puts).
	PutIssueCost sim.Duration
	// PutDataIssueCost is the host CPU cost of issuing a full data
	// ucp_put_nbx with a completion request and callback (protocol
	// selection, request allocation) — the host MPI_Pready path.
	PutDataIssueCost sim.Duration
	// GPUEagerStagingCost is the sender-side staging cost of an eager
	// (small) device-buffer message crossing nodes: CUDA-aware MPI copies
	// small GPU payloads through host memory before IB injection.
	GPUEagerStagingCost sim.Duration
	// ProgressPollInterval is the progression engine's polling period.
	ProgressPollInterval sim.Duration
	// ProgressItemCost is the cost of handling one completion/AM during
	// worker progress.
	ProgressItemCost sim.Duration
	// CPUReduceBytesPerSec is host-CPU reduction bandwidth, used by the
	// host-staged MPI_Allreduce baseline.
	CPUReduceBytesPerSec float64
	// EagerThresholdBytes is the message size up to which MPI_Send
	// completes locally (eager protocol); larger messages rendezvous.
	EagerThresholdBytes int64

	// ---- Setup / registration costs (Table I calibration) ----

	// UCPContextCreate is charged once per process on first partitioned
	// init (creating the UCP context + worker).
	UCPContextCreate sim.Duration
	// PinitCost is the remaining host bookkeeping of MPI_Psend/Precv_init
	// (packing setup_t, posting the non-blocking exchange).
	PinitCost sim.Duration
	// MemMapBase / MemMapPerByte model ucp_mem_map + ucp_rkey_pack of the
	// receive buffer and partition flags. MemMapPerByte is in nanoseconds
	// per byte (fractional).
	MemMapBase    sim.Duration
	MemMapPerByte float64
	// RkeyUnpackCost is charged per remote key unpacked on the sender.
	RkeyUnpackCost sim.Duration
	// EpCreateCost is charged when a UCP endpoint is first created.
	EpCreateCost sim.Duration
	// H2DCopyBase is the fixed cost of a small cudaMemcpy host→device
	// (moving the MPIX_Prequest structure to GPU global memory).
	H2DCopyBase sim.Duration
	// HostAllocPinnedCost is the cost of allocating/pinning the host flag
	// array in MPIX_Prequest_create.
	HostAllocPinnedCost sim.Duration
	// DeviceAllocCost is the cost of allocating and zeroing the device
	// global-memory structures (counters, MPIX_Prequest object) in
	// MPIX_Prequest_create.
	DeviceAllocCost sim.Duration
	// MCAInitCost is the one-time module/registry initialization charged
	// on the very first MPIX_Pbuf_prepare in a process (the paper's
	// 193.4 µs first call includes "initializing the MCA module").
	MCAInitCost sim.Duration
	// SchedBuildPerStep is the host cost per schedule step built during
	// MPIX_P<collective>_init.
	SchedBuildPerStep sim.Duration
	// CollInitBase is the fixed host cost of MPIX_P<collective>_init
	// (request/queue allocation, staging buffers) on top of the underlying
	// point-to-point inits and the per-step schedule construction.
	CollInitBase sim.Duration
}

// DefaultModel returns the GH200-calibrated parameter set documented in
// DESIGN.md §4.
func DefaultModel() Model {
	return Model{
		StreamSyncCost:   sim.Microseconds(7.8),
		KernelLaunchCost: sim.Microseconds(1.2),
		SMs:              132,
		MaxThreadsPerSM:  2048,
		MaxBlocksPerSM:   32,
		VecAddWaveTime:   sim.Microseconds(1.88),

		HostFlagWriteGap:     sim.Nanoseconds(260),
		HostFlagWriteLatency: sim.Nanoseconds(720),
		SyncWarpCost:         sim.Nanoseconds(40),
		SyncThreadsCost:      sim.Nanoseconds(220),
		DeviceAtomicCost:     sim.Nanoseconds(25),
		DeviceFlagPollCost:   sim.Nanoseconds(15),

		NVLinkLatency:       sim.Microseconds(1.45),
		NVLinkBytesPerSec:   150e9,
		IBLatency:           sim.Microseconds(3.6),
		IBBytesPerSec:       48e9,
		C2CLatency:          sim.Nanoseconds(550),
		C2CBytesPerSec:      450e9,
		HostLoopbackLatency: sim.Nanoseconds(600),
		ShmBytesPerSec:      12e9,

		HostSendOverhead:     sim.Nanoseconds(650),
		HostPostOverhead:     sim.Nanoseconds(250),
		PutIssueCost:         sim.Nanoseconds(650),
		PutDataIssueCost:     sim.Microseconds(2.6),
		GPUEagerStagingCost:  sim.Microseconds(12),
		ProgressPollInterval: sim.Nanoseconds(400),
		ProgressItemCost:     sim.Nanoseconds(60),
		CPUReduceBytesPerSec: 3e9,
		EagerThresholdBytes:  8192,

		UCPContextCreate:    sim.Microseconds(13.0),
		PinitCost:           sim.Microseconds(4.2),
		MemMapBase:          sim.Microseconds(26),
		MemMapPerByte:       0.002, // ns/byte ⇒ 2 µs per MiB
		RkeyUnpackCost:      sim.Microseconds(1.1),
		EpCreateCost:        sim.Microseconds(4.2),
		H2DCopyBase:         sim.Microseconds(9.0),
		HostAllocPinnedCost: sim.Microseconds(38),
		DeviceAllocCost:     sim.Microseconds(36),
		MCAInitCost:         sim.Microseconds(155),
		SchedBuildPerStep:   sim.Microseconds(2.4),
		CollInitBase:        sim.Microseconds(39),
	}
}

// Validate reports whether the model can drive a simulation. Every numeric
// field must be finite and non-negative, and the fields that divide or
// bound a loop must be positive: a zero SM count, poll interval or
// bandwidth would stall virtual time instead of failing. A partial JSON
// override zeroes every field it does not name, so callers accepting
// models from outside (sweepd) must validate before simulating.
func (m Model) Validate() error {
	v := reflect.ValueOf(m)
	for i := 0; i < v.NumField(); i++ {
		name, f := v.Type().Field(i).Name, v.Field(i)
		switch f.Kind() {
		case reflect.Float64:
			if x := f.Float(); math.IsNaN(x) || math.IsInf(x, 0) || x < 0 {
				return fmt.Errorf("cluster: model %s = %v, want a finite non-negative value", name, x)
			}
		case reflect.Int, reflect.Int64:
			if f.Int() < 0 {
				return fmt.Errorf("cluster: model %s = %d is negative", name, f.Int())
			}
		}
	}
	for _, p := range []struct {
		name string
		ok   bool
	}{
		{"SMs", m.SMs > 0},
		{"MaxThreadsPerSM", m.MaxThreadsPerSM > 0},
		{"MaxBlocksPerSM", m.MaxBlocksPerSM > 0},
		{"ProgressPollInterval", m.ProgressPollInterval > 0},
		{"NVLinkBytesPerSec", m.NVLinkBytesPerSec > 0},
		{"IBBytesPerSec", m.IBBytesPerSec > 0},
		{"C2CBytesPerSec", m.C2CBytesPerSec > 0},
		{"ShmBytesPerSec", m.ShmBytesPerSec > 0},
		{"CPUReduceBytesPerSec", m.CPUReduceBytesPerSec > 0},
	} {
		if !p.ok {
			return fmt.Errorf("cluster: model %s must be positive", p.name)
		}
	}
	return nil
}

// ResidentBlocksPerSM returns how many blocks of the given size can be
// resident on one SM, following CUDA occupancy rules (thread and block
// limits).
func (m *Model) ResidentBlocksPerSM(blockSize int) int {
	if blockSize <= 0 {
		blockSize = 1
	}
	byThreads := m.MaxThreadsPerSM / blockSize
	if byThreads < 1 {
		byThreads = 1
	}
	if byThreads > m.MaxBlocksPerSM {
		byThreads = m.MaxBlocksPerSM
	}
	return byThreads
}

// BlocksPerWave returns how many blocks of the given size execute
// concurrently across the whole GPU.
func (m *Model) BlocksPerWave(blockSize int) int {
	return m.SMs * m.ResidentBlocksPerSM(blockSize)
}

// Waves returns how many waves a grid of the given shape needs.
func (m *Model) Waves(grid, blockSize int) int {
	per := m.BlocksPerWave(blockSize)
	if grid <= 0 {
		return 0
	}
	return (grid + per - 1) / per
}

// KernelExecTime estimates the execution time of a kernel with the given
// shape and per-wave cost (occupancy-scaled for partially filled waves is
// intentionally not modeled: a single straggler block costs a full wave,
// as on real hardware).
func (m *Model) KernelExecTime(grid, blockSize int, waveTime sim.Duration) sim.Duration {
	return sim.Duration(m.Waves(grid, blockSize)) * waveTime
}

// MemMapCost returns the ucp_mem_map + rkey_pack cost for a region of the
// given byte size.
func (m *Model) MemMapCost(bytes int64) sim.Duration {
	return m.MemMapBase + sim.Duration(m.MemMapPerByte*float64(bytes))
}

// ScaledWaveTime returns a per-wave cost for kernels whose per-thread work
// is roughly `ops` times the vector-add body (2 loads + 1 add + 1 store).
func (m *Model) ScaledWaveTime(ops float64) sim.Duration {
	return sim.Duration(float64(m.VecAddWaveTime) * ops)
}
