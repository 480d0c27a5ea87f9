// Package fabric simulates the interconnects of the GH200 testbed: NVLink4
// GPU↔GPU links within a node, InfiniBand (ConnectX-7) between nodes, and
// the NVLink-C2C host↔device path of each superchip.
//
// Every directed path is a sim.Pipe with an alpha-beta cost model and FIFO
// serialization, created lazily per (src,dst) GPU pair. Intra-node GPU pairs
// get a dedicated NVLink pipe (the testbed has 6 NVLink4 links, 150 GB/s,
// between each pair); inter-node paths serialize through the source GPU's
// NIC egress pipe plus a per-message wire latency, which models that a
// superchip's ConnectX-7 is shared across all of its remote peers.
package fabric

import (
	"fmt"

	"mpipart/internal/cluster"
	"mpipart/internal/sim"
)

// Fabric owns all pipes of a simulated machine. The pipe tables are flat
// slices indexed by GPU (or node) id — Route runs once per simulated
// transfer, and an array index beats a map hash on that path. Creation
// stays lazy: a slot is filled (and its name formatted) on first use only.
type Fabric struct {
	K     *sim.Kernel
	Model *cluster.Model
	Topo  cluster.Topology

	nGPU     int
	nvlink   []*sim.Pipe // directed intra-node GPU pair, src*nGPU+dst
	nicOut   []*sim.Pipe // per-GPU NIC egress (inter-node)
	hostDev  []*sim.Pipe // per-GPU host→device C2C bulk
	devHost  []*sim.Pipe // per-GPU device→host C2C bulk
	flagPipe []*sim.Pipe // per-GPU serialized device→host flag writes
	loop     []*sim.Pipe // directed intra-node host pair loopback, src*nGPU+dst
}

// New creates a Fabric for the given machine.
func New(k *sim.Kernel, m *cluster.Model, topo cluster.Topology) *Fabric {
	n := topo.TotalGPUs()
	return &Fabric{
		K:        k,
		Model:    m,
		Topo:     topo,
		nGPU:     n,
		nvlink:   make([]*sim.Pipe, n*n),
		nicOut:   make([]*sim.Pipe, n),
		hostDev:  make([]*sim.Pipe, n),
		devHost:  make([]*sim.Pipe, n),
		flagPipe: make([]*sim.Pipe, n),
		loop:     make([]*sim.Pipe, n*n),
	}
}

// Route returns the directed data pipe from GPU src to GPU dst. Intra-node
// routes use the pair's NVLink; inter-node routes use src's NIC egress with
// IB wire latency. src == dst returns a fast local pipe (device-local copy).
func (f *Fabric) Route(src, dst int) *sim.Pipe {
	if src == dst {
		return f.local(src)
	}
	if f.Topo.SameNode(src, dst) {
		key := src*f.nGPU + dst
		p := f.nvlink[key]
		if p == nil {
			p = sim.NewPipe(f.K, fmt.Sprintf("nvlink-%d-%d", src, dst),
				f.Model.NVLinkLatency, f.Model.NVLinkBytesPerSec)
			f.nvlink[key] = p
		}
		return p
	}
	p := f.nicOut[src]
	if p == nil {
		p = sim.NewPipe(f.K, fmt.Sprintf("ib-nic-%d", src),
			f.Model.IBLatency, f.Model.IBBytesPerSec)
		f.nicOut[src] = p
	}
	return p
}

// local returns a device-local pipe (HBM copy) for src==dst routes; it is
// effectively instantaneous relative to inter-device paths.
func (f *Fabric) local(g int) *sim.Pipe {
	key := g*f.nGPU + g
	p := f.nvlink[key]
	if p == nil {
		p = sim.NewPipe(f.K, fmt.Sprintf("hbm-%d", g), sim.Nanoseconds(300), 3000e9)
		f.nvlink[key] = p
	}
	return p
}

// HostToDevice returns GPU g's bulk host→device C2C pipe.
func (f *Fabric) HostToDevice(g int) *sim.Pipe {
	p := f.hostDev[g]
	if p == nil {
		p = sim.NewPipe(f.K, fmt.Sprintf("c2c-h2d-%d", g),
			f.Model.C2CLatency, f.Model.C2CBytesPerSec)
		f.hostDev[g] = p
	}
	return p
}

// DeviceToHost returns GPU g's bulk device→host C2C pipe.
func (f *Fabric) DeviceToHost(g int) *sim.Pipe {
	p := f.devHost[g]
	if p == nil {
		p = sim.NewPipe(f.K, fmt.Sprintf("c2c-d2h-%d", g),
			f.Model.C2CLatency, f.Model.C2CBytesPerSec)
		f.devHost[g] = p
	}
	return p
}

// FlagWritePipe returns GPU g's serialized device→host flag-write path.
// Each store occupies the pipe for Model.HostFlagWriteGap regardless of
// payload size — this serialization is what makes thread-level MPIX_Pready
// 271× more expensive than block-level (Fig. 3).
func (f *Fabric) FlagWritePipe(g int) *sim.Pipe {
	p := f.flagPipe[g]
	if p == nil {
		p = sim.NewPipe(f.K, fmt.Sprintf("c2c-flags-%d", g),
			f.Model.HostFlagWriteLatency, 0)
		p.PerOpOverhead = f.Model.HostFlagWriteGap
		f.flagPipe[g] = p
	}
	return p
}

// ControlRoute returns the control-message (active message) pipe between the
// host CPUs owning GPUs src and dst: shared-memory loopback within a node,
// the NIC path between nodes. Loopback pipes are per directed pair — a shm
// queue between two processes is private to that pair and copied by the
// sender's core, so independent pairs do not serialize against each other
// (and, crucially for the schedule-invariance gate, simultaneous control
// messages between different pairs cannot contend for FIFO slots in
// arrival order).
func (f *Fabric) ControlRoute(src, dst int) *sim.Pipe {
	if f.Topo.SameNode(src, dst) {
		key := src*f.nGPU + dst
		p := f.loop[key]
		if p == nil {
			p = sim.NewPipe(f.K, fmt.Sprintf("shm-%d-%d", src, dst),
				f.Model.HostLoopbackLatency, f.Model.ShmBytesPerSec)
			f.loop[key] = p
		}
		return p
	}
	return f.Route(src, dst)
}

// TransferBytes computes the pure alpha-beta time for a transfer of the
// given size on the route, ignoring queueing. Useful for analytic baselines
// (e.g. the NCCL ring model) and for tests.
func (f *Fabric) TransferBytes(src, dst int, bytes int64) sim.Duration {
	p := f.Route(src, dst)
	d := p.Latency + p.PerOpOverhead
	if p.BytesPerSec > 0 {
		d += sim.Nanoseconds(float64(bytes) / p.BytesPerSec * 1e9)
	}
	return d
}
