// Package gpu simulates a Hopper-class GPU closely enough to reproduce the
// behaviours the paper depends on:
//
//   - Kernels are real Go functions executed block-by-block under the
//     virtual clock, so computed data is real (numerical results are
//     testable) while time is charged by an SM/wave occupancy model.
//   - Streams are FIFO queues serviced by a daemon process;
//     StreamSynchronize charges the paper's measured 7.8 µs.
//   - Device code can store to pinned host memory; those stores serialize
//     on a per-device C2C flag-write pipe, which is the mechanism behind
//     the thread/warp/block MPIX_Pready aggregation results (Fig. 3).
//   - Device global memory counters with atomics support multi-block
//     partition aggregation, and device-side remote stores over NVLink
//     support the Kernel Copy path.
package gpu

import (
	"fmt"
	"sync"

	"mpipart/internal/cluster"
	"mpipart/internal/fabric"
	"mpipart/internal/sim"
)

// lengthOnly is the shared backing of every timing-only buffer: one
// zeroed array, grown to the largest length requested and never written.
// Timing-only worlds (sim.Kernel.SetTimingOnly) skip every payload write,
// so concurrently simulated worlds can alias it freely; under -race any
// write that escapes the gating shows up as a data race on it.
var lengthOnly struct {
	sync.Mutex
	buf []float64
}

// LengthOnly returns a length-n buffer aliasing the shared zero backing.
// It carries only its length — what the cost models read — and must never
// be written.
func LengthOnly(n int) []float64 {
	lengthOnly.Lock()
	defer lengthOnly.Unlock()
	if len(lengthOnly.buf) < n {
		lengthOnly.buf = make([]float64, n)
	}
	return lengthOnly.buf[:n:n]
}

// Device is one simulated Hopper GPU (the accelerator half of a GH200
// superchip).
type Device struct {
	// ID is the global GPU id; Node is the node hosting it.
	ID   int
	Node int

	K *sim.Kernel
	M *cluster.Model
	F *fabric.Fabric

	streams []*Stream

	// smBusyUntil serializes kernel waves across all of the device's
	// streams: the workloads here launch full-occupancy kernels, so two
	// concurrent kernels time-share the SMs wave by wave rather than
	// overlapping for free (e.g. the partitioned collective's internal
	// reduction stream contends with the application stream).
	smBusyUntil sim.Time
}

// ClaimWave reserves the SMs for one wave of the given duration and
// returns the time at which that wave completes.
func (d *Device) ClaimWave(wave sim.Duration) sim.Time {
	start := d.K.Now()
	if d.smBusyUntil > start {
		start = d.smBusyUntil
	}
	d.smBusyUntil = start.Add(wave)
	return d.smBusyUntil
}

// NewDevice creates GPU id on the fabric's topology.
func NewDevice(k *sim.Kernel, m *cluster.Model, f *fabric.Fabric, id int) *Device {
	return &Device{ID: id, Node: f.Topo.NodeOf(id), K: k, M: m, F: f}
}

// Alloc allocates device global memory of n float64 elements, zeroed like
// cudaMalloc followed by cudaMemset. Allocation time is not modeled
// (cudaMalloc happens at setup, outside every timed region in the paper).
// A timing-only world gets a LengthOnly buffer instead.
func (d *Device) Alloc(n int) []float64 {
	if d.K.TimingOnly() {
		return LengthOnly(n)
	}
	return make([]float64, n)
}

// MemcpyH2D performs a blocking host→device copy of the given byte size,
// charging the C2C bulk path plus the fixed driver overhead.
func (d *Device) MemcpyH2D(p *sim.Proc, bytes int64) {
	done := d.F.HostToDevice(d.ID).Transfer(bytes)
	p.WaitUntil(done)
	p.Wait(d.M.H2DCopyBase)
}

// MemcpyD2H performs a blocking device→host copy of the given byte size.
func (d *Device) MemcpyD2H(p *sim.Proc, bytes int64) {
	done := d.F.DeviceToHost(d.ID).Transfer(bytes)
	p.WaitUntil(done)
	p.Wait(d.M.H2DCopyBase)
}

// Streams returns the streams created on this device.
func (d *Device) Streams() []*Stream { return d.streams }

// String implements fmt.Stringer.
func (d *Device) String() string { return fmt.Sprintf("gpu%d(node%d)", d.ID, d.Node) }

// Flags is a flag array with virtual-time change notification. It models
// both pinned host memory flags (visible to host pollers the moment a
// device store is delivered over C2C) and device-global flag arrays.
type Flags struct {
	name string
	vals []int64
	cond *sim.Cond
}

// NewFlags allocates n zeroed flags.
func NewFlags(k *sim.Kernel, name string, n int) *Flags {
	return &Flags{name: name, vals: make([]int64, n), cond: sim.NewCond(k, "flags:"+name)}
}

// NewFlagsShared allocates n zeroed flags whose change notifications are
// delivered through an existing condition variable. The partitioned library
// uses this to route device flag writes to the owning rank's progression
// engine (which parks on its UCP worker's condition).
func NewFlagsShared(name string, n int, cond *sim.Cond) *Flags {
	return &Flags{name: name, vals: make([]int64, n), cond: cond}
}

// Len returns the number of flags.
func (f *Flags) Len() int { return len(f.vals) }

// Get returns flag i.
func (f *Flags) Get(i int) int64 { return f.vals[i] }

// Set stores v into flag i and wakes waiters.
func (f *Flags) Set(i int, v int64) {
	f.vals[i] = v
	f.cond.Broadcast()
}

// Add increments flag i by delta and wakes waiters; it returns the new value.
func (f *Flags) Add(i int, delta int64) int64 {
	f.vals[i] += delta
	f.cond.Broadcast()
	return f.vals[i]
}

// Reset zeroes every flag (start of a new communication epoch).
func (f *Flags) Reset() {
	for i := range f.vals {
		f.vals[i] = 0
	}
	f.cond.Broadcast()
}

// CountNonZero returns how many flags are set.
func (f *Flags) CountNonZero() int {
	n := 0
	for _, v := range f.vals {
		if v != 0 {
			n++
		}
	}
	return n
}

// Cond exposes the change-notification condition for pollers.
func (f *Flags) Cond() *sim.Cond { return f.cond }

// WaitNonZero parks p until flag i becomes non-zero.
func (f *Flags) WaitNonZero(p *sim.Proc, i int) {
	f.cond.WaitFor(p, func() bool { return f.vals[i] != 0 })
}

// WaitCountNonZero parks p until at least want flags are set.
func (f *Flags) WaitCountNonZero(p *sim.Proc, want int) {
	f.cond.WaitFor(p, func() bool { return f.CountNonZero() >= want })
}
