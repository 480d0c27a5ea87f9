// Package mpi implements the host-side MPI runtime of the reproduction: a
// World of ranks (one per GH200 superchip), tag-matched point-to-point
// communication, the traditional (host-staged) MPI_Allreduce baseline, and
// the per-rank progression engine that the partitioned library (package
// core) and the partitioned collectives (package coll) register work with.
//
// Each rank is a simulated process: a host Proc running the SPMD rank
// function, a UCP worker, a GPU device with a default stream, and a
// progression-engine daemon. The traditional communication model the paper
// benchmarks against (Listing 1: kernel → cudaStreamSynchronize → MPI_Send)
// is expressed directly against this API.
package mpi

import (
	"fmt"

	"mpipart/internal/cluster"
	"mpipart/internal/fabric"
	"mpipart/internal/gpu"
	"mpipart/internal/sim"
	"mpipart/internal/ucx"
)

// World is the simulated MPI_COMM_WORLD: one rank per GPU of the topology.
type World struct {
	K     *sim.Kernel
	Model *cluster.Model
	Topo  cluster.Topology
	F     *fabric.Fabric
	Ctx   *ucx.Context

	ranks []*Rank

	// point-to-point matching state (global, keyed by receiver)
	sendQ map[msgKey][]*pendingOp
	recvQ map[msgKey][]*pendingOp

	// barrier state
	barGate  *sim.Gate
	barCount int
	barGen   int

	// SanState is opaque state owned by the partitioned library's runtime
	// sanitizer (core.EnableSanitizer); it lives here so core can attach a
	// per-world checker without an import cycle.
	SanState interface{}
}

// Rank is one simulated MPI process bound to one GPU.
type Rank struct {
	ID int
	W  *World

	Dev    *gpu.Device
	Stream *gpu.Stream // the default stream
	Worker *ucx.Worker
	Engine *Engine

	proc *sim.Proc

	// PartState is opaque per-rank state owned by the partitioned library
	// (package core); it lives here so core can keep lazy per-process
	// context without an import cycle.
	PartState interface{}
	// CollSeq is the partitioned-collective posting counter owned by
	// package coll (SPMD ranks derive matching channel tags from it).
	CollSeq interface{}
	// UCPInitialized records whether the lazy UCP context/worker creation
	// cost has been charged (first partitioned init call).
	UCPInitialized bool
	// MCAInitialized records whether the one-time MCA module setup cost
	// has been charged (first MPIX_Pbuf_prepare).
	MCAInitialized bool

	// arTmp is the traditional Allreduce's receive scratch at the root,
	// reused across calls (the baseline variants call it every training
	// step; a fresh buffer per call dominated allocation).
	arTmp []float64
}

// NewWorld builds the machine: fabric, devices, workers, progression
// engines. seed feeds the deterministic RNG.
func NewWorld(topo cluster.Topology, model cluster.Model, seed int64) *World {
	if err := topo.Validate(); err != nil {
		panic(err)
	}
	k := sim.NewKernel(seed)
	f := fabric.New(k, &model, topo)
	w := &World{
		K:     k,
		Model: &model,
		Topo:  topo,
		F:     f,
		Ctx:   ucx.NewContext(k, &model, f, ucx.NewRegistry()),
		sendQ: make(map[msgKey][]*pendingOp),
		recvQ: make(map[msgKey][]*pendingOp),
	}
	for g := 0; g < topo.TotalGPUs(); g++ {
		r := &Rank{ID: g, W: w}
		r.Dev = gpu.NewDevice(k, &model, f, g)
		r.Stream = r.Dev.NewStream("default")
		r.Worker = w.Ctx.NewWorker(ucx.WorkerAddr(g), g)
		r.Engine = newEngine(r)
		w.ranks = append(w.ranks, r)
	}
	return w
}

// Size returns the number of ranks.
func (w *World) Size() int { return len(w.ranks) }

// Rank returns rank id.
func (w *World) Rank(id int) *Rank { return w.ranks[id] }

// Spawn starts every rank's host process running the SPMD function main.
func (w *World) Spawn(main func(r *Rank)) {
	for _, r := range w.ranks {
		r := r
		r.proc = w.K.GoID("rank", r.ID, func(p *sim.Proc) {
			main(r)
		})
	}
}

// Run executes the simulation to completion.
func (w *World) Run() error { return w.K.Run() }

// Proc returns the rank's host process. Rank methods must be called from it.
func (r *Rank) Proc() *sim.Proc { return r.proc }

// Now returns the current virtual time.
func (r *Rank) Now() sim.Time { return r.W.K.Now() }

// Size returns the world size.
func (r *Rank) Size() int { return r.W.Size() }

// Model returns the cost model.
func (r *Rank) Model() *cluster.Model { return r.W.Model }

// Barrier synchronizes all ranks (centralized counter; the cost of real
// barrier algorithms is irrelevant to the reproduced figures — barriers are
// only used outside timed regions).
func (r *Rank) Barrier(p *sim.Proc) {
	w := r.W
	if w.barGate == nil {
		w.barGate = sim.NewGate(w.K, fmt.Sprintf("barrier-%d", w.barGen))
	}
	gate := w.barGate
	w.barCount++
	if w.barCount == w.Size() {
		w.barCount = 0
		w.barGen++
		w.barGate = nil
		gate.Open()
		return
	}
	gate.Wait(p)
}
