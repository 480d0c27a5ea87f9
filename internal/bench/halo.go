package bench

import (
	"fmt"

	"mpipart/internal/cluster"
	"mpipart/internal/core"
	"mpipart/internal/gpu"
	"mpipart/internal/jacobi"
	"mpipart/internal/mpi"
	"mpipart/internal/runner"
	"mpipart/internal/sim"
)

// Halo-exchange micro-benchmark, after the partitioned benchmark suite of
// the paper's reference [16] (Temuçin et al., "Micro-Benchmarking MPI
// Partitioned Point-to-Point Communication", which includes halo-exchange
// patterns): every rank runs a compute kernel and exchanges four halos with
// its 2-D neighbours each iteration — the communication skeleton of the
// Jacobi application without the solver.

// HaloConfig describes one halo micro-benchmark point.
type HaloConfig struct {
	Topo cluster.Topology
	// Elems is the element count of each of the four halo buffers.
	Elems int
	// ComputeBlocks is the per-iteration kernel's grid size (the work the
	// partitioned variant overlaps against).
	ComputeBlocks int
	// Iters is the number of exchange iterations measured.
	Iters int
	// Model overrides the calibrated defaults (nil = DefaultModel).
	Model *cluster.Model
}

func (c HaloConfig) withDefaults() HaloConfig {
	if c.Iters == 0 {
		c.Iters = 4
	}
	if c.ComputeBlocks == 0 {
		c.ComputeBlocks = 64
	}
	return c
}

// model resolves the config's model.
func (c HaloConfig) model() cluster.Model {
	if c.Model != nil {
		return *c.Model
	}
	return cluster.DefaultModel()
}

// HaloPoint declares one halo measurement; variant is "traditional" or
// "partitioned".
func HaloPoint(id string, cfg HaloConfig, variant string) runner.Point {
	c := cfg.withDefaults()
	key := runner.KeyOf("halo", c.Topo, c.model(), c.Elems, c.ComputeBlocks, c.Iters, variant)
	switch variant {
	case "traditional":
		return elapsedPoint(id, key, func() float64 { return float64(MeasureHaloTraditional(cfg)) })
	case "partitioned":
		return elapsedPoint(id, key, func() float64 { return float64(MeasureHaloPartitioned(cfg)) })
	default:
		panic("bench: unknown halo variant " + variant)
	}
}

// haloNeighbours returns rank r's four 2-D neighbours (or -1) under the
// paper's decomposition for the world size.
func haloNeighbours(r, P int) [4]int {
	px, py := jacobi.Decompose(P)
	x, y := r%px, r/px
	at := func(dx, dy int) int {
		nx, ny := x+dx, y+dy
		if nx < 0 || nx >= px || ny < 0 || ny >= py {
			return -1
		}
		return ny*px + nx
	}
	return [4]int{at(0, -1), at(0, 1), at(-1, 0), at(1, 0)}
}

// haloSides pairs each direction with its opposite (tag matching).
var haloOpposite = [4]int{1, 0, 3, 2}

// MeasureHaloTraditional times one iteration (steady state) of the
// Listing-1 halo pattern: kernel → streamSync → Irecv/Isend per neighbour →
// wait all.
func MeasureHaloTraditional(cfg HaloConfig) sim.Duration {
	cfg = cfg.withDefaults()
	var elapsed sim.Duration
	w := mpi.NewWorld(cfg.Topo, cfg.model(), 1)
	P := w.Size()
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		nbrs := haloNeighbours(r.ID, P)
		send := make([][]float64, 4)
		recv := make([][]float64, 4)
		for s := 0; s < 4; s++ {
			send[s] = r.Dev.Alloc(cfg.Elems)
			recv[s] = r.Dev.Alloc(cfg.Elems)
		}
		for it := 0; it < cfg.Iters; it++ {
			r.Barrier(p)
			t0 := p.Now()
			r.Stream.Launch(gpu.KernelSpec{Name: "halo-compute", Grid: cfg.ComputeBlocks, Block: 1024})
			r.Stream.Synchronize(p)
			var ops []*mpi.Op
			for s := 0; s < 4; s++ {
				if nbrs[s] < 0 {
					continue
				}
				ops = append(ops, r.Irecv(p, nbrs[s], 900+it*8+haloOpposite[s], recv[s]))
			}
			for s := 0; s < 4; s++ {
				if nbrs[s] < 0 {
					continue
				}
				ops = append(ops, r.Isend(p, nbrs[s], 900+it*8+s, send[s]))
			}
			for _, op := range ops {
				op.Wait(p)
			}
			r.Barrier(p)
			if r.ID == 0 {
				elapsed = sim.Duration(p.Now() - t0)
			}
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

// MeasureHaloPartitioned times one iteration of the partitioned halo
// pattern: persistent channels per neighbour (single transport partition),
// device MPIX_Pready from the compute kernel's designated blocks, no
// stream synchronize.
func MeasureHaloPartitioned(cfg HaloConfig) sim.Duration {
	cfg = cfg.withDefaults()
	var elapsed sim.Duration
	w := mpi.NewWorld(cfg.Topo, cfg.model(), 1)
	P := w.Size()
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		nbrs := haloNeighbours(r.ID, P)
		var sends []*core.SendRequest
		var recvs []*core.RecvRequest
		var preqs []*core.Prequest
		var sideOf []int
		for s := 0; s < 4; s++ {
			if nbrs[s] < 0 {
				continue
			}
			sbuf := r.Dev.Alloc(cfg.Elems)
			rbuf := r.Dev.Alloc(cfg.Elems)
			sends = append(sends, core.PsendInitParts(p, r, nbrs[s], 950+s, [][]float64{sbuf}))
			recvs = append(recvs, core.PrecvInitParts(p, r, nbrs[s], 950+haloOpposite[s], [][]float64{rbuf}))
			preqs = append(preqs, nil)
			sideOf = append(sideOf, s)
		}
		for it := 0; it < cfg.Iters; it++ {
			for _, rr := range recvs {
				rr.Start(p)
			}
			for _, sr := range sends {
				sr.Start(p)
			}
			for _, rr := range recvs {
				rr.PbufPrepare(p)
			}
			for i, sr := range sends {
				sr.PbufPrepare(p)
				if preqs[i] == nil {
					q, err := core.PrequestCreate(p, sr, core.PrequestOpts{Mech: core.ProgressionEngine})
					if err != nil {
						panic(err)
					}
					preqs[i] = q
				}
			}
			r.Barrier(p)
			t0 := p.Now()
			r.Stream.Launch(gpu.KernelSpec{
				Name: "halo-compute+pready", Grid: cfg.ComputeBlocks, Block: 1024,
				Body: func(b *gpu.BlockCtx) {
					// The first len(sends) blocks each signal one channel
					// once their (modeled) boundary work completes.
					if b.Idx < len(preqs) {
						preqs[b.Idx].PreadyBlock(b, 0)
					}
				},
			})
			for _, sr := range sends {
				sr.Wait(p)
			}
			for _, rr := range recvs {
				rr.Wait(p)
			}
			r.Stream.WaitIdle(p)
			r.Barrier(p)
			if r.ID == 0 {
				elapsed = sim.Duration(p.Now() - t0)
			}
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

// HaloJob declares the halo-size sweep for both variants on the given
// topology.
func HaloJob(topo cluster.Topology, maxElems int) Job {
	var points []runner.Point
	var sizes []int
	for n := 256; n <= maxElems; n *= 4 {
		sizes = append(sizes, n)
		cfg := HaloConfig{Topo: topo, Elems: n}
		id := fmt.Sprintf("halo%d/n=%d", topo.Nodes, n)
		points = append(points,
			HaloPoint(id+"/traditional", cfg, "traditional"),
			HaloPoint(id+"/partitioned", cfg, "partitioned"),
		)
	}
	return Job{
		Name:   fmt.Sprintf("halo%d", topo.Nodes),
		Points: points,
		Build: func(ms []runner.Metrics) *Table {
			tb := &Table{
				Title: fmt.Sprintf("halo-exchange micro-benchmark (%d GPUs, %d nodes; after ref. [16])",
					topo.TotalGPUs(), topo.Nodes),
				Columns: []string{"halo_KiB", "traditional_us", "partitioned_us", "speedup"},
			}
			for i, n := range sizes {
				tr := ms[2*i]["elapsed_ns"]
				pa := ms[2*i+1]["elapsed_ns"]
				tb.AddRow(float64(8*n)/1024, tr/1000, pa/1000, tr/pa)
			}
			tb.Note("single transport partition per halo; device block-level Pready; no cudaStreamSynchronize in the partitioned variant")
			return tb
		},
	}
}
