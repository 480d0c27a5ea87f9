package bench

import (
	"fmt"

	"mpipart/internal/cluster"
	"mpipart/internal/core"
	"mpipart/internal/gpu"
	"mpipart/internal/mpi"
	"mpipart/internal/runner"
	"mpipart/internal/sim"
)

// vecAddSpec is the benchmark kernel of Section VI: C = A + B, one 8-byte
// element per thread. Benchmarks charge its calibrated cost without
// executing arithmetic (Body nil), because only timing matters here.
func vecAddSpec(grid int) gpu.KernelSpec {
	return gpu.KernelSpec{Name: "vecadd", Grid: grid, Block: 1024}
}

// fig2Measure times cudaStreamSynchronize alone and a kernel launch +
// synchronize at one grid size on a single-GPU world.
func fig2Measure(m cluster.Model, g int) (syncCost, total sim.Duration) {
	w := mpi.NewWorld(cluster.Topology{Nodes: 1, GPUsPerNode: 1}, m, 1)
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		t0 := p.Now()
		r.Stream.Synchronize(p)
		syncCost = sim.Duration(p.Now() - t0)
		t0 = p.Now()
		r.Stream.Launch(vecAddSpec(g))
		r.Stream.Synchronize(p)
		total = sim.Duration(p.Now() - t0)
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return syncCost, total
}

// Fig2Point declares one grid size of the Figure 2 sweep.
func Fig2Point(id string, m cluster.Model, g int) runner.Point {
	return runner.Point{
		ID:  id,
		Key: runner.KeyOf("fig2", cluster.Topology{Nodes: 1, GPUsPerNode: 1}, m, g),
		Run: func() runner.Metrics {
			syncCost, total := fig2Measure(m, g)
			return runner.Metrics{"sync_ns": float64(syncCost), "total_ns": float64(total)}
		},
	}
}

// Fig2Job declares Figure 2: the cost of cudaStreamSynchronize and of a
// kernel launch + synchronize across grid sizes (block = 1024, vector add).
func Fig2Job(maxGrid int) Job {
	m := cluster.DefaultModel()
	grids := gridSweep(maxGrid)
	points := make([]runner.Point, len(grids))
	for i, g := range grids {
		points[i] = Fig2Point(fig2ID(g), m, g)
	}
	return Job{
		Name:   "fig2",
		Points: points,
		Build: func(ms []runner.Metrics) *Table {
			tb := &Table{
				Title:   "Fig. 2: cudaStreamSynchronize vs kernel launch+sync (vector add, block=1024)",
				Columns: []string{"grid", "sync_us", "launch+exec+sync_us", "sync_share_pct", "lost_cpu_us"},
			}
			for i, g := range grids {
				syncNS, totalNS := ms[i]["sync_ns"], ms[i]["total_ns"]
				tb.AddRow(g, syncNS/1000, totalNS/1000, 100*syncNS/totalNS, (totalNS-syncNS)/1000)
			}
			tb.Note("paper: sync constant 7.8±0.1us; 71.6-78.9%% of total for grids ≤256; lost cycles 2.0-933.4us")
			return tb
		},
	}
}

func fig2ID(g int) string { return "fig2/g=" + itoa(g) }

// Fig3Point declares one (signalling level, thread count) measurement of
// the Figure 3 sweep.
func Fig3Point(id string, m cluster.Model, level string, threads int) runner.Point {
	return runner.Point{
		ID:  id,
		Key: runner.KeyOf("fig3", cluster.OneNodeGH200(), m, level, threads),
		Run: func() runner.Metrics {
			return runner.Metrics{"cost_ns": float64(fig3Measure(m, level, threads))}
		},
	}
}

// fig3Levels are the three partition-to-thread mappings of Figure 3.
var fig3Levels = [3]string{"thread", "warp", "block"}

// Fig3Job declares Figure 3: the cost of mapping partitions to threads,
// warps, and blocks for an intra-node partitioned transfer — the time from
// kernel start until every MPIX_Pready notification is host-visible, for
// 1…1024 threads in one block.
func Fig3Job() Job {
	m := cluster.DefaultModel()
	var points []runner.Point
	var counts []int
	for threads := 1; threads <= 1024; threads *= 2 {
		counts = append(counts, threads)
		for _, level := range fig3Levels {
			points = append(points, Fig3Point("fig3/"+level+"/t="+itoa(threads), m, level, threads))
		}
	}
	return Job{
		Name:   "fig3",
		Points: points,
		Build: func(ms []runner.Metrics) *Table {
			tb := &Table{
				Title:   "Fig. 3: MPIX_Pready cost at thread/warp/block granularity (intra-node)",
				Columns: []string{"threads", "thread_us", "warp_us", "block_us"},
			}
			var t1024 [3]float64
			for i, threads := range counts {
				var us [3]float64
				for li := range fig3Levels {
					us[li] = ms[3*i+li]["cost_ns"] / 1000
				}
				if threads == 1024 {
					t1024 = us
				}
				tb.AddRow(threads, us[0], us[1], us[2])
			}
			tb.Note("at 1024 threads: thread/block = %.1fx (paper 271.5x), warp/block = %.1fx (paper 9.4x)",
				t1024[0]/t1024[2], t1024[1]/t1024[2])
			return tb
		},
	}
}

// fig3Measure times one signalling level: a single block of `threads`
// threads marks its partitions ready; the result is signal visibility time
// (kernel dispatch and compute subtracted).
func fig3Measure(model cluster.Model, level string, threads int) sim.Duration {
	nparts := 1
	switch level {
	case "thread":
		nparts = threads
	case "warp":
		nparts = (threads + 31) / 32
	}
	var cost sim.Duration
	w := mpi.NewWorld(cluster.OneNodeGH200(), model, 1)
	m := w.Model
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(threads) // 8 B per thread
		switch r.ID {
		case 0:
			sreq := core.PsendInit(p, r, 1, 30, buf, nparts)
			sreq.Start(p)
			sreq.PbufPrepare(p)
			preq, err := core.PrequestCreate(p, sreq, core.PrequestOpts{Mech: core.ProgressionEngine})
			if err != nil {
				panic(err)
			}
			body := func(b *gpu.BlockCtx) {
				switch level {
				case "thread":
					preq.PreadyThread(b, func(gtid int) int { return gtid })
				case "warp":
					preq.PreadyWarp(b, func(warp int) int { return warp })
				default:
					preq.PreadyBlock(b, 0)
				}
			}
			t0 := p.Now()
			r.Stream.Launch(gpu.KernelSpec{Name: "pready-" + level, Grid: 1, Block: threads, Body: body})
			preq.Pending().Cond().WaitFor(p, func() bool {
				return preq.Pending().CountNonZero() >= nparts
			})
			visible := sim.Duration(p.Now() - t0)
			cost = visible - m.KernelLaunchCost - m.VecAddWaveTime
			sreq.Wait(p)
		case 1:
			rreq := core.PrecvInit(p, r, 0, 30, buf, nparts)
			rreq.Start(p)
			rreq.PbufPrepare(p)
			rreq.Wait(p)
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return cost
}

// P2PConfig selects one point of the Fig. 4 / Fig. 5 sweeps.
type P2PConfig struct {
	Topo     cluster.Topology
	Receiver int // destination rank (1 = intra-node, 4 = inter-node)
	Grid     int
	// Parts / threshold: transport partition count and blocks aggregated
	// per partition.
	Parts int
	// Model overrides the calibrated defaults (nil = DefaultModel);
	// cmd/sweep uses it for sensitivity ablations.
	Model *cluster.Model
}

// model resolves the config's model.
func (c P2PConfig) model() cluster.Model {
	if c.Model != nil {
		return *c.Model
	}
	return cluster.DefaultModel()
}

// bytesOf returns the message size of a grid (1024 threads × 8 B).
func bytesOf(grid int) int64 { return int64(grid) * 1024 * 8 }

// TraditionalPoint declares a MeasureTraditional run. Parts is excluded
// from the key (the traditional path has no partitions), so traditional
// points that differ only in Parts share one computation.
func TraditionalPoint(id string, cfg P2PConfig) runner.Point {
	key := runner.KeyOf("p2p/traditional", cfg.Topo, cfg.model(), cfg.Receiver, cfg.Grid)
	return elapsedPoint(id, key, func() float64 { return float64(MeasureTraditional(cfg)) })
}

// PartitionedPoint declares a MeasurePartitioned run for one mechanism.
func PartitionedPoint(id string, cfg P2PConfig, mech core.Mechanism) runner.Point {
	key := runner.KeyOf("p2p/partitioned", cfg.Topo, cfg.model(), cfg.Receiver, cfg.Grid, cfg.Parts, int(mech))
	return elapsedPoint(id, key, func() float64 { return float64(MeasurePartitioned(cfg, mech)) })
}

// MeasureTraditional times the Listing-1 model on a timing-only world; see
// traditionalOn.
func MeasureTraditional(cfg P2PConfig) sim.Duration {
	w := measureWorld(cfg.Topo, cfg.model(), true)
	return traditionalOn(w, cfg)
}

// traditionalOn times the Listing-1 model on w: kernel, stream sync,
// MPI_Send (receiver pre-posts). Returns the sender-side elapsed time of
// the steady-state (third) iteration.
func traditionalOn(w *mpi.World, cfg P2PConfig) sim.Duration {
	var elapsed sim.Duration
	n := cfg.Grid * 1024
	const iters = 3
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(n)
		switch r.ID {
		case 0:
			for it := 0; it < iters; it++ {
				r.Barrier(p)
				t0 := p.Now()
				r.Stream.Launch(vecAddSpec(cfg.Grid))
				r.Stream.Synchronize(p)
				r.Send(p, cfg.Receiver, 40+it, buf)
				elapsed = sim.Duration(p.Now() - t0)
			}
		case cfg.Receiver:
			for it := 0; it < iters; it++ {
				op := r.Irecv(p, 0, 40+it, buf)
				r.Barrier(p)
				op.Wait(p)
			}
		default:
			for it := 0; it < iters; it++ {
				r.Barrier(p)
			}
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

// partitions returns the transport partition count of a partitioned run
// (Parts, at least 1 and at most Grid) and the blocks aggregated into each.
// Every partition must aggregate the same number of blocks, so a grid that
// is not a multiple of the partition count is an error.
func (c P2PConfig) partitions() (parts, blocksPer int, err error) {
	if c.Grid < 1 {
		return 0, 0, fmt.Errorf("bench: grid %d is not positive", c.Grid)
	}
	parts = min(max(c.Parts, 1), c.Grid)
	if c.Grid%parts != 0 {
		return 0, 0, fmt.Errorf("bench: grid %d is not a multiple of the partition count %d", c.Grid, parts)
	}
	return parts, c.Grid / parts, nil
}

// Validate reports whether MeasurePartitioned can run the config: the grid
// must be positive and split evenly across the transport partitions.
func (c P2PConfig) Validate() error {
	_, _, err := c.partitions()
	return err
}

// MeasurePartitioned times the GPU-initiated model for either mechanism on
// a timing-only world; see partitionedOn.
func MeasurePartitioned(cfg P2PConfig, mech core.Mechanism) sim.Duration {
	w := measureWorld(cfg.Topo, cfg.model(), true)
	return partitionedOn(w, cfg, mech)
}

// partitionedOn times the GPU-initiated model on w: the steady-state
// epoch's kernel launch → MPI_Wait span (Start and Pbuf_prepare run
// outside the timed region, as in Section VI-A; their costs are Table I's
// subject). It panics with Validate's error on a config whose grid does
// not split evenly into partitions.
func partitionedOn(w *mpi.World, cfg P2PConfig, mech core.Mechanism) sim.Duration {
	parts, blocksPer, err := cfg.partitions()
	if err != nil {
		panic(err)
	}
	var elapsed sim.Duration
	n := cfg.Grid * 1024
	const iters = 3
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(n)
		switch r.ID {
		case 0:
			sreq := core.PsendInit(p, r, cfg.Receiver, 41, buf, parts)
			var preq *core.Prequest
			for it := 0; it < iters; it++ {
				sreq.Start(p)
				sreq.PbufPrepare(p)
				if preq == nil {
					var err error
					preq, err = core.PrequestCreate(p, sreq, core.PrequestOpts{
						Mech: mech, BlocksPerTransport: blocksPer,
					})
					if err != nil {
						panic(err)
					}
				}
				r.Barrier(p)
				t0 := p.Now()
				r.Stream.Launch(gpu.KernelSpec{
					Name: "vecadd+pready", Grid: cfg.Grid, Block: 1024,
					Body: func(b *gpu.BlockCtx) {
						part := b.Idx / blocksPer
						if mech == core.KernelCopy {
							lo := (b.Idx - part*blocksPer) * 1024
							preq.KernelCopyRange(b, part, lo, lo+1024)
						} else {
							preq.PreadyBlockAggregated(b, part)
						}
					},
				})
				sreq.Wait(p)
				elapsed = sim.Duration(p.Now() - t0)
				r.Stream.WaitIdle(p)
			}
		case cfg.Receiver:
			rreq := core.PrecvInit(p, r, 0, 41, buf, parts)
			for it := 0; it < iters; it++ {
				rreq.Start(p)
				rreq.PbufPrepare(p)
				r.Barrier(p)
				rreq.Wait(p)
			}
		default:
			for it := 0; it < iters; it++ {
				r.Barrier(p)
			}
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

// goodputNS returns GB/s for a grid's message over an elapsed virtual time
// in nanoseconds (the arithmetic of the original sim.Duration formulation,
// applied to the metric value, which is the same float64).
func goodputNS(grid int, ns float64) float64 {
	return float64(bytesOf(grid)) / (ns / 1e9) / 1e9
}

// goodput returns GB/s for a grid's message over an elapsed time.
func goodput(grid int, d sim.Duration) float64 { return goodputNS(grid, float64(d)) }

// Fig4Job declares Figure 4: intra-node goodput of Kernel Copy vs
// Progression Engine vs MPI_Send/Recv across grid sizes. Per Section VI-A,
// both partitioned variants aggregate to a single transport partition.
func Fig4Job(maxGrid int) Job {
	grids := gridSweep(maxGrid)
	var points []runner.Point
	for _, g := range grids {
		cfg := P2PConfig{Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: g, Parts: 1}
		id := "fig4/g=" + itoa(g)
		points = append(points,
			TraditionalPoint(id+"/sendrecv", cfg),
			PartitionedPoint(id+"/prog_engine", cfg, core.ProgressionEngine),
			PartitionedPoint(id+"/kernel_copy", cfg, core.KernelCopy),
		)
	}
	return Job{
		Name:   "fig4",
		Points: points,
		Build: func(ms []runner.Metrics) *Table {
			tb := &Table{
				Title: "Fig. 4: intra-node goodput, two GH200 on one node (GB/s)",
				Columns: []string{"grid", "KiB", "sendrecv_GBps", "prog_engine_GBps", "kernel_copy_GBps",
					"pe_speedup", "kc_speedup"},
			}
			for i, g := range grids {
				tr := ms[3*i]["elapsed_ns"]
				pe := ms[3*i+1]["elapsed_ns"]
				kc := ms[3*i+2]["elapsed_ns"]
				tb.AddRow(g, float64(bytesOf(g))/1024, goodputNS(g, tr), goodputNS(g, pe), goodputNS(g, kc),
					tr/pe, tr/kc)
			}
			tb.Note("NVLink uni-directional bound: 150 GB/s")
			tb.Note("paper: KC wins everywhere (≤2.34x small, 1.06x at 32K grids); PE ≤1.28x small, ~1.0x ≥2K grids")
			return tb
		},
	}
}

// fig5Parts returns the transport partition count Fig. 5 uses at a grid
// size: two for large kernels, one below that (Section VI-A).
func fig5Parts(g int) int {
	if g < 2 {
		return 1
	}
	return 2
}

// Fig5Job declares Figure 5: inter-node goodput of the Progression Engine
// partitioned model vs MPI_Send/Recv.
func Fig5Job(maxGrid int) Job {
	grids := gridSweep(maxGrid)
	var points []runner.Point
	for _, g := range grids {
		cfg := P2PConfig{Topo: cluster.TwoNodeGH200(), Receiver: 4, Grid: g, Parts: fig5Parts(g)}
		id := "fig5/g=" + itoa(g)
		points = append(points,
			TraditionalPoint(id+"/sendrecv", cfg),
			PartitionedPoint(id+"/prog_engine", cfg, core.ProgressionEngine),
		)
	}
	return Job{
		Name:   "fig5",
		Points: points,
		Build: func(ms []runner.Metrics) *Table {
			tb := &Table{
				Title:   "Fig. 5: inter-node goodput, two GH200 on two nodes (GB/s)",
				Columns: []string{"grid", "KiB", "sendrecv_GBps", "prog_engine_GBps", "pe_speedup"},
			}
			for i, g := range grids {
				tr := ms[2*i]["elapsed_ns"]
				pe := ms[2*i+1]["elapsed_ns"]
				tb.AddRow(g, float64(bytesOf(g))/1024, goodputNS(g, tr), goodputNS(g, pe), tr/pe)
			}
			tb.Note("paper: 2.80x at one grid, declining to 1.17x at the largest grid")
			return tb
		},
	}
}
