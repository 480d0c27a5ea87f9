// Benchmarks regenerating every table and figure of the paper's evaluation
// (Section VI), one testing.B per experiment. Each iteration runs a full
// deterministic simulation at a representative configuration of the
// corresponding sweep; the virtual-time results the paper reports are
// published through b.ReportMetric (suffix "-virt" = virtual microseconds /
// virtual GB/s — the simulated GH200 numbers, independent of host speed).
//
// Full sweeps (every point of every figure) are produced by cmd/figures.
package mpipart_test

import (
	"fmt"
	"testing"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/core"
	"mpipart/internal/dl"
	"mpipart/internal/gpu"
	"mpipart/internal/jacobi"
	"mpipart/internal/mpi"
	"mpipart/internal/nccl"
	"mpipart/internal/runner"
	"mpipart/internal/sim"
)

// BenchmarkFig2StreamSyncCost measures the Figure 2 point the paper calls
// out: a one-wave kernel where cudaStreamSynchronize is ~72-79% of total.
func BenchmarkFig2StreamSyncCost(b *testing.B) {
	var syncCost, total sim.Duration
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(cluster.Topology{Nodes: 1, GPUsPerNode: 1}, cluster.DefaultModel(), 1)
		w.Spawn(func(r *mpi.Rank) {
			p := r.Proc()
			t0 := p.Now()
			r.Stream.Synchronize(p)
			syncCost = sim.Duration(p.Now() - t0)
			t0 = p.Now()
			r.Stream.Launch(benchVecAdd(256))
			r.Stream.Synchronize(p)
			total = sim.Duration(p.Now() - t0)
		})
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(syncCost.Micros(), "us-sync-virt")
	b.ReportMetric(100*float64(syncCost)/float64(total), "%sync-share-virt")
}

// BenchmarkFig2LargeKernel measures the 128K-grid point: lost CPU cycles
// approaching the paper's 933.4 µs.
func BenchmarkFig2LargeKernel(b *testing.B) {
	var total, syncCost sim.Duration
	for i := 0; i < b.N; i++ {
		w := mpi.NewWorld(cluster.Topology{Nodes: 1, GPUsPerNode: 1}, cluster.DefaultModel(), 1)
		w.Spawn(func(r *mpi.Rank) {
			p := r.Proc()
			t0 := p.Now()
			r.Stream.Synchronize(p)
			syncCost = sim.Duration(p.Now() - t0)
			t0 = p.Now()
			r.Stream.Launch(benchVecAdd(131072))
			r.Stream.Synchronize(p)
			total = sim.Duration(p.Now() - t0)
		})
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric((total - syncCost).Micros(), "us-lost-cpu-virt")
}

// BenchmarkFig3Aggregation measures the 1024-thread thread/warp/block
// MPIX_Pready costs (paper: 271.5x and 9.4x over block level).
func BenchmarkFig3Aggregation(b *testing.B) {
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = bench.RunJob(runner.New(1), bench.Fig3Job())
	}
	last := len(tb.Rows) - 1
	thread := atof(tb.Cell(last, "thread_us"))
	warp := atof(tb.Cell(last, "warp_us"))
	block := atof(tb.Cell(last, "block_us"))
	b.ReportMetric(thread/block, "x-thread/block-virt")
	b.ReportMetric(warp/block, "x-warp/block-virt")
}

// BenchmarkFig4IntraNode measures intra-node goodput at a small grid where
// the Kernel Copy advantage peaks (paper: up to 2.34x).
func BenchmarkFig4IntraNode(b *testing.B) {
	cfg := bench.P2PConfig{Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: 8, Parts: 1}
	var tr, pe, kc sim.Duration
	for i := 0; i < b.N; i++ {
		tr = bench.MeasureTraditional(cfg)
		pe = bench.MeasurePartitioned(cfg, core.ProgressionEngine)
		kc = bench.MeasurePartitioned(cfg, core.KernelCopy)
	}
	b.ReportMetric(float64(tr)/float64(kc), "x-kernelcopy-virt")
	b.ReportMetric(float64(tr)/float64(pe), "x-progengine-virt")
}

// BenchmarkFig4IntraNodeLarge measures the large-grid end where speedups
// approach 1.0x.
func BenchmarkFig4IntraNodeLarge(b *testing.B) {
	cfg := bench.P2PConfig{Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: 2048, Parts: 1}
	var tr, kc sim.Duration
	for i := 0; i < b.N; i++ {
		tr = bench.MeasureTraditional(cfg)
		kc = bench.MeasurePartitioned(cfg, core.KernelCopy)
	}
	b.ReportMetric(float64(tr)/float64(kc), "x-kernelcopy-virt")
	b.ReportMetric(float64(int64(cfg.Grid)*8192)/kc.Seconds()/1e9, "GBps-kernelcopy-virt")
}

// BenchmarkFig5InterNode measures the one-grid inter-node point (paper:
// 2.80x) and a large grid (paper: declining toward 1.17x).
func BenchmarkFig5InterNode(b *testing.B) {
	small := bench.P2PConfig{Topo: cluster.TwoNodeGH200(), Receiver: 4, Grid: 1, Parts: 1}
	large := bench.P2PConfig{Topo: cluster.TwoNodeGH200(), Receiver: 4, Grid: 2048, Parts: 2}
	var s, l float64
	for i := 0; i < b.N; i++ {
		s = float64(bench.MeasureTraditional(small)) / float64(bench.MeasurePartitioned(small, core.ProgressionEngine))
		l = float64(bench.MeasureTraditional(large)) / float64(bench.MeasurePartitioned(large, core.ProgressionEngine))
	}
	b.ReportMetric(s, "x-smallest-virt")
	b.ReportMetric(l, "x-largest-virt")
}

// BenchmarkFig6AllreduceOneNode measures the three allreduce variants at
// 1K grids on four GH200s (paper: partitioned orders of magnitude below
// MPI; NCCL ~226 µs ahead of partitioned).
func BenchmarkFig6AllreduceOneNode(b *testing.B) {
	cfg := bench.AllreduceConfig{Topo: cluster.OneNodeGH200(), Grid: 1024, UserParts: 4}
	var tr, pa, nc sim.Duration
	for i := 0; i < b.N; i++ {
		tr = bench.MeasureMPIAllreduce(cfg)
		pa = bench.MeasurePartitionedAllreduce(cfg)
		nc = bench.MeasureNCCLAllreduce(cfg)
	}
	b.ReportMetric(tr.Micros(), "us-mpi-virt")
	b.ReportMetric(pa.Micros(), "us-partitioned-virt")
	b.ReportMetric(nc.Micros(), "us-nccl-virt")
	b.ReportMetric((pa - nc).Micros(), "us-gap-to-nccl-virt")
}

// BenchmarkFig7AllreduceTwoNodes is the eight-GPU, two-node variant.
func BenchmarkFig7AllreduceTwoNodes(b *testing.B) {
	cfg := bench.AllreduceConfig{Topo: cluster.TwoNodeGH200(), Grid: 1024, UserParts: 4}
	var tr, pa, nc sim.Duration
	for i := 0; i < b.N; i++ {
		tr = bench.MeasureMPIAllreduce(cfg)
		pa = bench.MeasurePartitionedAllreduce(cfg)
		nc = bench.MeasureNCCLAllreduce(cfg)
	}
	b.ReportMetric(tr.Micros(), "us-mpi-virt")
	b.ReportMetric(pa.Micros(), "us-partitioned-virt")
	b.ReportMetric(nc.Micros(), "us-nccl-virt")
}

// BenchmarkTableIOverheads regenerates Table I.
func BenchmarkTableIOverheads(b *testing.B) {
	var tb *bench.Table
	for i := 0; i < b.N; i++ {
		tb = bench.RunJob(runner.New(1), bench.TableIJob())
	}
	b.ReportMetric(atof(tb.Cell(0, "measured_us")), "us-psend-init-virt")
	b.ReportMetric(atof(tb.Cell(1, "measured_us")), "us-pallreduce-init-virt")
	b.ReportMetric(atof(tb.Cell(2, "measured_us")), "us-prequest-create-virt")
	b.ReportMetric(atof(tb.Cell(3, "measured_us")), "us-pbuf-prepare-first-virt")
	b.ReportMetric(atof(tb.Cell(4, "measured_us")), "us-pbuf-prepare-avg-virt")
}

// BenchmarkFig8JacobiOneNode measures Jacobi GFLOP/s on four GH200s.
func BenchmarkFig8JacobiOneNode(b *testing.B) {
	cfg := jacobi.Config{PX: 2, PY: 2, NX: 256, NY: 256, Iters: bench.JacobiIters}
	var tr, pa jacobi.Stats
	for i := 0; i < b.N; i++ {
		tr = bench.MeasureJacobi(cluster.OneNodeGH200(), cfg, jacobi.Traditional)
		pa = bench.MeasureJacobi(cluster.OneNodeGH200(), cfg, jacobi.Partitioned)
	}
	b.ReportMetric(tr.GFLOPs, "GFLOPs-trad-virt")
	b.ReportMetric(pa.GFLOPs, "GFLOPs-part-virt")
	b.ReportMetric(pa.GFLOPs/tr.GFLOPs, "x-speedup-virt")
}

// BenchmarkFig9JacobiTwoNodes measures Jacobi GFLOP/s on eight GH200s
// (paper: up to 1.30x speedup, larger than on one node).
func BenchmarkFig9JacobiTwoNodes(b *testing.B) {
	cfg := jacobi.Config{PX: 4, PY: 2, NX: 256, NY: 256, Iters: bench.JacobiIters}
	var tr, pa jacobi.Stats
	for i := 0; i < b.N; i++ {
		tr = bench.MeasureJacobi(cluster.TwoNodeGH200(), cfg, jacobi.Traditional)
		pa = bench.MeasureJacobi(cluster.TwoNodeGH200(), cfg, jacobi.Partitioned)
	}
	b.ReportMetric(tr.GFLOPs, "GFLOPs-trad-virt")
	b.ReportMetric(pa.GFLOPs, "GFLOPs-part-virt")
	b.ReportMetric(pa.GFLOPs/tr.GFLOPs, "x-speedup-virt")
}

// BenchmarkFig10DLOneNode measures the deep-learning kernel on four GH200s.
func BenchmarkFig10DLOneNode(b *testing.B) {
	cfg := dl.Config{Params: 512 * 1024, Steps: bench.DLSteps, UserParts: 4}
	var tr, pa, nc dl.Stats
	for i := 0; i < b.N; i++ {
		tr = bench.MeasureDL(cluster.OneNodeGH200(), cfg, func(r *mpi.Rank, _ *nccl.Comm, c dl.Config) dl.Stats {
			return dl.MPIAllreduce(r, c)
		})
		pa = bench.MeasureDL(cluster.OneNodeGH200(), cfg, func(r *mpi.Rank, _ *nccl.Comm, c dl.Config) dl.Stats {
			return dl.PartitionedAllreduce(r, c)
		})
		nc = bench.MeasureDL(cluster.OneNodeGH200(), cfg, dl.NCCLAllreduce)
	}
	b.ReportMetric(tr.StepTime.Micros(), "us-mpi-step-virt")
	b.ReportMetric(pa.StepTime.Micros(), "us-partitioned-step-virt")
	b.ReportMetric(nc.StepTime.Micros(), "us-nccl-step-virt")
}

// BenchmarkFig11DLTwoNodes is the eight-GPU, two-node variant.
func BenchmarkFig11DLTwoNodes(b *testing.B) {
	cfg := dl.Config{Params: 512 * 1024, Steps: bench.DLSteps, UserParts: 4}
	var tr, pa, nc dl.Stats
	for i := 0; i < b.N; i++ {
		tr = bench.MeasureDL(cluster.TwoNodeGH200(), cfg, func(r *mpi.Rank, _ *nccl.Comm, c dl.Config) dl.Stats {
			return dl.MPIAllreduce(r, c)
		})
		pa = bench.MeasureDL(cluster.TwoNodeGH200(), cfg, func(r *mpi.Rank, _ *nccl.Comm, c dl.Config) dl.Stats {
			return dl.PartitionedAllreduce(r, c)
		})
		nc = bench.MeasureDL(cluster.TwoNodeGH200(), cfg, dl.NCCLAllreduce)
	}
	b.ReportMetric(tr.StepTime.Micros(), "us-mpi-step-virt")
	b.ReportMetric(pa.StepTime.Micros(), "us-partitioned-step-virt")
	b.ReportMetric(nc.StepTime.Micros(), "us-nccl-step-virt")
}

// BenchmarkAblationTransportPartitions sweeps the transport partition count
// for a fixed inter-node message — the aggregation design choice of
// Section VI-A2 (the paper found 2 transport partitions best for large
// inter-node kernels).
func BenchmarkAblationTransportPartitions(b *testing.B) {
	grid := 1024
	var best int
	var bestT sim.Duration
	for i := 0; i < b.N; i++ {
		best, bestT = 0, 1<<62
		for _, parts := range []int{1, 2, 4, 8} {
			cfg := bench.P2PConfig{Topo: cluster.TwoNodeGH200(), Receiver: 4, Grid: grid, Parts: parts}
			t := bench.MeasurePartitioned(cfg, core.ProgressionEngine)
			if t < bestT {
				best, bestT = parts, t
			}
		}
	}
	b.ReportMetric(float64(best), "best-parts-virt")
	b.ReportMetric(bestT.Micros(), "us-best-virt")
}

// BenchmarkAblationHostVsDeviceInitiation compares host-called MPI_Pready
// with device-initiated signalling for the same transfer (the value of the
// GPU-initiated extension itself).
func BenchmarkAblationHostVsDeviceInitiation(b *testing.B) {
	const grid = 64
	var host, dev sim.Duration
	for i := 0; i < b.N; i++ {
		host = measureHostPready(grid)
		dev = bench.MeasurePartitioned(bench.P2PConfig{
			Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: grid, Parts: 1,
		}, core.ProgressionEngine)
	}
	b.ReportMetric(host.Micros(), "us-host-initiated-virt")
	b.ReportMetric(dev.Micros(), "us-device-initiated-virt")
}

// measureHostPready runs the same transfer but with the host calling
// MPI_Pready after a stream synchronize (no device bindings).
func measureHostPready(grid int) sim.Duration {
	var elapsed sim.Duration
	w := mpi.NewWorld(cluster.OneNodeGH200(), cluster.DefaultModel(), 1)
	n := grid * 1024
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(n)
		switch r.ID {
		case 0:
			sreq := core.PsendInit(p, r, 1, 50, buf, 1)
			sreq.Start(p)
			sreq.PbufPrepare(p)
			r.Barrier(p)
			t0 := p.Now()
			r.Stream.Launch(benchVecAdd(grid))
			r.Stream.Synchronize(p)
			sreq.Pready(p, 0)
			sreq.Wait(p)
			elapsed = sim.Duration(p.Now() - t0)
		case 1:
			rreq := core.PrecvInit(p, r, 0, 50, buf, 1)
			rreq.Start(p)
			rreq.PbufPrepare(p)
			r.Barrier(p)
			rreq.Wait(p)
		default:
			r.Barrier(p)
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

// benchVecAdd is the Section VI workload kernel (cost-model only).
func benchVecAdd(grid int) gpu.KernelSpec {
	return gpu.KernelSpec{Name: "vecadd", Grid: grid, Block: 1024}
}

func atof(s string) float64 {
	var f float64
	if _, err := fmt.Sscan(s, &f); err != nil {
		panic(err)
	}
	return f
}

// BenchmarkAblationAutoAggregation compares the model-chosen transport
// partition count against the fixed single-partition default (the dynamic
// aggregation extension, after the paper's reference [10]).
func BenchmarkAblationAutoAggregation(b *testing.B) {
	const grid = 2048
	m := cluster.DefaultModel()
	var fixed, auto sim.Duration
	var parts int
	for i := 0; i < b.N; i++ {
		_, parts = core.AutoPrequestOpts(&m, grid, 1024, int64(grid)*8192, false)
		fixed = bench.MeasurePartitioned(bench.P2PConfig{
			Topo: cluster.TwoNodeGH200(), Receiver: 4, Grid: grid, Parts: 1,
		}, core.ProgressionEngine)
		auto = bench.MeasurePartitioned(bench.P2PConfig{
			Topo: cluster.TwoNodeGH200(), Receiver: 4, Grid: grid, Parts: parts,
		}, core.ProgressionEngine)
	}
	b.ReportMetric(float64(parts), "chosen-parts-virt")
	b.ReportMetric(fixed.Micros(), "us-fixed-1-virt")
	b.ReportMetric(auto.Micros(), "us-auto-virt")
	b.ReportMetric(float64(fixed)/float64(auto), "x-auto-vs-fixed-virt")
}

// BenchmarkOSULatency reports the simulated fabric's pingpong latencies.
func BenchmarkOSULatency(b *testing.B) {
	var intra, inter sim.Duration
	for i := 0; i < b.N; i++ {
		intra = bench.Pingpong(cluster.OneNodeGH200(), 1, 1, 10)
		inter = bench.Pingpong(cluster.TwoNodeGH200(), 4, 1, 10)
	}
	b.ReportMetric(intra.Micros(), "us-intra-virt")
	b.ReportMetric(inter.Micros(), "us-inter-virt")
}

// BenchmarkAblationRMAVsPersistent compares the UCX/RMA partitioned
// implementation against the persistent-P2P-backed one (the related-work
// comparison of Dosanjh et al.), inter-node with eager-sized partitions.
func BenchmarkAblationRMAVsPersistent(b *testing.B) {
	const grid, nparts = 8, 8
	n := grid * 1024
	measure := func(persistent bool) sim.Duration {
		var elapsed sim.Duration
		w := mpi.NewWorld(cluster.TwoNodeGH200(), cluster.DefaultModel(), 1)
		w.Spawn(func(r *mpi.Rank) {
			p := r.Proc()
			buf := r.Dev.Alloc(n)
			switch r.ID {
			case 0:
				if persistent {
					sreq := core.PsendInitPersistent(p, r, 4, 5, buf, nparts)
					for e := 0; e < 2; e++ {
						if e == 1 {
							r.Barrier(p)
						}
						t0 := p.Now()
						sreq.Start(p)
						for i := 0; i < nparts; i++ {
							sreq.Pready(p, i)
						}
						sreq.Wait(p)
						elapsed = sim.Duration(p.Now() - t0)
					}
				} else {
					sreq := core.PsendInit(p, r, 4, 5, buf, nparts)
					for e := 0; e < 2; e++ {
						if e == 1 {
							r.Barrier(p)
						}
						t0 := p.Now()
						sreq.Start(p)
						sreq.PbufPrepare(p)
						for i := 0; i < nparts; i++ {
							sreq.Pready(p, i)
						}
						sreq.Wait(p)
						elapsed = sim.Duration(p.Now() - t0)
					}
				}
			case 4:
				if persistent {
					rreq := core.PrecvInitPersistent(p, r, 0, 5, buf, nparts)
					for e := 0; e < 2; e++ {
						if e == 1 {
							r.Barrier(p)
						}
						rreq.Start(p)
						rreq.Wait(p)
					}
				} else {
					rreq := core.PrecvInit(p, r, 0, 5, buf, nparts)
					for e := 0; e < 2; e++ {
						if e == 1 {
							r.Barrier(p)
						}
						rreq.Start(p)
						rreq.PbufPrepare(p)
						rreq.Wait(p)
					}
				}
			default:
				r.Barrier(p)
			}
		})
		if err := w.Run(); err != nil {
			b.Fatal(err)
		}
		return elapsed
	}
	var rma, pers sim.Duration
	for i := 0; i < b.N; i++ {
		rma = measure(false)
		pers = measure(true)
	}
	b.ReportMetric(rma.Micros(), "us-rma-virt")
	b.ReportMetric(pers.Micros(), "us-persistent-virt")
	b.ReportMetric(float64(pers)/float64(rma), "x-rma-advantage-virt")
}
