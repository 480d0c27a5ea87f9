package bench

import (
	"mpipart/internal/cluster"
	"mpipart/internal/coll"
	"mpipart/internal/core"
	"mpipart/internal/gpu"
	"mpipart/internal/mpi"
	"mpipart/internal/nccl"
	"mpipart/internal/runner"
	"mpipart/internal/sim"
)

// AllreduceConfig selects one point of the Fig. 6 / Fig. 7 sweeps.
type AllreduceConfig struct {
	Topo cluster.Topology
	Grid int
	// UserParts is the partitioned variant's user partition count.
	UserParts int
	// Model overrides the calibrated defaults (nil = DefaultModel); the
	// benchgate perturbation tests use it.
	Model *cluster.Model
}

// model resolves the config's model.
func (c AllreduceConfig) model() cluster.Model {
	if c.Model != nil {
		return *c.Model
	}
	return cluster.DefaultModel()
}

// MPIAllreducePoint declares a MeasureMPIAllreduce run (UserParts is
// excluded from the key: the traditional path has no partitions).
func MPIAllreducePoint(id string, cfg AllreduceConfig) runner.Point {
	key := runner.KeyOf("coll/mpi", cfg.Topo, cfg.model(), cfg.Grid)
	return elapsedPoint(id, key, func() float64 { return float64(MeasureMPIAllreduce(cfg)) })
}

// PartitionedAllreducePoint declares a MeasurePartitionedAllreduce run.
func PartitionedAllreducePoint(id string, cfg AllreduceConfig) runner.Point {
	key := runner.KeyOf("coll/partitioned", cfg.Topo, cfg.model(), cfg.Grid, cfg.UserParts)
	return elapsedPoint(id, key, func() float64 { return float64(MeasurePartitionedAllreduce(cfg)) })
}

// NCCLAllreducePoint declares a MeasureNCCLAllreduce run.
func NCCLAllreducePoint(id string, cfg AllreduceConfig) runner.Point {
	key := runner.KeyOf("coll/nccl", cfg.Topo, cfg.model(), cfg.Grid)
	return elapsedPoint(id, key, func() float64 { return float64(MeasureNCCLAllreduce(cfg)) })
}

// MeasureMPIAllreduce times the traditional model on a timing-only world;
// see mpiAllreduceOn.
func MeasureMPIAllreduce(cfg AllreduceConfig) sim.Duration {
	return measureAllreduce(cfg, mpiAllreduceOn)
}

// MeasurePartitionedAllreduce times the partitioned collective on a
// timing-only world; see partitionedAllreduceOn.
func MeasurePartitionedAllreduce(cfg AllreduceConfig) sim.Duration {
	return measureAllreduce(cfg, partitionedAllreduceOn)
}

// MeasureNCCLAllreduce times the NCCL baseline on a timing-only world; see
// ncclAllreduceOn.
func MeasureNCCLAllreduce(cfg AllreduceConfig) sim.Duration {
	return measureAllreduce(cfg, ncclAllreduceOn)
}

// allreduceOn is one allreduce measurement body, run on a world its caller
// builds in either payload mode.
type allreduceOn func(w *mpi.World, cfg AllreduceConfig) sim.Duration

// measureAllreduce runs on in a timing-only world: the result is a virtual
// time, which buffer contents cannot change (payload_test.go).
func measureAllreduce(cfg AllreduceConfig, on allreduceOn) sim.Duration {
	w := measureWorld(cfg.Topo, cfg.model(), true)
	return on(w, cfg)
}

// mpiAllreduceOn times the traditional model on w: vector-add kernel →
// cudaStreamSynchronize → MPI_Allreduce (host-staged linear fallback).
// The returned time is rank 0's, with a barrier ensuring it covers the
// slowest rank.
func mpiAllreduceOn(w *mpi.World, cfg AllreduceConfig) sim.Duration {
	var elapsed sim.Duration
	n := cfg.Grid * 1024
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(n)
		r.Barrier(p)
		t0 := p.Now()
		r.Stream.Launch(vecAddSpec(cfg.Grid))
		r.Stream.Synchronize(p)
		r.Allreduce(p, buf, mpi.OpSum)
		r.Barrier(p)
		if r.ID == 0 {
			elapsed = sim.Duration(p.Now() - t0)
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

// partitionedAllreduceOn times the partitioned collective on w: the
// steady-state epoch's kernel launch → MPI_Wait span, with user partitions
// marked ready from inside the kernel (block-aggregated device
// MPIX_Pready). Start and Pbuf_prepare run outside the timed region, as in
// the Section VI-B micro-benchmarks.
func partitionedAllreduceOn(w *mpi.World, cfg AllreduceConfig) sim.Duration {
	var elapsed sim.Duration
	n := cfg.Grid * 1024
	up := cfg.UserParts
	if up <= 0 {
		up = 4
	}
	if up > cfg.Grid {
		up = cfg.Grid
	}
	blocksPer := cfg.Grid / up
	const iters = 2
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(n)
		req := coll.PallreduceInit(p, r, buf, up, mpi.OpSum)
		var dev *coll.DeviceColl
		for it := 0; it < iters; it++ {
			req.Start(p)
			req.PbufPrepare(p)
			if dev == nil {
				dev = req.DeviceHandle(p, blocksPer)
			}
			r.Barrier(p)
			t0 := p.Now()
			r.Stream.Launch(gpu.KernelSpec{
				Name: "vecadd+pready", Grid: cfg.Grid, Block: 1024,
				Body: func(b *gpu.BlockCtx) {
					u := b.Idx / blocksPer
					if u >= up {
						u = up - 1
					}
					dev.PreadyBlockAggregated(b, u)
				},
			})
			req.Wait(p)
			r.Barrier(p)
			if r.ID == 0 {
				elapsed = sim.Duration(p.Now() - t0)
			}
			r.Stream.WaitIdle(p)
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

// ncclAllreduceOn times the NCCL baseline on w: kernel → ncclAllReduce on
// the stream → one cudaStreamSynchronize.
func ncclAllreduceOn(w *mpi.World, cfg AllreduceConfig) sim.Duration {
	var elapsed sim.Duration
	comm := nccl.NewComm(w)
	n := cfg.Grid * 1024
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(n)
		r.Barrier(p)
		t0 := p.Now()
		r.Stream.Launch(vecAddSpec(cfg.Grid))
		comm.AllReduce(r, r.Stream, buf)
		r.Stream.Synchronize(p)
		r.Barrier(p)
		if r.ID == 0 {
			elapsed = sim.Duration(p.Now() - t0)
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return elapsed
}

// allreduceGrids returns the Fig. 6/7 sweep grids: the paper evaluates
// large grids for the ring algorithm.
func allreduceGrids(maxGrid int) []int {
	var gs []int
	for _, g := range gridSweep(maxGrid) {
		if g >= 128 {
			gs = append(gs, g)
		}
	}
	return gs
}

func allreduceJob(name, title string, topo cluster.Topology, maxGrid int) Job {
	grids := allreduceGrids(maxGrid)
	var points []runner.Point
	for _, g := range grids {
		cfg := AllreduceConfig{Topo: topo, Grid: g, UserParts: 4}
		id := name + "/g=" + itoa(g)
		points = append(points,
			MPIAllreducePoint(id+"/mpi", cfg),
			PartitionedAllreducePoint(id+"/partitioned", cfg),
			NCCLAllreducePoint(id+"/nccl", cfg),
		)
	}
	return Job{
		Name:   name,
		Points: points,
		Build: func(ms []runner.Metrics) *Table {
			tb := &Table{
				Title: title,
				Columns: []string{"grid", "MiB", "mpi_allreduce_us", "partitioned_us", "nccl_us",
					"mpi/part", "part-nccl_us"},
			}
			for i, g := range grids {
				tr := ms[3*i]["elapsed_ns"]
				pa := ms[3*i+1]["elapsed_ns"]
				nc := ms[3*i+2]["elapsed_ns"]
				tb.AddRow(g, float64(bytesOf(g))/(1<<20), tr/1000, pa/1000, nc/1000,
					tr/pa, (pa-nc)/1000)
			}
			tb.Note("paper: partitioned is orders of magnitude below MPI_Allreduce; NCCL leads partitioned (~226us at 1K grids) because its per-step reductions are fused (no launch+streamSync inside the collective)")
			return tb
		},
	}
}

// Fig6Job declares Figure 6: allreduce on four GH200 (one node).
func Fig6Job(maxGrid int) Job {
	return allreduceJob("fig6", "Fig. 6: allreduce, four GH200 on one node", cluster.OneNodeGH200(), maxGrid)
}

// Fig7Job declares Figure 7: allreduce on eight GH200 (two nodes, ranks
// 0-3 and 4-7 per node so ring neighbours are placed optimally).
func Fig7Job(maxGrid int) Job {
	return allreduceJob("fig7", "Fig. 7: allreduce, eight GH200 on two nodes", cluster.TwoNodeGH200(), maxGrid)
}

// tableIMeasure runs the Table I world once and returns the five measured
// overheads.
func tableIMeasure(model cluster.Model) (initSend, initColl, prequest, prepFirst, prepAvg sim.Duration) {
	w := mpi.NewWorld(cluster.OneNodeGH200(), model, 1)
	const epochs = 100
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(4096)
		switch r.ID {
		case 0:
			t0 := p.Now()
			sreq := core.PsendInit(p, r, 1, 70, buf, 4)
			initSend = sim.Duration(p.Now() - t0)

			t0 = p.Now()
			creq := coll.PallreduceInit(p, r, r.Dev.Alloc(1024), 2, mpi.OpSum)
			initColl = sim.Duration(p.Now() - t0)
			_ = creq

			var sum sim.Duration
			for e := 0; e < epochs; e++ {
				sreq.Start(p)
				t0 = p.Now()
				sreq.PbufPrepare(p)
				d := sim.Duration(p.Now() - t0)
				if e == 0 {
					prepFirst = d
				} else {
					sum += d
				}
				if e == 0 {
					t0 = p.Now()
					q, err := core.PrequestCreate(p, sreq, core.PrequestOpts{Mech: core.ProgressionEngine})
					if err != nil {
						panic(err)
					}
					prequest = sim.Duration(p.Now() - t0)
					_ = q
				}
				for i := 0; i < 4; i++ {
					sreq.Pready(p, i)
				}
				sreq.Wait(p)
			}
			prepAvg = sum / sim.Duration(epochs-1)
		case 1:
			rreq := core.PrecvInit(p, r, 0, 70, buf, 4)
			coll.PallreduceInit(p, r, r.Dev.Alloc(1024), 2, mpi.OpSum)
			for e := 0; e < epochs; e++ {
				rreq.Start(p)
				rreq.PbufPrepare(p)
				rreq.Wait(p)
			}
		default:
			// Ranks 2 and 3 participate in the collective init only.
			coll.PallreduceInit(p, r, r.Dev.Alloc(1024), 2, mpi.OpSum)
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return
}

// TableIPoint declares the Table I overhead measurement (one world).
func TableIPoint(id string, model cluster.Model) runner.Point {
	return runner.Point{
		ID:  id,
		Key: runner.KeyOf("tableI", cluster.OneNodeGH200(), model),
		Run: func() runner.Metrics {
			initSend, initColl, prequest, prepFirst, prepAvg := tableIMeasure(model)
			return runner.Metrics{
				"init_send_ns":  float64(initSend),
				"init_coll_ns":  float64(initColl),
				"prequest_ns":   float64(prequest),
				"prep_first_ns": float64(prepFirst),
				"prep_avg_ns":   float64(prepAvg),
			}
		},
	}
}

// TableIJob declares Table I: the overheads of the partitioned API calls
// over 100 epochs on the testbed topology.
func TableIJob() Job {
	return Job{
		Name:   "table1",
		Points: []runner.Point{TableIPoint("table1/overheads", cluster.DefaultModel())},
		Build: func(ms []runner.Metrics) *Table {
			tb := &Table{
				Title:   "Table I: overheads of partitioned API calls",
				Columns: []string{"call", "measured_us", "paper_us"},
			}
			m := ms[0]
			tb.AddRow("MPI_PSend/Recv_init", m["init_send_ns"]/1000, "17.2 ± 10.2")
			tb.AddRow("MPIX_Pallreduce_init", m["init_coll_ns"]/1000, "62.3 ± 6.2")
			tb.AddRow("MPIX_Prequest_create", m["prequest_ns"]/1000, "110.7 ± 37.8")
			tb.AddRow("MPIX_Pbuf_prepare (first)", m["prep_first_ns"]/1000, "193.4")
			tb.AddRow("MPIX_Pbuf_prepare (avg subsequent)", m["prep_avg_ns"]/1000, "3.4 ± 1.4")
			tb.Note("deterministic simulation: no run-to-run variance (paper reports std over 10 samples)")
			return tb
		},
	}
}
