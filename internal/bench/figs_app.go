package bench

import (
	"mpipart/internal/cluster"
	"mpipart/internal/dl"
	"mpipart/internal/jacobi"
	"mpipart/internal/mpi"
	"mpipart/internal/nccl"
	"mpipart/internal/runner"
)

// JacobiBaseTile is the per-GPU tile edge at multiplier 1; the paper varies
// the multiplier from 1 to 32 in powers of two.
const JacobiBaseTile = 32

// JacobiIters is the number of sweeps per measurement.
const JacobiIters = 4

// MeasureJacobi runs one Jacobi variant SPMD on a full-payload world and
// returns rank 0's stats (Checksum included).
func MeasureJacobi(topo cluster.Topology, cfg jacobi.Config,
	variant func(r *mpi.Rank, cfg jacobi.Config) jacobi.Stats) jacobi.Stats {
	return jacobiOn(measureWorld(topo, cluster.DefaultModel(), false), cfg, variant)
}

// jacobiOn runs one Jacobi variant SPMD on w and returns rank 0's stats.
func jacobiOn(w *mpi.World, cfg jacobi.Config,
	variant func(r *mpi.Rank, cfg jacobi.Config) jacobi.Stats) jacobi.Stats {
	var out jacobi.Stats
	w.Spawn(func(r *mpi.Rank) {
		st := variant(r, cfg)
		if r.ID == 0 {
			out = st
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return out
}

// jacobiMetrics runs one Jacobi variant on w and returns the catalog
// point's metrics. The checksum is rank 0's tile sum; a timing-only world
// computes no tile, so it takes the value from jacobi.ConeChecksum, a sweep
// of only the Iters rows the heat front has reached inside rank 0's
// dependency cone, bit-identical to what a full-payload run of the point
// sums. At Iters rows it costs O(width·Iters), so calling it once per
// point needs no memo.
func jacobiMetrics(w *mpi.World, cfg jacobi.Config,
	variant func(r *mpi.Rank, cfg jacobi.Config) jacobi.Stats) runner.Metrics {
	st := jacobiOn(w, cfg, variant)
	sum := st.Checksum()
	if w.K.TimingOnly() {
		sum = jacobi.ConeChecksum(cfg)
	}
	return runner.Metrics{"gflops": st.GFLOPs, "checksum": sum}
}

// jacobiVariant resolves a variant name to its SPMD body.
func jacobiVariant(name string) func(r *mpi.Rank, cfg jacobi.Config) jacobi.Stats {
	switch name {
	case "traditional":
		return jacobi.Traditional
	case "partitioned":
		return jacobi.Partitioned
	default:
		panic("bench: unknown Jacobi variant " + name)
	}
}

// JacobiPoint declares one timing-only Jacobi measurement; variant is
// "traditional" or "partitioned".
func JacobiPoint(id string, topo cluster.Topology, cfg jacobi.Config, variant string) runner.Point {
	v := jacobiVariant(variant)
	return runner.Point{
		ID:  id,
		Key: runner.KeyOf("jacobi", topo, cluster.DefaultModel(), cfg, variant),
		Run: func() runner.Metrics {
			return jacobiMetrics(measureWorld(topo, cluster.DefaultModel(), true), cfg, v)
		},
	}
}

func jacobiJob(name, title string, topo cluster.Topology, maxMult int) Job {
	px, py := jacobi.Decompose(topo.TotalGPUs())
	var points []runner.Point
	var mults []int
	for mult := 1; mult <= maxMult; mult *= 2 {
		mults = append(mults, mult)
		tile := JacobiBaseTile * mult
		cfg := jacobi.Config{PX: px, PY: py, NX: tile, NY: tile, Iters: JacobiIters}
		id := name + "/mult=" + itoa(mult)
		points = append(points,
			JacobiPoint(id+"/traditional", topo, cfg, "traditional"),
			JacobiPoint(id+"/partitioned", topo, cfg, "partitioned"),
		)
	}
	return Job{
		Name:   name,
		Points: points,
		Build: func(ms []runner.Metrics) *Table {
			tb := &Table{
				Title:   title,
				Columns: []string{"multiplier", "tile", "trad_GFLOPs", "part_GFLOPs", "speedup"},
			}
			for i, mult := range mults {
				tr := ms[2*i]["gflops"]
				pa := ms[2*i+1]["gflops"]
				tb.AddRow(mult, JacobiBaseTile*mult, tr, pa, pa/tr)
			}
			tb.Note("paper: best speedup 1.06x on one node, 1.30x on two; gains largest at small sizes, then plateau")
			return tb
		},
	}
}

// Fig8Job declares Figure 8: Jacobi GFLOP/s on four GH200 (2x2 tiles).
func Fig8Job(maxMult int) Job {
	return jacobiJob("fig8", "Fig. 8: Jacobi solver GFLOP/s, four GH200 (2x2)", cluster.OneNodeGH200(), maxMult)
}

// Fig9Job declares Figure 9: Jacobi GFLOP/s on eight GH200 (4x2 tiles).
func Fig9Job(maxMult int) Job {
	return jacobiJob("fig9", "Fig. 9: Jacobi solver GFLOP/s, eight GH200 (4x2)", cluster.TwoNodeGH200(), maxMult)
}

// DLSteps is the number of training steps per measurement (the partitioned
// variant's first step is persistent-channel warmup).
const DLSteps = 3

// MeasureDL runs one deep-learning variant SPMD on a full-payload world and
// returns rank 0's stats (WeightSum included; see dlOn).
func MeasureDL(topo cluster.Topology, cfg dl.Config,
	variant func(r *mpi.Rank, comm *nccl.Comm, cfg dl.Config) dl.Stats) dl.Stats {
	return dlOn(measureWorld(topo, cluster.DefaultModel(), false), cfg, variant)
}

// dlOn runs one deep-learning variant SPMD on w and returns rank 0's stats.
func dlOn(w *mpi.World, cfg dl.Config,
	variant func(r *mpi.Rank, comm *nccl.Comm, cfg dl.Config) dl.Stats) dl.Stats {
	comm := nccl.NewComm(w)
	var out dl.Stats
	w.Spawn(func(r *mpi.Rank) {
		st := variant(r, comm, cfg)
		if r.ID == 0 {
			out = st
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return out
}

// dlVariant resolves a variant name to its SPMD body.
func dlVariant(name string) func(r *mpi.Rank, comm *nccl.Comm, cfg dl.Config) dl.Stats {
	switch name {
	case "mpi":
		return func(r *mpi.Rank, _ *nccl.Comm, c dl.Config) dl.Stats { return dl.MPIAllreduce(r, c) }
	case "partitioned":
		return func(r *mpi.Rank, _ *nccl.Comm, c dl.Config) dl.Stats { return dl.PartitionedAllreduce(r, c) }
	case "nccl":
		return dl.NCCLAllreduce
	default:
		panic("bench: unknown DL variant " + name)
	}
}

// DLPoint declares one timing-only deep-learning training-step
// measurement; variant is "mpi", "partitioned", or "nccl".
func DLPoint(id string, topo cluster.Topology, cfg dl.Config, variant string) runner.Point {
	v := dlVariant(variant)
	return runner.Point{
		ID:  id,
		Key: runner.KeyOf("dl", topo, cluster.DefaultModel(), cfg, variant),
		Run: func() runner.Metrics {
			st := dlOn(measureWorld(topo, cluster.DefaultModel(), true), cfg, v)
			return runner.Metrics{"step_ns": float64(st.StepTime)}
		},
	}
}

func dlJob(name, title string, topo cluster.Topology, maxGrid int) Job {
	var points []runner.Point
	var grids []int
	for _, g := range gridSweep(maxGrid) {
		if g < 128 {
			continue
		}
		grids = append(grids, g)
		cfg := dl.Config{Params: g * 1024, Steps: DLSteps, UserParts: 4}
		id := name + "/g=" + itoa(g)
		points = append(points,
			DLPoint(id+"/mpi", topo, cfg, "mpi"),
			DLPoint(id+"/partitioned", topo, cfg, "partitioned"),
			DLPoint(id+"/nccl", topo, cfg, "nccl"),
		)
	}
	return Job{
		Name:   name,
		Points: points,
		Build: func(ms []runner.Metrics) *Table {
			tb := &Table{
				Title:   title,
				Columns: []string{"grid", "MiB", "mpi_us/step", "partitioned_us/step", "nccl_us/step"},
			}
			for i, g := range grids {
				tr := ms[3*i]["step_ns"]
				pa := ms[3*i+1]["step_ns"]
				nc := ms[3*i+2]["step_ns"]
				tb.AddRow(g, float64(bytesOf(g))/(1<<20), tr/1000, pa/1000, nc/1000)
			}
			tb.Note("measurement includes MPI_Start and MPIX_Pbuf_prepare for the partitioned variant (training-loop accounting, Section VI-D2)")
			tb.Note("paper: partitioned far below MPI_Allreduce; NCCL best (the kernel is dominated by the collective)")
			return tb
		},
	}
}

// Fig10Job declares Figure 10: BCE deep-learning kernel on four GH200.
func Fig10Job(maxGrid int) Job {
	return dlJob("fig10", "Fig. 10: deep-learning kernel, four GH200", cluster.OneNodeGH200(), maxGrid)
}

// Fig11Job declares Figure 11: BCE deep-learning kernel on eight GH200.
func Fig11Job(maxGrid int) Job {
	return dlJob("fig11", "Fig. 11: deep-learning kernel, eight GH200", cluster.TwoNodeGH200(), maxGrid)
}
