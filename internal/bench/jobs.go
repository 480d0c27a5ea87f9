package bench

import (
	"mpipart/internal/cluster"
	"mpipart/internal/mpi"
	"mpipart/internal/runner"
)

// Job is the declarative form of one figure or table: the points to
// execute (each a self-contained simulation) and an assembler that turns
// their metrics — delivered in point order — into the printable Table.
// Splitting declaration from execution lets cmd/figures run every point of
// every requested figure through one shared parallel runner, with points
// repeated across figures computed once.
type Job struct {
	// Name is the short machine name ("fig4", "table1", "halo1", ...);
	// cmd/figures uses it for per-figure CSV files.
	Name   string
	Points []runner.Point
	Build  func(ms []runner.Metrics) *Table
}

// RunJob executes one job through the given runner.
func RunJob(r *runner.Runner, j Job) *Table {
	return j.Build(r.Run(j.Points))
}

// RunJobs executes every point of every job through one runner call —
// points from different jobs run concurrently and deduplicate against each
// other — then assembles the tables in job order.
func RunJobs(r *runner.Runner, jobs []Job) []*Table {
	var all []runner.Point
	offs := make([]int, len(jobs))
	for i, j := range jobs {
		offs[i] = len(all)
		all = append(all, j.Points...)
	}
	ms := r.Run(all)
	tables := make([]*Table, len(jobs))
	for i, j := range jobs {
		tables[i] = j.Build(ms[offs[i] : offs[i]+len(j.Points)])
	}
	return tables
}

// defaultRunner backs the legacy one-call entry points (Fig2, Fig4, ...,
// HaloTable, OSUTable): a process-wide pool at GOMAXPROCS with a shared
// memo cache, so repeated calls — the test suite, cmd wrappers — reuse
// earlier results. Determinism makes the shared cache observationally
// transparent.
var defaultRunner = runner.New(0)

// elapsedPoint wraps a measurement returning a single virtual duration
// into a point with metric "elapsed_ns".
func elapsedPoint(id, key string, measure func() float64) runner.Point {
	return runner.Point{ID: id, Key: key, Run: func() runner.Metrics {
		return runner.Metrics{"elapsed_ns": measure()}
	}}
}

// measureWorld builds the world of one measurement. Measurements whose
// results need no computed payload pass timingOnly (sim.Kernel.SetTimingOnly),
// which skips all payload arithmetic and copies: every catalog point,
// Jacobi's included, whose checksum comes from jacobi.ConeChecksum's sweep
// of the rows the heat front has reached in rank 0's dependency cone.
// MeasureDL and MeasureJacobi keep full payload because their callers read
// the computed WeightSum and Checksum.
func measureWorld(topo cluster.Topology, m cluster.Model, timingOnly bool) *mpi.World {
	w := mpi.NewWorld(topo, m, 1)
	if timingOnly {
		w.K.SetTimingOnly()
	}
	return w
}
