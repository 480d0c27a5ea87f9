package bench

import (
	"sort"
	"sync"

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

// DefaultMaxGrid and DefaultMaxMult are the catalog's sweep caps: the
// largest kernel grid of Figs. 4–7, 10 and 11, and the largest Jacobi
// problem multiplier of Figs. 8 and 9.
const (
	DefaultMaxGrid = 2048
	DefaultMaxMult = 32
)

// fig2MinGrid is Fig. 2's floor on the grid cap: the figure has no data
// buffers, so the paper's full range is cheap.
const fig2MinGrid = 131072

// Jobs declares the paper's evaluation at the given sweep caps: Figs. 2–11
// in order, then Table I.
func Jobs(maxGrid, maxMult int) []Job {
	return []Job{
		Fig2Job(max(maxGrid, fig2MinGrid)), Fig3Job(),
		Fig4Job(maxGrid), Fig5Job(maxGrid),
		Fig6Job(maxGrid), Fig7Job(maxGrid),
		Fig8Job(maxMult), Fig9Job(maxMult),
		Fig10Job(maxGrid), Fig11Job(maxGrid),
		TableIJob(),
	}
}

// catalog is the point namespace behind Catalog, built once on first use.
var catalog struct {
	once sync.Once
	m    map[string]runner.Point
}

// Catalog maps every point ID of the default catalog to its point: the
// gate points (GatePoints(nil)), then every point of
// Jobs(DefaultMaxGrid, DefaultMaxMult). Gate IDs coincide with the figure
// points they were drawn from, so a repeated ID is the same point.
// Construction only builds closures; nothing simulates until a point runs.
// Callers must not modify the map.
func Catalog() map[string]runner.Point {
	catalog.once.Do(func() {
		m := make(map[string]runner.Point)
		for _, p := range GatePoints(nil) {
			m[p.ID] = p
		}
		for _, j := range Jobs(DefaultMaxGrid, DefaultMaxMult) {
			for _, p := range j.Points {
				if _, ok := m[p.ID]; !ok {
					m[p.ID] = p
				}
			}
		}
		catalog.m = m
	})
	return catalog.m
}

// CatalogIDs returns every point ID of Catalog, sorted.
func CatalogIDs() []string {
	ids := make([]string, 0, len(Catalog()))
	for id := range Catalog() {
		ids = append(ids, id)
	}
	sort.Strings(ids)
	return ids
}

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
