package bench

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"

	"mpipart/internal/cluster"
	"mpipart/internal/core"
	"mpipart/internal/dl"
	"mpipart/internal/jacobi"
	"mpipart/internal/runner"
)

// The benchgate golden baseline: a designated tier-1 subset of the
// figure/table points, executed through the parallel runner and compared
// EXACTLY against a committed BENCH_GOLDEN.json. The sim kernel guarantees
// the same program produces the same virtual-time trace, so any drift in
// these metrics means the reproduction changed — deliberately (regenerate
// the golden with cmd/benchgate -write) or by accident (the gate fails
// with a per-point diff). Host wall time is recorded in the file but never
// compared exactly; it is only thresholded by cmd/benchgate.

// GoldenSchema versions the BENCH_GOLDEN.json layout.
const GoldenSchema = 1

// Golden is the serialized baseline: one Metrics set per gate point ID.
type Golden struct {
	Schema      int    `json:"schema"`
	Description string `json:"description,omitempty"`
	// GOARCH records the architecture that wrote the file. Virtual-time
	// metrics are pure int64 nanosecond counts and architecture-stable;
	// derived float metrics (GFLOP/s, GB/s) use only unfused float64
	// arithmetic, but the field is kept so a cross-architecture mismatch
	// can be diagnosed at a glance.
	GOARCH string `json:"goarch,omitempty"`
	// WallMS is the host wall-clock duration of the run that wrote the
	// file, in milliseconds. Informational only: virtual metrics gate
	// exactly, and host speed is gated by perfbench.
	WallMS int64                     `json:"wall_ms,omitempty"`
	Points map[string]runner.Metrics `json:"points"`
}

// GatePoints returns the designated tier-1 subset of figure points: every
// figure and table family at small, fast parameters. A nil model selects
// the calibrated defaults; the perturbation tests pass an altered model to
// prove the gate trips. (The Jacobi, deep-learning and OSU families run on
// the default model regardless — their measure functions are not
// model-parameterized — so perturbations surface through the fig2-5 and
// collective families.)
func GatePoints(model *cluster.Model) []runner.Point {
	m := cluster.DefaultModel()
	if model != nil {
		m = *model
	}
	var pts []runner.Point

	// Fig. 2: launch+sync cost at three grid sizes.
	for _, g := range []int{1, 64, 1024} {
		pts = append(pts, Fig2Point(fig2ID(g), m, g))
	}
	// Fig. 3: all three signalling levels at the headline 1024 threads.
	for _, level := range fig3Levels {
		pts = append(pts, Fig3Point("fig3/"+level+"/t=1024", m, level, 1024))
	}
	// Fig. 4: intra-node p2p, all three variants.
	for _, g := range []int{1, 8, 64} {
		cfg := P2PConfig{Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: g, Parts: 1, Model: model}
		id := "fig4/g=" + itoa(g)
		pts = append(pts,
			TraditionalPoint(id+"/sendrecv", cfg),
			PartitionedPoint(id+"/prog_engine", cfg, core.ProgressionEngine),
			PartitionedPoint(id+"/kernel_copy", cfg, core.KernelCopy),
		)
	}
	// Fig. 5: inter-node p2p.
	for _, g := range []int{1, 8, 64} {
		cfg := P2PConfig{Topo: cluster.TwoNodeGH200(), Receiver: 4, Grid: g, Parts: fig5Parts(g), Model: model}
		id := "fig5/g=" + itoa(g)
		pts = append(pts,
			TraditionalPoint(id+"/sendrecv", cfg),
			PartitionedPoint(id+"/prog_engine", cfg, core.ProgressionEngine),
		)
	}
	// Figs. 6/7: the three allreduce implementations on both topologies.
	// (Figure/topology pairs are ordered slices, not maps: point builders
	// run sim code, so construction order must be deterministic.)
	for _, ft := range []figTopo{
		{"fig6", cluster.OneNodeGH200()}, {"fig7", cluster.TwoNodeGH200()},
	} {
		fig, topo := ft.fig, ft.topo
		for _, g := range []int{128, 256} {
			cfg := AllreduceConfig{Topo: topo, Grid: g, UserParts: 4, Model: model}
			id := fig + "/g=" + itoa(g)
			pts = append(pts,
				MPIAllreducePoint(id+"/mpi", cfg),
				PartitionedAllreducePoint(id+"/partitioned", cfg),
				NCCLAllreducePoint(id+"/nccl", cfg),
			)
		}
	}
	// Figs. 8/9: Jacobi at the two smallest multipliers.
	for _, ft := range []figTopo{
		{"fig8", cluster.OneNodeGH200()}, {"fig9", cluster.TwoNodeGH200()},
	} {
		fig, topo := ft.fig, ft.topo
		for _, mult := range []int{1, 2} {
			id := fig + "/mult=" + itoa(mult)
			pts = append(pts, jacobiGatePoints(id, topo, JacobiBaseTile*mult)...)
		}
	}
	// Figs. 10/11: the deep-learning kernel at the smallest paper grid.
	for _, ft := range []figTopo{
		{"fig10", cluster.OneNodeGH200()}, {"fig11", cluster.TwoNodeGH200()},
	} {
		fig, topo := ft.fig, ft.topo
		id := fig + "/g=128"
		cfg := dlGateConfig()
		pts = append(pts,
			DLPoint(id+"/mpi", topo, cfg, "mpi"),
			DLPoint(id+"/partitioned", topo, cfg, "partitioned"),
			DLPoint(id+"/nccl", topo, cfg, "nccl"),
		)
	}
	// Halo exchange on both topologies.
	for _, topo := range []cluster.Topology{cluster.OneNodeGH200(), cluster.TwoNodeGH200()} {
		for _, n := range []int{256, 1024} {
			cfg := HaloConfig{Topo: topo, Elems: n, Model: model}
			id := fmt.Sprintf("halo%d/n=%d", topo.Nodes, n)
			pts = append(pts,
				HaloPoint(id+"/traditional", cfg, "traditional"),
				HaloPoint(id+"/partitioned", cfg, "partitioned"),
			)
		}
	}
	// OSU substrate view, intra-node.
	for _, kind := range []string{"latency", "bw", "platency"} {
		for _, n := range []int{16, 1024} {
			pts = append(pts, OSUPoint(fmt.Sprintf("osu_%s/n=%d", kind, n), kind, cluster.OneNodeGH200(), 1, n))
		}
	}
	// Table I overheads.
	pts = append(pts, TableIPoint("table1/overheads", m))

	sort.Slice(pts, func(i, j int) bool { return pts[i].ID < pts[j].ID })
	return pts
}

// figTopo pairs a figure label with the topology it is evaluated on.
type figTopo struct {
	fig  string
	topo cluster.Topology
}

// jacobiGatePoints returns the traditional/partitioned Jacobi pair at one
// tile size on a topology.
func jacobiGatePoints(id string, topo cluster.Topology, tile int) []runner.Point {
	px, py := jacobi.Decompose(topo.TotalGPUs())
	cfg := jacobi.Config{PX: px, PY: py, NX: tile, NY: tile, Iters: JacobiIters}
	return []runner.Point{
		JacobiPoint(id+"/traditional", topo, cfg, "traditional"),
		JacobiPoint(id+"/partitioned", topo, cfg, "partitioned"),
	}
}

// dlGateConfig is the deep-learning gate configuration (the smallest grid
// the paper evaluates).
func dlGateConfig() dl.Config {
	return dl.Config{Params: 128 * 1024, Steps: DLSteps, UserParts: 4}
}

// CollectGolden runs the gate points through the runner and packages the
// results as a Golden (Description/GOARCH/WallMS are the caller's to set —
// this package is sim-driven and never touches the wall clock).
func CollectGolden(r *runner.Runner, model *cluster.Model) Golden {
	pts := GatePoints(model)
	ms := r.Run(pts)
	g := Golden{Schema: GoldenSchema, Points: make(map[string]runner.Metrics, len(pts))}
	for i, p := range pts {
		g.Points[p.ID] = ms[i]
	}
	return g
}

// EncodeGolden renders a Golden as stable, human-diffable JSON (sorted
// keys, indented, trailing newline).
func EncodeGolden(g Golden) ([]byte, error) {
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodeGolden parses a BENCH_GOLDEN.json payload.
func DecodeGolden(b []byte) (Golden, error) {
	var g Golden
	if err := json.Unmarshal(b, &g); err != nil {
		return Golden{}, fmt.Errorf("golden: %w", err)
	}
	if g.Schema != GoldenSchema {
		return Golden{}, fmt.Errorf("golden: schema %d, this build reads %d (regenerate with benchgate -write)", g.Schema, GoldenSchema)
	}
	if g.Points == nil {
		return Golden{}, fmt.Errorf("golden: no points")
	}
	return g, nil
}

// GoldenDiff is one divergence between a golden baseline and a fresh run.
type GoldenDiff struct {
	Point  string
	Metric string // empty for whole-point presence diffs
	Kind   string // "drift" | "missing" | "extra" | "metric-missing" | "metric-extra"
	Want   float64
	Got    float64
}

func (d GoldenDiff) String() string {
	switch d.Kind {
	case "drift":
		rel := ""
		if d.Want != 0 {
			rel = fmt.Sprintf(" (%+.4f%%)", 100*(d.Got-d.Want)/d.Want)
		}
		return fmt.Sprintf("%s: %s golden=%v got=%v%s", d.Point, d.Metric, d.Want, d.Got, rel)
	case "missing":
		return fmt.Sprintf("%s: in golden but not produced by this build", d.Point)
	case "extra":
		return fmt.Sprintf("%s: produced by this build but absent from golden", d.Point)
	case "metric-missing":
		return fmt.Sprintf("%s: metric %s in golden but not produced", d.Point, d.Metric)
	default:
		return fmt.Sprintf("%s: metric %s produced but absent from golden", d.Point, d.Metric)
	}
}

// Compare diffs a fresh run against the golden baseline. Virtual-time
// metrics are compared exactly — the simulation is deterministic, so any
// difference is a real change. The result is sorted by (point, metric).
func (g Golden) Compare(got Golden) []GoldenDiff {
	var ds []GoldenDiff
	for id, want := range g.Points {
		gm, ok := got.Points[id]
		if !ok {
			ds = append(ds, GoldenDiff{Point: id, Kind: "missing"})
			continue
		}
		for _, k := range want.Keys() {
			gv, ok := gm[k]
			if !ok {
				ds = append(ds, GoldenDiff{Point: id, Metric: k, Kind: "metric-missing", Want: want[k]})
				continue
			}
			if gv != want[k] {
				ds = append(ds, GoldenDiff{Point: id, Metric: k, Kind: "drift", Want: want[k], Got: gv})
			}
		}
		for _, k := range gm.Keys() {
			if _, ok := want[k]; !ok {
				ds = append(ds, GoldenDiff{Point: id, Metric: k, Kind: "metric-extra", Got: gm[k]})
			}
		}
	}
	for id := range got.Points {
		if _, ok := g.Points[id]; !ok {
			ds = append(ds, GoldenDiff{Point: id, Kind: "extra"})
		}
	}
	sort.Slice(ds, func(i, j int) bool {
		if ds[i].Point != ds[j].Point {
			return ds[i].Point < ds[j].Point
		}
		return ds[i].Metric < ds[j].Metric
	})
	return ds
}

// FormatDiffs renders a readable per-point diff report.
func FormatDiffs(ds []GoldenDiff) string {
	if len(ds) == 0 {
		return "benchgate: no drift\n"
	}
	var sb strings.Builder
	fmt.Fprintf(&sb, "benchgate: %d divergence(s) from golden baseline\n", len(ds))
	for _, d := range ds {
		fmt.Fprintf(&sb, "  %s\n", d.String())
	}
	sb.WriteString("if this change is intentional, regenerate with: go run ./cmd/benchgate -write BENCH_GOLDEN.json\n")
	return sb.String()
}
