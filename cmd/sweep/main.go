// Command sweep is the model-sensitivity ablation: it varies one calibrated
// cost-model parameter across a range and reports how the paper's headline
// results move. The conclusions (GPU-initiated partitioned beats the
// traditional model; Kernel Copy beats the Progression Engine intra-node)
// should be robust across plausible hardware, not artifacts of one
// parameter choice. All (model point × measurement) worlds execute through
// the parallel sweep runner.
//
// Usage:
//
//	sweep -param sync|launch|flaggap|nvlink|ib -grid 64 [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/core"
	"mpipart/internal/runner"
	"mpipart/internal/sim"
)

func main() {
	var (
		param   = flag.String("param", "sync", "parameter to sweep: sync | launch | flaggap | nvlink | ib")
		grid    = flag.Int("grid", 64, "kernel grid size")
		workers = flag.Int("workers", 0, "parallel sweep workers; 0 = GOMAXPROCS")
	)
	flag.Parse()

	type point struct {
		label string
		apply func(m *cluster.Model)
	}
	var points []point
	switch *param {
	case "sync":
		for _, us := range []float64{2, 4, 7.8, 12, 20} {
			us := us
			points = append(points, point{
				label: fmt.Sprintf("streamSync=%.1fus", us),
				apply: func(m *cluster.Model) { m.StreamSyncCost = sim.Microseconds(us) },
			})
		}
	case "launch":
		for _, us := range []float64{0.5, 1.2, 2.5, 5} {
			us := us
			points = append(points, point{
				label: fmt.Sprintf("launch=%.1fus", us),
				apply: func(m *cluster.Model) { m.KernelLaunchCost = sim.Microseconds(us) },
			})
		}
	case "flaggap":
		for _, ns := range []float64{100, 260, 500, 1000} {
			ns := ns
			points = append(points, point{
				label: fmt.Sprintf("flagGap=%.0fns", ns),
				apply: func(m *cluster.Model) { m.HostFlagWriteGap = sim.Nanoseconds(ns) },
			})
		}
	case "nvlink":
		for _, gbps := range []float64{75, 150, 300, 450} {
			gbps := gbps
			points = append(points, point{
				label: fmt.Sprintf("nvlink=%.0fGB/s", gbps),
				apply: func(m *cluster.Model) { m.NVLinkBytesPerSec = gbps * 1e9 },
			})
		}
	case "ib":
		for _, gbps := range []float64{12, 24, 48, 96} {
			gbps := gbps
			points = append(points, point{
				label: fmt.Sprintf("ib=%.0fGB/s", gbps),
				apply: func(m *cluster.Model) { m.IBBytesPerSec = gbps * 1e9 },
			})
		}
	default:
		fmt.Fprintf(os.Stderr, "sweep: unknown parameter %q\n", *param)
		os.Exit(2)
	}

	// Declare the five measurements of every model point, then execute the
	// whole matrix through one runner call.
	var rps []runner.Point
	for pi, pt := range points {
		model := cluster.DefaultModel()
		pt.apply(&model)
		m := model
		intra := bench.P2PConfig{Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: *grid, Parts: 1, Model: &m}
		inter := bench.P2PConfig{Topo: cluster.TwoNodeGH200(), Receiver: 4, Grid: *grid, Parts: 2, Model: &m}
		for _, cfg := range []bench.P2PConfig{intra, inter} {
			if err := cfg.Validate(); err != nil {
				fmt.Fprintln(os.Stderr, "sweep:", err)
				os.Exit(2)
			}
		}
		id := fmt.Sprintf("sweep/%s/%d", pt.label, pi)
		rps = append(rps,
			bench.TraditionalPoint(id+"/tr-intra", intra),
			bench.PartitionedPoint(id+"/pe-intra", intra, core.ProgressionEngine),
			bench.PartitionedPoint(id+"/kc-intra", intra, core.KernelCopy),
			bench.TraditionalPoint(id+"/tr-inter", inter),
			bench.PartitionedPoint(id+"/pe-inter", inter, core.ProgressionEngine),
		)
	}
	ms := runner.New(*workers).Run(rps)

	fmt.Printf("sensitivity of Fig. 4/5 headline speedups to %s (grid %d)\n\n", *param, *grid)
	fmt.Printf("%-22s %14s %14s %14s\n", "model point", "PE intra (x)", "KC intra (x)", "PE inter (x)")
	for pi, pt := range points {
		tr := ms[5*pi]["elapsed_ns"]
		pe := ms[5*pi+1]["elapsed_ns"]
		kc := ms[5*pi+2]["elapsed_ns"]
		trI := ms[5*pi+3]["elapsed_ns"]
		peI := ms[5*pi+4]["elapsed_ns"]
		fmt.Printf("%-22s %14.3f %14.3f %14.3f\n", pt.label, tr/pe, tr/kc, trI/peI)
	}
	fmt.Println("\nrobust if the ordering (KC > PE > 1.0) holds at every point")
}
