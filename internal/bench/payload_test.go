package bench

import (
	"testing"

	"mpipart/internal/cluster"
	"mpipart/internal/core"
	"mpipart/internal/dl"
	"mpipart/internal/gpu"
	"mpipart/internal/jacobi"
	"mpipart/internal/mpi"
	"mpipart/internal/runner"
	"mpipart/internal/sim"
)

// payloadGrids are the grids the payload-mode tests cover in the
// collective timing-only families (Figs. 6/7 and 10/11).
var payloadGrids = []int{128, 256}

// jacobiMaxMult is the largest tile multiplier the payload-mode tests cover
// in the Jacobi family (Figs. 8/9): the catalog's whole sweep.
const jacobiMaxMult = 32

// p2pPayloadGrids are the grids they cover in the point-to-point family
// (Figs. 4/5): one block, and a grid Fig. 5 splits into two partitions.
var p2pPayloadGrids = []int{1, 64}

// payloadCase is one timing-only catalog measurement, run on a world the
// test builds so it can pick the payload mode and read the kernel counters.
type payloadCase struct {
	id   string
	topo cluster.Topology
	run  func(w *mpi.World) runner.Metrics
}

func payloadCases() []payloadCase {
	var cs []payloadCase
	for _, g := range p2pPayloadGrids {
		intra := P2PConfig{Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: g, Parts: 1}
		inter := P2PConfig{Topo: cluster.TwoNodeGH200(), Receiver: 4, Grid: g, Parts: fig5Parts(g)}
		for _, v := range []struct {
			id  string
			cfg P2PConfig
			on  func(w *mpi.World, cfg P2PConfig) sim.Duration
		}{
			{"fig4/g=" + itoa(g) + "/sendrecv", intra, traditionalOn},
			{"fig4/g=" + itoa(g) + "/prog_engine", intra, partitionedOnWith(core.ProgressionEngine)},
			{"fig4/g=" + itoa(g) + "/kernel_copy", intra, partitionedOnWith(core.KernelCopy)},
			{"fig5/g=" + itoa(g) + "/sendrecv", inter, traditionalOn},
			{"fig5/g=" + itoa(g) + "/prog_engine", inter, partitionedOnWith(core.ProgressionEngine)},
		} {
			cs = append(cs, payloadCase{v.id, v.cfg.Topo, func(w *mpi.World) runner.Metrics {
				return runner.Metrics{"elapsed_ns": float64(v.on(w, v.cfg))}
			}})
		}
	}
	for _, ft := range []figTopo{
		{"fig6", cluster.OneNodeGH200()}, {"fig7", cluster.TwoNodeGH200()},
	} {
		for _, g := range payloadGrids {
			cfg := AllreduceConfig{Topo: ft.topo, Grid: g, UserParts: 4}
			id := ft.fig + "/g=" + itoa(g)
			for _, v := range []struct {
				name string
				on   allreduceOn
			}{
				{"mpi", mpiAllreduceOn}, {"partitioned", partitionedAllreduceOn}, {"nccl", ncclAllreduceOn},
			} {
				cs = append(cs, payloadCase{id + "/" + v.name, ft.topo, func(w *mpi.World) runner.Metrics {
					return runner.Metrics{"elapsed_ns": float64(v.on(w, cfg))}
				}})
			}
		}
	}
	for _, ft := range []figTopo{
		{"fig10", cluster.OneNodeGH200()}, {"fig11", cluster.TwoNodeGH200()},
	} {
		for _, g := range payloadGrids {
			cfg := dl.Config{Params: g * 1024, Steps: DLSteps, UserParts: 4}
			for _, name := range []string{"mpi", "partitioned", "nccl"} {
				v := dlVariant(name)
				cs = append(cs, payloadCase{ft.fig + "/g=" + itoa(g) + "/" + name, ft.topo, func(w *mpi.World) runner.Metrics {
					st := dlOn(w, cfg, v)
					return runner.Metrics{"step_ns": float64(st.StepTime)}
				}})
			}
		}
	}
	for _, ft := range []figTopo{
		{"fig8", cluster.OneNodeGH200()}, {"fig9", cluster.TwoNodeGH200()},
	} {
		px, py := jacobi.Decompose(ft.topo.TotalGPUs())
		for mult := 1; mult <= jacobiMaxMult; mult *= 2 {
			tile := JacobiBaseTile * mult
			cfg := jacobi.Config{PX: px, PY: py, NX: tile, NY: tile, Iters: JacobiIters}
			for _, name := range []string{"traditional", "partitioned"} {
				v := jacobiVariant(name)
				cs = append(cs, payloadCase{ft.fig + "/mult=" + itoa(mult) + "/" + name, ft.topo, func(w *mpi.World) runner.Metrics {
					return jacobiMetrics(w, cfg, v)
				}})
			}
		}
	}
	return cs
}

// partitionedOnWith binds partitionedOn to one mechanism.
func partitionedOnWith(mech core.Mechanism) func(w *mpi.World, cfg P2PConfig) sim.Duration {
	return func(w *mpi.World, cfg P2PConfig) sim.Duration { return partitionedOn(w, cfg, mech) }
}

// TestTimingOnlyMatchesFullPayload is the gate on timing-only payload mode:
// for every variant of the timing-only families, a full-payload world and a
// timing-only world must report identical metrics and run identical
// schedules (per-kernel dispatch and elision counts). A difference would
// mean some virtual time depends on buffer contents. For the Jacobi points
// the identical metrics include the checksum: the full-payload run sums
// rank 0's computed tile, the timing-only one takes jacobi.ConeChecksum.
func TestTimingOnlyMatchesFullPayload(t *testing.T) {
	for _, c := range payloadCases() {
		var ms [2]runner.Metrics
		var dispatched, elided [2]int64
		for i, timingOnly := range []bool{false, true} {
			w := measureWorld(c.topo, cluster.DefaultModel(), timingOnly)
			ms[i] = c.run(w)
			dispatched[i], elided[i] = w.K.Dispatched(), w.K.Elided()
		}
		if !ms[0].Equal(ms[1]) {
			t.Errorf("%s: full payload %v, timing-only %v", c.id, ms[0], ms[1])
		}
		if dispatched[0] != dispatched[1] || elided[0] != elided[1] {
			t.Errorf("%s: full payload %d dispatched + %d elided, timing-only %d + %d",
				c.id, dispatched[0], elided[0], dispatched[1], elided[1])
		}
	}
}

// TestTimingOnlyPointsLeaveBackingZero runs the timing-only catalog points
// concurrently and then checks that the shared length-only backing still
// holds only zeros. Every payload write a timing-only world fails to skip
// lands in that backing, so a missed gate shows up here as non-zero data —
// and under -race as a data race between the concurrent worlds.
func TestTimingOnlyPointsLeaveBackingZero(t *testing.T) {
	maxGrid := payloadGrids[len(payloadGrids)-1]
	// The p2p points run up to the catalog's grid cap: their buffers are
	// cheap, and Kernel Copy's per-block stores then span a 16 MiB buffer.
	const p2pMaxGrid = 2048
	// Grow the backing to the largest buffer first (a p2p point's
	// p2pMaxGrid*1024 elements), so every buffer below aliases this one
	// array.
	before := gpu.LengthOnly(p2pMaxGrid * 1024)
	var pts []runner.Point
	for _, j := range []Job{
		Fig4Job(p2pMaxGrid), Fig5Job(p2pMaxGrid),
		Fig6Job(maxGrid), Fig7Job(maxGrid), Fig10Job(maxGrid), Fig11Job(maxGrid),
		Fig8Job(jacobiMaxMult), Fig9Job(jacobiMaxMult),
	} {
		pts = append(pts, j.Points...)
	}
	for i, m := range runner.New(4).Run(pts) {
		if len(m) == 0 {
			t.Errorf("%s: no metrics", pts[i].ID)
		}
	}
	after := gpu.LengthOnly(p2pMaxGrid * 1024)
	if &after[0] != &before[0] {
		t.Fatal("the length-only backing was reallocated during the run")
	}
	for i, v := range after {
		if v != 0 {
			t.Fatalf("length-only backing written: element %d = %v", i, v)
		}
	}
}
