// Repo-level integration tests: cross-package properties that only hold if
// the whole stack — sim kernel, fabric, GPU, UCX, MPI, partitioned core,
// collectives, applications — composes correctly.
package mpipart_test

import (
	"bytes"
	"math"
	"testing"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/coll"
	"mpipart/internal/core"
	"mpipart/internal/dl"
	"mpipart/internal/gpu"
	"mpipart/internal/jacobi"
	"mpipart/internal/mpi"
	"mpipart/internal/nccl"
	"mpipart/internal/predict"
	"mpipart/internal/runner"
	"mpipart/internal/sim"
)

// TestWholeStackDeterminism renders several figure tables twice and
// requires byte-identical output — the property every number in
// EXPERIMENTS.md relies on. Each pass gets a fresh runner, so the second
// simulates everything again instead of replaying the first from memory.
func TestWholeStackDeterminism(t *testing.T) {
	osu, err := bench.OSUJob("latency", cluster.OneNodeGH200(), 1, 256)
	if err != nil {
		t.Fatal(err)
	}
	render := func() string {
		r := runner.New(0)
		var buf bytes.Buffer
		for _, j := range []bench.Job{
			bench.Fig3Job(),
			bench.Fig4Job(16),
			bench.TableIJob(),
			osu,
		} {
			bench.RunJob(r, j).Fprint(&buf)
		}
		return buf.String()
	}
	if render() != render() {
		t.Fatal("figure output is not deterministic")
	}
}

// TestPaperHeadlineClaims asserts the reproduction's summary table (README
// "Reproduction status") in one place.
func TestPaperHeadlineClaims(t *testing.T) {
	m := cluster.DefaultModel()

	// Fig. 2: 7.8 µs sync, ~72% share for small kernels.
	if m.StreamSyncCost != sim.Microseconds(7.8) {
		t.Error("sync cost drifted from the paper's 7.8us")
	}

	// Fig. 4/5 orderings at a mid-size grid.
	intra := bench.P2PConfig{Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: 64, Parts: 1}
	tr := bench.MeasureTraditional(intra)
	pe := bench.MeasurePartitioned(intra, core.ProgressionEngine)
	kc := bench.MeasurePartitioned(intra, core.KernelCopy)
	if !(kc < pe && pe < tr) {
		t.Errorf("intra-node ordering violated: kc=%v pe=%v tr=%v", kc, pe, tr)
	}

	inter := bench.P2PConfig{Topo: cluster.TwoNodeGH200(), Receiver: 4, Grid: 1, Parts: 1}
	sTr := bench.MeasureTraditional(inter)
	sPe := bench.MeasurePartitioned(inter, core.ProgressionEngine)
	if r := float64(sTr) / float64(sPe); r < 2.2 || r > 3.4 {
		t.Errorf("inter-node one-grid speedup = %.2f, paper 2.80", r)
	}

	// Fig. 6 ordering at 256 grids.
	cfg := bench.AllreduceConfig{Topo: cluster.OneNodeGH200(), Grid: 256, UserParts: 4}
	mpiT := bench.MeasureMPIAllreduce(cfg)
	part := bench.MeasurePartitionedAllreduce(cfg)
	nccl := bench.MeasureNCCLAllreduce(cfg)
	if !(nccl < part && part < mpiT) {
		t.Errorf("allreduce ordering violated: nccl=%v part=%v mpi=%v", nccl, part, mpiT)
	}
}

// TestEndToEndApplicationAgreement runs both applications through every
// variant and checks the numerical results agree — the full stack moving
// real data correctly under three different communication regimes.
func TestEndToEndApplicationAgreement(t *testing.T) {
	jcfg := jacobi.Config{PX: 2, PY: 2, NX: 24, NY: 24, Iters: 5}
	jt := bench.MeasureJacobi(cluster.OneNodeGH200(), jcfg, jacobi.Traditional)
	jp := bench.MeasureJacobi(cluster.OneNodeGH200(), jcfg, jacobi.Partitioned)
	if jt.Checksum() != jp.Checksum() {
		t.Errorf("jacobi variants disagree: %v vs %v", jt.Checksum(), jp.Checksum())
	}

	dcfg := dl.Config{Params: 2048, Steps: 3, BlockSize: 256, UserParts: 2}
	dm := bench.MeasureDL(cluster.OneNodeGH200(), dcfg, func(r *mpi.Rank, _ *nccl.Comm, c dl.Config) dl.Stats {
		return dl.MPIAllreduce(r, c)
	})
	dp := bench.MeasureDL(cluster.OneNodeGH200(), dcfg, func(r *mpi.Rank, _ *nccl.Comm, c dl.Config) dl.Stats {
		return dl.PartitionedAllreduce(r, c)
	})
	dn := bench.MeasureDL(cluster.OneNodeGH200(), dcfg, dl.NCCLAllreduce)
	// MeasureDL must run full payload: a timing-only world reports NaN
	// sums, and all-zero weights would agree vacuously.
	for _, s := range []float64{dm.WeightSum, dp.WeightSum, dn.WeightSum} {
		if math.IsNaN(s) || math.IsInf(s, 0) || s == 0 {
			t.Fatalf("dl weight sums %v, %v, %v: want finite and non-zero (is MeasureDL timing-only?)",
				dm.WeightSum, dp.WeightSum, dn.WeightSum)
		}
	}
	const eps = 1e-7
	if d := dm.WeightSum - dp.WeightSum; d > eps || d < -eps {
		t.Errorf("dl mpi vs partitioned disagree: %v vs %v", dm.WeightSum, dp.WeightSum)
	}
	if d := dm.WeightSum - dn.WeightSum; d > eps || d < -eps {
		t.Errorf("dl mpi vs nccl disagree: %v vs %v", dm.WeightSum, dn.WeightSum)
	}
}

// TestAnalyticModelTracksSimulationAcrossSizes sweeps sizes and requires
// the closed-form predictions to track the simulation within 30% at every
// point — the validation loop between internal/predict and the simulator.
func TestAnalyticModelTracksSimulationAcrossSizes(t *testing.T) {
	m := cluster.DefaultModel()
	for _, grid := range []int{2, 32, 512} {
		cfg := bench.P2PConfig{Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: grid, Parts: 1}
		simT := bench.MeasurePartitioned(cfg, core.ProgressionEngine)
		pred := predict.PartitionedPE(&m, grid, 1024, int64(grid)*8192, predict.NVLink(&m), 1)
		if e := predict.RelErr(simT, pred); e > 0.30 {
			t.Errorf("grid %d: sim %v vs pred %v (err %.2f)", grid, simT, pred, e)
		}
	}
}

// TestDeviceInitiatedStackTrace runs a traced GPU-initiated transfer and
// checks the trace contains the expected actors.
func TestDeviceInitiatedStackTrace(t *testing.T) {
	w := mpi.NewWorld(cluster.OneNodeGH200(), cluster.DefaultModel(), 1)
	tr := sim.NewTracer()
	w.K.SetTracer(tr)
	buf := make([]float64, 2048)
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		switch r.ID {
		case 0:
			sreq := core.PsendInit(p, r, 1, 1, buf, 1)
			sreq.Start(p)
			sreq.PbufPrepare(p)
			preq, err := core.PrequestCreate(p, sreq, core.PrequestOpts{
				Mech: core.ProgressionEngine, BlocksPerTransport: 2,
			})
			if err != nil {
				t.Error(err)
				return
			}
			r.Stream.Launch(gpu.KernelSpec{
				Name: "traced", Grid: 2, Block: 1024,
				Body: func(b *gpu.BlockCtx) { preq.PreadyBlockAggregated(b, 0) },
			})
			sreq.Wait(p)
		case 1:
			rreq := core.PrecvInit(p, r, 0, 1, make([]float64, 2048), 1)
			rreq.Start(p)
			rreq.PbufPrepare(p)
			rreq.Wait(p)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	tracks := map[string]bool{}
	names := map[string]bool{}
	for _, e := range tr.Events() {
		tracks[e.Track] = true
		names[e.Name] = true
	}
	if !tracks["gpu0/default"] {
		t.Error("missing GPU stream track")
	}
	if !names["traced"] {
		t.Error("missing kernel span")
	}
	found := false
	for n := range names {
		if len(n) >= 7 && n[:7] == "put_nbx" {
			found = true
		}
	}
	if !found {
		t.Error("missing put_nbx instant")
	}
}

// TestCollectivesShareOneEngine runs two different collectives back to
// back on the same world (persistent channels, shared progression
// engines) — the multi-collective composition an application would use.
func TestCollectivesShareOneEngine(t *testing.T) {
	w := mpi.NewWorld(cluster.OneNodeGH200(), cluster.DefaultModel(), 1)
	P := w.Size()
	sums := make([]float64, P)
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		a := r.Dev.Alloc(16)
		b := r.Dev.Alloc(16)
		for i := range a {
			a[i] = float64(r.ID + 1)
			b[i] = float64(10 * (r.ID + 1))
		}
		ar := coll.PallreduceInit(p, r, a, 2, mpi.OpSum)
		sc := coll.PscanInit(p, r, b, 1, mpi.OpSum)
		for _, req := range []*coll.Request{ar, sc} {
			req.Start(p)
			req.PbufPrepare(p)
			for u := 0; u < req.UserPartitions(); u++ {
				req.Pready(p, u)
			}
			req.Wait(p)
		}
		sums[r.ID] = a[0] + b[0]
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for rk := 0; rk < P; rk++ {
		wantA := 10.0 // 1+2+3+4
		wantB := 0.0
		for s := 0; s <= rk; s++ {
			wantB += float64(10 * (s + 1))
		}
		if sums[rk] != wantA+wantB {
			t.Fatalf("rank %d = %v, want %v", rk, sums[rk], wantA+wantB)
		}
	}
}
