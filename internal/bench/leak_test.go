package bench

import (
	"runtime"
	"testing"

	"mpipart/internal/cluster"
	"mpipart/internal/coll"
	"mpipart/internal/gpu"
	"mpipart/internal/mpi"
	"mpipart/internal/nccl"
	"mpipart/internal/runner"
)

// TestAllreducePointsReleaseGoroutines runs every Fig. 6/7 catalog point —
// MPI, partitioned and NCCL allreduce — on a sequential runner and requires
// the goroutine count to return to its baseline after each figure: a
// finished Run must release every coroutine its world created, or a
// long-lived process (sweepd) leaks on every such point.
func TestAllreducePointsReleaseGoroutines(t *testing.T) {
	for _, j := range []Job{Fig6Job(2048), Fig7Job(2048)} {
		before := runtime.NumGoroutine()
		runner.New(1).Run(j.Points)
		// Runner workers may still be exiting on another P; each GC stops
		// the world, so those threads get to run in between.
		after := runtime.NumGoroutine()
		for i := 0; i < 100 && after > before; i++ {
			runtime.GC()
			after = runtime.NumGoroutine()
		}
		if after > before {
			t.Errorf("%s: %d goroutines leaked over %d points", j.Name, after-before, len(j.Points))
		}
	}
}

// TestCollectivesRunOnRankProcsOnly pins that the service actors of the
// Fig. 6/7 allreduce worlds — progression engines, streams, the partitioned
// schedule walk and the fused NCCL ring — are Tasks that own no proc. On
// one node with 4 ranks, every rank reads exactly 4 live procs right after
// its collective completes, before any barrier; after the closing barrier
// the ranks exit one by one and the count falls 4, 3, 2, 1.
func TestCollectivesRunOnRankProcsOnly(t *testing.T) {
	const grid, up = 128, 4
	n := grid * 1024
	cases := []struct {
		name string
		// collective returns one rank's collective, run to completion.
		collective func(w *mpi.World) func(r *mpi.Rank)
	}{
		{"partitioned", func(w *mpi.World) func(r *mpi.Rank) {
			return func(r *mpi.Rank) {
				p := r.Proc()
				req := coll.PallreduceInit(p, r, r.Dev.Alloc(n), up, mpi.OpSum)
				req.Start(p)
				req.PbufPrepare(p)
				dev := req.DeviceHandle(p, grid/up)
				r.Stream.Launch(gpu.KernelSpec{
					Name: "vecadd+pready", Grid: grid, Block: 1024,
					Body: func(b *gpu.BlockCtx) { dev.PreadyBlockAggregated(b, b.Idx/(grid/up)) },
				})
				req.Wait(p)
			}
		}},
		{"nccl", func(w *mpi.World) func(r *mpi.Rank) {
			comm := nccl.NewComm(w)
			return func(r *mpi.Rank) {
				r.Stream.Launch(vecAddSpec(grid))
				comm.AllReduce(r, r.Stream, r.Dev.Alloc(n))
				r.Stream.Synchronize(r.Proc())
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			w := measureWorld(cluster.OneNodeGH200(), cluster.DefaultModel(), true)
			run := tc.collective(w)
			after := make([]int, w.Size())
			var exits []int
			w.Spawn(func(r *mpi.Rank) {
				run(r)
				after[r.ID] = w.K.LiveProcs()
				r.Barrier(r.Proc())
				exits = append(exits, w.K.LiveProcs())
			})
			if err := w.Run(); err != nil {
				t.Fatal(err)
			}
			for id, live := range after {
				if live != w.Size() {
					t.Errorf("rank %d: %d live procs after its collective, want %d (the rank procs)", id, live, w.Size())
				}
			}
			for i, live := range exits {
				if want := w.Size() - i; live != want {
					t.Errorf("exit %d: %d live procs, want %d", i, live, want)
				}
			}
		})
	}
}
