package bench

import (
	"runtime"
	"testing"

	"mpipart/internal/runner"
)

// TestAllreducePointsReleaseGoroutines runs every Fig. 6/7 catalog point —
// MPI, partitioned and NCCL allreduce — on a sequential runner and requires
// the goroutine count to return to its baseline after each figure. Their
// worlds end with daemon bridge procs parked; a finished Run must release
// them, or a long-lived process (sweepd) leaks on every such point.
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
