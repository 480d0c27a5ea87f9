// Jacobi example: the paper's first application kernel (Section VI-D1).
// A 2-D Poisson problem is decomposed 4x2 across eight GH200s on two
// simulated nodes; every iteration runs a 5-point stencil and exchanges
// halos. The traditional variant synchronizes the stream before MPI; the
// partitioned variant marks halo partitions ready from inside the stencil
// kernel, overlapping boundary communication with interior computation.
//
// Run with: go run ./examples/jacobi
package main

import (
	"fmt"
	"log"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/jacobi"
	"mpipart/internal/mpi"
)

func main() {
	topo := cluster.TwoNodeGH200()
	px, py := jacobi.Decompose(topo.TotalGPUs())
	cfg := jacobi.Config{PX: px, PY: py, NX: 128, NY: 128, Iters: 10}

	runVariant := func(name string, fn func(*mpi.Rank, jacobi.Config) jacobi.Stats) jacobi.Stats {
		st := bench.MeasureJacobi(topo, cfg, fn)
		fmt.Printf("%-12s %8.2f GFLOP/s  (%.3f ms for %d sweeps)\n",
			name, st.GFLOPs, st.Elapsed.Seconds()*1e3, cfg.Iters)
		return st
	}

	fmt.Printf("Jacobi %dx%d tiles of %dx%d on %d GPUs (%d nodes)\n",
		px, py, cfg.NX, cfg.NY, topo.TotalGPUs(), topo.Nodes)
	tr := runVariant("traditional", jacobi.Traditional)
	pa := runVariant("partitioned", jacobi.Partitioned)
	fmt.Printf("speedup      %8.3fx\n", pa.GFLOPs/tr.GFLOPs)

	if tr.Checksum() != pa.Checksum() {
		log.Fatalf("variants disagree: %v vs %v", tr.Checksum(), pa.Checksum())
	}
	fmt.Printf("verified: identical solutions (rank-0 tile checksum %.6f)\n", tr.Checksum())
}
