// Command halobench runs the halo-exchange micro-benchmark (after the
// partitioned benchmark suite of Temuçin et al., the paper's reference
// [16]): per-iteration time of a 2-D four-neighbour halo exchange,
// traditional vs partitioned, across halo sizes. The size sweep executes
// through the parallel sweep runner.
//
// Usage:
//
//	halobench -nodes 2 -max 65536 [-workers N]
package main

import (
	"flag"
	"os"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/runner"
)

func main() {
	var (
		nodes   = flag.Int("nodes", 1, "nodes (1 = four GH200 2x2, 2 = eight GH200 4x2)")
		max     = flag.Int("max", 1<<16, "largest halo size in elements (8 B each)")
		workers = flag.Int("workers", 0, "parallel sweep workers; 0 = GOMAXPROCS")
	)
	flag.Parse()
	topo := cluster.OneNodeGH200()
	if *nodes == 2 {
		topo = cluster.TwoNodeGH200()
	}
	bench.RunJob(runner.New(*workers), bench.HaloJob(topo, *max)).Fprint(os.Stdout)
}
