// Command osu runs OSU-microbenchmark-style measurements (latency,
// uni/bi-directional bandwidth, partitioned epoch latency) on the simulated
// GH200 fabric — the standard sanity view of an MPI substrate. The size
// sweep executes through the parallel sweep runner.
//
// Usage:
//
//	osu -kind latency|bw|bibw|platency -inter -max 65536 [-workers N]
package main

import (
	"flag"
	"fmt"
	"os"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/runner"
)

func main() {
	var (
		kind    = flag.String("kind", "latency", "latency | bw | bibw | platency")
		inter   = flag.Bool("inter", false, "inter-node instead of intra-node")
		max     = flag.Int("max", 1<<16, "largest message size in elements (8 B each)")
		workers = flag.Int("workers", 0, "parallel sweep workers; 0 = GOMAXPROCS")
	)
	flag.Parse()
	topo, peer := cluster.OneNodeGH200(), 1
	if *inter {
		topo, peer = cluster.TwoNodeGH200(), 4
	}
	defer func() {
		if r := recover(); r != nil {
			fmt.Fprintf(os.Stderr, "osu: %v\n", r)
			os.Exit(1)
		}
	}()
	bench.RunJob(runner.New(*workers), bench.OSUJob(*kind, topo, peer, *max)).Fprint(os.Stdout)
}
