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
	"io"
	"os"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/runner"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code:
// 0 success, 2 a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("osu", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		kind    = fs.String("kind", "latency", "latency | bw | bibw | platency")
		inter   = fs.Bool("inter", false, "inter-node instead of intra-node")
		max     = fs.Int("max", 1<<16, "largest message size in elements (8 B each)")
		workers = fs.Int("workers", 0, "parallel sweep workers; 0 = GOMAXPROCS")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	topo, peer := cluster.OneNodeGH200(), 1
	if *inter {
		topo, peer = cluster.TwoNodeGH200(), 4
	}
	job, err := bench.OSUJob(*kind, topo, peer, *max)
	if err == nil && len(job.Points) == 0 {
		err = fmt.Errorf("-max %d is below the smallest %s message size", *max, *kind)
	}
	if err != nil {
		fmt.Fprintf(stderr, "osu: %v\n", err)
		fs.Usage()
		return 2
	}
	bench.RunJob(runner.New(*workers), job).Fprint(stdout)
	return 0
}
