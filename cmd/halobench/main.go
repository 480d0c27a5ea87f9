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
	fs := flag.NewFlagSet("halobench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		nodes   = fs.Int("nodes", 1, "nodes (1 = four GH200 2x2, 2 = eight GH200 4x2)")
		max     = fs.Int("max", 1<<16, "largest halo size in elements (8 B each)")
		workers = fs.Int("workers", 0, "parallel sweep workers; 0 = GOMAXPROCS")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	var topo cluster.Topology
	switch *nodes {
	case 1:
		topo = cluster.OneNodeGH200()
	case 2:
		topo = cluster.TwoNodeGH200()
	default:
		fmt.Fprintf(stderr, "halobench: -nodes %d: want 1 or 2\n", *nodes)
		fs.Usage()
		return 2
	}
	job := bench.HaloJob(topo, *max)
	if len(job.Points) == 0 {
		fmt.Fprintf(stderr, "halobench: -max %d is below the smallest halo size\n", *max)
		fs.Usage()
		return 2
	}
	bench.RunJob(runner.New(*workers), job).Fprint(stdout)
	return 0
}
