// Command partbench is a focused micro-benchmark for partitioned
// point-to-point communication: it compares the traditional
// kernel+sync+Send model with the Progression Engine and Kernel Copy
// GPU-initiated mechanisms at a single configuration. The independent
// worlds execute concurrently through the parallel sweep runner.
//
// Usage:
//
//	partbench -grid 1024 -parts 2 -inter [-workers N | -seq]
package main

import (
	"flag"
	"fmt"
	"os"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/core"
	"mpipart/internal/runner"
)

func main() {
	var (
		grid    = flag.Int("grid", 1024, "kernel grid size (1024 threads/block, 8 B per thread)")
		parts   = flag.Int("parts", 1, "transport partitions (blocks aggregate per partition)")
		inter   = flag.Bool("inter", false, "inter-node (InfiniBand) instead of intra-node (NVLink)")
		workers = flag.Int("workers", 0, "parallel sweep workers; 0 = GOMAXPROCS")
		seq     = flag.Bool("seq", false, "sequential execution (same as -workers 1)")
	)
	flag.Parse()
	if *seq {
		*workers = 1
	}

	cfg := bench.P2PConfig{Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: *grid, Parts: *parts}
	if *inter {
		cfg.Topo = cluster.TwoNodeGH200()
		cfg.Receiver = 4
	}
	if err := cfg.Validate(); err != nil {
		fmt.Fprintln(os.Stderr, "partbench:", err)
		os.Exit(2)
	}
	bytes := float64(*grid) * 1024 * 8

	points := []runner.Point{
		bench.TraditionalPoint("partbench/traditional", cfg),
		bench.PartitionedPoint("partbench/prog_engine", cfg, core.ProgressionEngine),
	}
	if !*inter {
		points = append(points, bench.PartitionedPoint("partbench/kernel_copy", cfg, core.KernelCopy))
	}
	ms := runner.New(*workers).Run(points)

	tr, pe := ms[0]["elapsed_ns"], ms[1]["elapsed_ns"]
	fmt.Printf("message size        : %.1f KiB (%d grids x 1024 threads x 8 B)\n", bytes/1024, *grid)
	fmt.Printf("traditional         : %10.3f us   %8.3f GB/s\n", tr/1000, bytes/(tr/1e9)/1e9)
	fmt.Printf("progression engine  : %10.3f us   %8.3f GB/s   (%.2fx)\n",
		pe/1000, bytes/(pe/1e9)/1e9, tr/pe)
	if !*inter {
		kc := ms[2]["elapsed_ns"]
		fmt.Printf("kernel copy         : %10.3f us   %8.3f GB/s   (%.2fx)\n",
			kc/1000, bytes/(kc/1e9)/1e9, tr/kc)
	} else {
		fmt.Println("kernel copy         : unavailable inter-node (no CUDA IPC mapping)")
	}
}
