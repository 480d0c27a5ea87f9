// Deep-learning example: data-parallel training with gradient allreduce
// (Section VI-D2). Four simulated GH200s each train a Binary Cross-Entropy
// model on their own data shard; every step the gradients are synchronized
// with one of three allreduce implementations:
//
//   - traditional MPI_Allreduce (host-staged — the slow baseline),
//   - the paper's partitioned allreduce (GPU-initiated, ring schedule),
//   - an NCCL-style fused ring (the vendor-library reference).
//
// All three produce identical models; the step times differ enormously.
//
// Run with: go run ./examples/deeplearning
package main

import (
	"fmt"
	"log"
	"math"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/dl"
	"mpipart/internal/mpi"
	"mpipart/internal/nccl"
)

func main() {
	topo := cluster.OneNodeGH200()
	cfg := dl.Config{Params: 256 * 1024, Steps: 4, UserParts: 4}

	type variant struct {
		name string
		run  func(r *mpi.Rank, comm *nccl.Comm, cfg dl.Config) dl.Stats
	}
	variants := []variant{
		{"MPI_Allreduce", func(r *mpi.Rank, _ *nccl.Comm, c dl.Config) dl.Stats { return dl.MPIAllreduce(r, c) }},
		{"partitioned", func(r *mpi.Rank, _ *nccl.Comm, c dl.Config) dl.Stats { return dl.PartitionedAllreduce(r, c) }},
		{"NCCL", dl.NCCLAllreduce},
	}

	fmt.Printf("BCE training: %.1f MiB gradients, %d GPUs, %d steps\n",
		float64(cfg.Params)*8/(1<<20), topo.TotalGPUs(), cfg.Steps)

	var sums []float64
	for _, v := range variants {
		st := bench.MeasureDL(topo, cfg, v.run)
		fmt.Printf("%-14s %12.3f us/step   final weight sum %.9f\n",
			v.name, st.StepTime.Micros(), st.WeightSum)
		sums = append(sums, st.WeightSum)
	}

	for i := 1; i < len(sums); i++ {
		if math.Abs(sums[i]-sums[0]) > 1e-6*(1+math.Abs(sums[0])) {
			log.Fatalf("models diverge: %v", sums)
		}
	}
	ref := dl.Reference(cfg, topo.TotalGPUs())
	refSum := 0.0
	for _, v := range ref {
		refSum += v
	}
	fmt.Printf("sequential reference weight sum: %.9f — all variants agree\n", refSum)
}
