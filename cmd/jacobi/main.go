// Command jacobi runs the Jacobi solver application benchmark (Figs. 8/9):
// a 2-D Poisson problem decomposed across GPUs with halo exchange,
// comparing the traditional and partitioned communication variants.
//
// Usage:
//
//	jacobi -mult 8 -nodes 2 -iters 4
package main

import (
	"flag"
	"fmt"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/jacobi"
)

func main() {
	var (
		mult  = flag.Int("mult", 8, "problem multiplier (tile edge = 32*mult)")
		nodes = flag.Int("nodes", 1, "nodes (1 = four GH200 2x2, 2 = eight GH200 4x2)")
		iters = flag.Int("iters", bench.JacobiIters, "Jacobi sweeps")
	)
	flag.Parse()

	topo := cluster.OneNodeGH200()
	if *nodes == 2 {
		topo = cluster.TwoNodeGH200()
	}
	px, py := jacobi.Decompose(topo.TotalGPUs())
	tile := bench.JacobiBaseTile * *mult
	cfg := jacobi.Config{PX: px, PY: py, NX: tile, NY: tile, Iters: *iters}

	tr := bench.MeasureJacobi(topo, cfg, jacobi.Traditional)
	pa := bench.MeasureJacobi(topo, cfg, jacobi.Partitioned)
	fmt.Printf("jacobi %dx%d tiles of %dx%d, %d iterations\n", px, py, tile, tile, *iters)
	fmt.Printf("traditional : %10.3f GFLOP/s  (%.3f ms, checksum %.6f)\n",
		tr.GFLOPs, tr.Elapsed.Seconds()*1e3, tr.Checksum())
	fmt.Printf("partitioned : %10.3f GFLOP/s  (%.3f ms, checksum %.6f)  %.3fx\n",
		pa.GFLOPs, pa.Elapsed.Seconds()*1e3, pa.Checksum(), pa.GFLOPs/tr.GFLOPs)
	if tr.Checksum() != pa.Checksum() {
		fmt.Println("WARNING: variants disagree numerically")
	}
}
