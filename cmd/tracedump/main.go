// Command tracedump runs a GPU-initiated partitioned scenario with tracing
// enabled and writes a Chrome trace-event JSON file (open in Perfetto or
// chrome://tracing) showing kernels, stream synchronizations, host
// PbufPrepare spans, and UCX put activity on their virtual-time axes.
//
// Usage:
//
//	tracedump -o trace.json -grid 16 -scenario p2p|allreduce
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"mpipart/internal/cluster"
	"mpipart/internal/coll"
	"mpipart/internal/core"
	"mpipart/internal/gpu"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code:
// 0 success, 1 a run or I/O failure, 2 a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("tracedump", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		out      = fs.String("o", "trace.json", "output file")
		grid     = fs.Int("grid", 16, "kernel grid size")
		scenario = fs.String("scenario", "p2p", "p2p | allreduce")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	usage := ""
	switch {
	case *scenario != "p2p" && *scenario != "allreduce":
		usage = fmt.Sprintf("-scenario %q: want p2p or allreduce", *scenario)
	case *grid < 1:
		usage = fmt.Sprintf("-grid %d: want at least 1", *grid)
	case *scenario == "allreduce" && *grid%2 != 0:
		usage = fmt.Sprintf("-grid %d: the allreduce scenario splits the grid into two partitions, so it must be even", *grid)
	}
	if usage != "" {
		fmt.Fprintf(stderr, "tracedump: %s\n", usage)
		fs.Usage()
		return 2
	}

	w := mpi.NewWorld(cluster.OneNodeGH200(), cluster.DefaultModel(), 1)
	tr := sim.NewTracer()
	w.K.SetTracer(tr)
	if *scenario == "p2p" {
		runP2P(w, *grid)
	} else {
		runAllreduce(w, *grid)
	}
	if err := w.Run(); err != nil {
		fmt.Fprintf(stderr, "tracedump: %v\n", err)
		return 1
	}

	f, err := os.Create(*out)
	if err == nil {
		err = tr.WriteChromeTrace(f)
		if cerr := f.Close(); err == nil {
			err = cerr
		}
	}
	if err != nil {
		fmt.Fprintf(stderr, "tracedump: %v\n", err)
		return 1
	}
	fmt.Fprintf(stdout, "wrote %d trace events to %s (open in Perfetto / chrome://tracing)\n",
		tr.Len(), *out)
	return 0
}

func runP2P(w *mpi.World, grid int) {
	n := grid * 1024
	buf := make([]float64, n)
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		switch r.ID {
		case 0:
			sreq := core.PsendInit(p, r, 1, 1, buf, 1)
			sreq.Start(p)
			sreq.PbufPrepare(p)
			preq, err := core.PrequestCreate(p, sreq, core.PrequestOpts{
				Mech: core.ProgressionEngine, BlocksPerTransport: grid,
			})
			if err != nil {
				panic(err) // surfaces from w.Run; the scenario never triggers it
			}
			r.Stream.Launch(gpu.KernelSpec{
				Name: "vecadd+pready", Grid: grid, Block: 1024,
				Body: func(b *gpu.BlockCtx) { preq.PreadyBlockAggregated(b, 0) },
			})
			sreq.Wait(p)
		case 1:
			rreq := core.PrecvInit(p, r, 0, 1, make([]float64, n), 1)
			rreq.Start(p)
			rreq.PbufPrepare(p)
			rreq.Wait(p)
		}
	})
}

func runAllreduce(w *mpi.World, grid int) {
	n := grid * 1024
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(n)
		req := coll.PallreduceInit(p, r, buf, 2, mpi.OpSum)
		req.Start(p)
		req.PbufPrepare(p)
		dev := req.DeviceHandle(p, grid/2)
		r.Stream.Launch(gpu.KernelSpec{
			Name: "grad+pready", Grid: grid, Block: 1024,
			Body: func(b *gpu.BlockCtx) {
				dev.PreadyBlockAggregated(b, b.Idx/(grid/2))
			},
		})
		req.Wait(p)
	})
}
