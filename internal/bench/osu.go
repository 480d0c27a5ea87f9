package bench

import (
	"fmt"

	"mpipart/internal/cluster"
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/runner"
	"mpipart/internal/sim"
)

// OSU-style micro-benchmarks for the simulated MPI layer (osu_latency /
// osu_bw / osu_bibw equivalents, plus a partitioned-channel latency). They
// validate the substrate the partitioned library sits on and give the
// familiar MPI-benchmark view of the simulated fabric.

// Pingpong measures half round-trip latency between two ranks for a
// message of n elements, averaged over iters exchanges.
func Pingpong(topo cluster.Topology, peer, n, iters int) sim.Duration {
	var total sim.Duration
	w := mpi.NewWorld(topo, cluster.DefaultModel(), 1)
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(n)
		switch r.ID {
		case 0:
			r.Barrier(p)
			t0 := p.Now()
			for i := 0; i < iters; i++ {
				r.Send(p, peer, 1, buf)
				r.Recv(p, peer, 2, buf)
			}
			total = sim.Duration(p.Now()-t0) / sim.Duration(2*iters)
		case peer:
			r.Barrier(p)
			for i := 0; i < iters; i++ {
				r.Recv(p, 0, 1, buf)
				r.Send(p, 0, 2, buf)
			}
		default:
			r.Barrier(p)
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return total
}

// Bandwidth measures uni-directional goodput (GB/s) with a window of
// window outstanding non-blocking sends per handshake, as osu_bw does.
func Bandwidth(topo cluster.Topology, peer, n, window, iters int) float64 {
	var elapsed sim.Duration
	w := mpi.NewWorld(topo, cluster.DefaultModel(), 1)
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		bufs := make([][]float64, window)
		for i := range bufs {
			bufs[i] = r.Dev.Alloc(n)
		}
		ack := r.Dev.Alloc(1)
		switch r.ID {
		case 0:
			r.Barrier(p)
			t0 := p.Now()
			for it := 0; it < iters; it++ {
				ops := make([]*mpi.Op, window)
				for i := 0; i < window; i++ {
					ops[i] = r.Isend(p, peer, 100+i, bufs[i])
				}
				for _, op := range ops {
					op.Wait(p)
				}
				r.Recv(p, peer, 99, ack)
			}
			elapsed = sim.Duration(p.Now() - t0)
		case peer:
			r.Barrier(p)
			for it := 0; it < iters; it++ {
				ops := make([]*mpi.Op, window)
				for i := 0; i < window; i++ {
					ops[i] = r.Irecv(p, 0, 100+i, bufs[i])
				}
				for _, op := range ops {
					op.Wait(p)
				}
				r.Send(p, 0, 99, ack)
			}
		default:
			r.Barrier(p)
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	bytes := float64(8*n) * float64(window) * float64(iters)
	return bytes / elapsed.Seconds() / 1e9
}

// BiBandwidth measures the sum of goodput in both directions concurrently
// (osu_bibw).
func BiBandwidth(topo cluster.Topology, peer, n, window, iters int) float64 {
	var elapsed sim.Duration
	w := mpi.NewWorld(topo, cluster.DefaultModel(), 1)
	run := func(r *mpi.Rank, other int) {
		p := r.Proc()
		sbufs := make([][]float64, window)
		rbufs := make([][]float64, window)
		for i := range sbufs {
			sbufs[i] = r.Dev.Alloc(n)
			rbufs[i] = r.Dev.Alloc(n)
		}
		r.Barrier(p)
		t0 := p.Now()
		for it := 0; it < iters; it++ {
			ops := make([]*mpi.Op, 0, 2*window)
			for i := 0; i < window; i++ {
				ops = append(ops, r.Irecv(p, other, 200+i, rbufs[i]))
			}
			for i := 0; i < window; i++ {
				ops = append(ops, r.Isend(p, other, 200+i, sbufs[i]))
			}
			for _, op := range ops {
				op.Wait(p)
			}
			r.Barrier(p)
		}
		if r.ID == 0 {
			elapsed = sim.Duration(p.Now() - t0)
		}
	}
	w.Spawn(func(r *mpi.Rank) {
		switch r.ID {
		case 0:
			run(r, peer)
		case peer:
			run(r, 0)
		default:
			p := r.Proc()
			r.Barrier(p)
			for it := 0; it < iters; it++ {
				r.Barrier(p)
			}
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	bytes := 2 * float64(8*n) * float64(window) * float64(iters)
	return bytes / elapsed.Seconds() / 1e9
}

// PartitionedLatency measures the steady-state epoch latency of a
// partitioned channel with host-side Pready (channel setup excluded), the
// partitioned analogue of osu_latency.
func PartitionedLatency(topo cluster.Topology, peer, n, parts, iters int) sim.Duration {
	var total sim.Duration
	w := mpi.NewWorld(topo, cluster.DefaultModel(), 1)
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(n)
		switch r.ID {
		case 0:
			sreq := core.PsendInit(p, r, peer, 5, buf, parts)
			// Warm the channel.
			sreq.Start(p)
			sreq.PbufPrepare(p)
			for i := 0; i < parts; i++ {
				sreq.Pready(p, i)
			}
			sreq.Wait(p)
			r.Barrier(p)
			t0 := p.Now()
			for it := 0; it < iters; it++ {
				sreq.Start(p)
				sreq.PbufPrepare(p)
				for i := 0; i < parts; i++ {
					sreq.Pready(p, i)
				}
				sreq.Wait(p)
			}
			total = sim.Duration(p.Now()-t0) / sim.Duration(iters)
		case peer:
			rreq := core.PrecvInit(p, r, 0, 5, buf, parts)
			rreq.Start(p)
			rreq.PbufPrepare(p)
			rreq.Wait(p)
			r.Barrier(p)
			for it := 0; it < iters; it++ {
				rreq.Start(p)
				rreq.PbufPrepare(p)
				rreq.Wait(p)
			}
		default:
			r.Barrier(p)
		}
	})
	if err := w.Run(); err != nil {
		panic(err)
	}
	return total
}

// osuKinds is the one list of OSU kinds: per kind, its table columns,
// whether metric "value" is virtual nanoseconds (printed as µs) rather than
// a rate, the smallest size swept, and the measurement at n elements.
var osuKinds = map[string]struct {
	cols     []string
	nsValue  bool
	minElems int
	measure  func(topo cluster.Topology, peer, n int) float64
}{
	"latency": {[]string{"bytes", "latency_us"}, true, 1, func(topo cluster.Topology, peer, n int) float64 {
		return float64(Pingpong(topo, peer, n, 10))
	}},
	"bw": {[]string{"bytes", "GBps"}, false, 1, func(topo cluster.Topology, peer, n int) float64 {
		return Bandwidth(topo, peer, n, 16, 4)
	}},
	"bibw": {[]string{"bytes", "GBps"}, false, 1, func(topo cluster.Topology, peer, n int) float64 {
		return BiBandwidth(topo, peer, n, 16, 4)
	}},
	"platency": {[]string{"bytes", "epoch_us"}, true, 4, func(topo cluster.Topology, peer, n int) float64 {
		return float64(PartitionedLatency(topo, peer, n, 4, 10))
	}},
}

// OSUPoint declares one OSU measurement of the given kind at message size
// n (elements). Metric "value" carries the kind's natural unit: virtual
// nanoseconds for latency/platency, GB/s for bw/bibw. An unknown kind
// panics; OSUJob is the checked entry point.
func OSUPoint(id, kind string, topo cluster.Topology, peer, n int) runner.Point {
	k, ok := osuKinds[kind]
	if !ok {
		panic("bench: unknown OSU kind " + kind)
	}
	key := runner.KeyOf("osu/"+kind, topo, cluster.DefaultModel(), peer, n)
	return runner.Point{ID: id, Key: key, Run: func() runner.Metrics {
		return runner.Metrics{"value": k.measure(topo, peer, n)}
	}}
}

// OSUJob declares the classic size sweep for one metric, or reports an
// unknown kind.
func OSUJob(kind string, topo cluster.Topology, peer, maxElems int) (Job, error) {
	k, ok := osuKinds[kind]
	if !ok {
		return Job{}, fmt.Errorf("unknown OSU kind %q", kind)
	}
	var points []runner.Point
	var sizes []int
	for n := k.minElems; n <= maxElems; n *= 4 {
		sizes = append(sizes, n)
		points = append(points, OSUPoint(fmt.Sprintf("osu_%s/n=%d", kind, n), kind, topo, peer, n))
	}
	return Job{
		Name:   "osu_" + kind,
		Points: points,
		Build: func(ms []runner.Metrics) *Table {
			tb := &Table{Title: "osu_" + kind, Columns: k.cols}
			for i, n := range sizes {
				v := ms[i]["value"]
				if k.nsValue {
					v /= 1000
				}
				tb.AddRow(8*n, v)
			}
			return tb
		},
	}, nil
}
