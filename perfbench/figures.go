package main

import (
	"context"
	"io"
	"math/rand"
	"os"
	"time"

	"mpipart/internal/bench"
	"mpipart/internal/runner"
	"mpipart/internal/runner/store"
	"mpipart/internal/sim"
)

// catalogJobs is cmd/figures -all at its default caps, the jobs sweepd
// serves besides the gate: 196 distinct points.
func catalogJobs() []bench.Job {
	return []bench.Job{
		bench.Fig2Job(131072), bench.Fig3Job(),
		bench.Fig4Job(2048), bench.Fig5Job(2048),
		bench.Fig6Job(2048), bench.Fig7Job(2048),
		bench.Fig8Job(32), bench.Fig9Job(32),
		bench.Fig10Job(2048), bench.Fig11Job(2048),
		bench.TableIJob(),
	}
}

// minLatencies is how many latencies an untraced run collects at least, so
// that its p99 has ten samples beyond it.
const minLatencies = 1000

// runFiguresCold computes the whole figures catalog sweep after sweep,
// each in a fresh worker process on an empty DiskStore, through the runner
// path cmd/figures -all -store takes. The seed permutes the submission
// order of every sweep.
func runFiguresCold(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	t := e.newTracing()
	seeds := rand.New(rand.NewSource(e.seed))
	var setups, walls, rates, rps, rss, tracedWalls []float64
	lats := latencies{}
	var storeStats store.Stats
	p := e.plan(minLatencies)
	for {
		more, traced := p.next(lats.count())
		if !more {
			break
		}
		r, err := e.spawn(ctx, seeds.Int63(), traced, "-worker", "sweep", "-catalog", "figures")
		if err != nil {
			return nil, err
		}
		o.absorb(r)
		if len(r.Walls) == 0 {
			break // the runner panicked
		}
		if traced {
			if err := t.absorb(r); err != nil {
				return nil, err
			}
			tracedWalls = append(tracedWalls, r.Walls...)
			storeStats.SaveErrors += r.Store.SaveErrors
			storeStats.Corrupt += r.Store.Corrupt
			continue
		}
		setups = append(setups, r.Setup)
		walls = append(walls, r.Walls[0])
		rates = append(rates, float64(r.Events[0])/r.Walls[0])
		rps = append(rps, float64(r.Points)/r.Walls[0])
		rss = append(rss, r.RSSMB)
		lats.add(r.Lat)
	}

	o.e2e.set("setup_s", median(setups), "s")
	o.e2e.set("sweep_s", median(walls), "s")
	o.e2e.set("events_per_s", median(rates), "1/s")
	o.e2e.set("req_p50_ms", lats.p50(), "ms")
	o.e2e.set("req_p99_ms", lats.p99(), "ms")
	o.e2e.set("throughput_rps", median(rps), "1/s")
	o.e2e.set("rss_peak_mb", median(rss), "MB")
	if t != nil && len(tracedWalls) > 0 {
		passLayers(o.layer, t.tr.spans, o.counts, len(tracedWalls))
		o.layer.set("store.save_errors", float64(storeStats.SaveErrors), "count")
		o.layer.set("store.corrupt", float64(storeStats.Corrupt), "count")
		overhead(o.layer, walls, tracedWalls)
		if err := t.finish(e, "figures_cold", o.layer, len(tracedWalls)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// sweepWorker sets up and runs one sweep through a one-worker runner on a
// DiskStore. With the figures catalog the points go in seeded order to an
// empty store and every table is assembled and rendered, as cmd/figures
// does; with sweepd's catalog they go in ID order to the store the parent
// names, which then serves the daemon. Results are checked against the
// golden.
func sweepWorker(e *env, w workerOpts) (*report, error) {
	o, m, t := newOutcome(), newMeter(), e.newTracing()
	r := &report{}
	var pts []runner.Point
	var render func([]runner.Metrics)
	switch w.catalog {
	case "figures":
		jobs := catalogJobs()
		var inOrder []runner.Point
		for _, j := range jobs {
			inOrder = append(inOrder, j.Points...)
		}
		order := rand.New(rand.NewSource(e.seed)).Perm(len(inOrder))
		pts = make([]runner.Point, len(inOrder))
		for i, k := range order {
			pts[i] = inOrder[k]
		}
		render = func(ms []runner.Metrics) {
			byJob := make([]runner.Metrics, len(ms))
			for i, k := range order {
				byJob[k] = ms[i]
			}
			off := 0
			for _, j := range jobs {
				j.Build(byJob[off : off+len(j.Points)]).Fprint(io.Discard)
				off += len(j.Points)
			}
		}
	case "sweepd":
		var err error
		if pts, err = catalogPoints(); err != nil {
			return nil, err
		}
		r.Ref, r.PointEvents = map[string]runner.Metrics{}, m.events
	}
	dir := w.store
	if dir == "" {
		var err error
		if dir, err = os.MkdirTemp(e.tmp, "store-"); err != nil {
			return nil, err
		}
		defer os.RemoveAll(dir)
	}
	ds, err := store.Open(dir)
	if err != nil {
		return nil, err
	}
	tr := t.spans()
	rn := runner.NewWithStore(1, storeFor(ds, tr))
	m.tr = tr
	wrapped := m.wrap(pts)

	if err := t.resume(); err != nil {
		return nil, err
	}
	d0, el0 := sim.TotalDispatched(), sim.TotalElided()
	t1 := time.Now()
	r.TimedAt = t1.UnixNano()
	ms, runErr := runPoints(rn, wrapped, tr)
	if runErr == nil && render != nil {
		render(ms)
	}
	wall := time.Since(t1)
	dispatched, elided := sim.TotalDispatched()-d0, sim.TotalElided()-el0
	if err := t.pause(); err != nil {
		return nil, err
	}

	o.attempted += len(pts)
	if runErr != nil {
		o.fail("runner: %v", runErr)
		return o.toReport(r, m, t)
	}
	for i, p := range pts {
		e.checkPoint(o, p.ID, ms[i])
		if r.Ref != nil {
			r.Ref[p.ID] = ms[i]
		}
	}
	r.Store = ds.Stats()
	cs := rn.CacheStats()
	o.passCounts(map[string]int64{
		"sim.dispatches":    dispatched,
		"sim.elided":        elided,
		"runner.computed":   int64(cs.Computed),
		"runner.mem_hits":   int64(cs.MemHits),
		"runner.store_hits": int64(cs.StoreHits),
		"store.saves":       int64(r.Store.Saves),
	})
	r.Walls, r.Events, r.Points = []float64{wall.Seconds()}, []int64{dispatched + elided}, len(pts)
	return o.toReport(r, m, t)
}
