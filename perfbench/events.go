package main

import (
	"context"
	"math/rand"
	"time"

	"mpipart/internal/bench"
	"mpipart/internal/runner"
	"mpipart/internal/sim"
)

// roundsPerWorker is how many timed rounds one events worker runs. The
// leaking allreduce points grow a worker's heap by about 30 MB a round, so
// this bounds a worker's RSS.
const roundsPerWorker = 8

// eventPoints returns the gate points outside the deep-learning figures:
// the dispatch-bound part of the gate, 56 points that all have a golden
// value.
func eventPoints() []runner.Point {
	var pts []runner.Point
	for _, p := range bench.GatePoints(nil) {
		if familyOf(p.ID) != "dl" {
			pts = append(pts, p)
		}
	}
	return pts
}

// runEvents runs the dispatch-bound gate points as a seeded stream of
// rounds, each a fresh permutation through a fresh runner so that nothing
// is memoized, in workers of roundsPerWorker rounds. A worker's set-up is
// starting, generating the points and one untimed round.
func runEvents(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	t := e.newTracing()
	seeds := rand.New(rand.NewSource(e.seed))
	var setups, walls, rates, rps, rss, tracedWalls []float64
	lats := latencies{}
	p := e.plan(minLatencies)
	for {
		more, traced := p.next(lats.count())
		if !more {
			break
		}
		r, err := e.spawn(ctx, seeds.Int63(), traced, "-worker", "rounds")
		if err != nil {
			return nil, err
		}
		o.absorb(r)
		if len(r.Walls) < roundsPerWorker {
			break // the runner panicked
		}
		if traced {
			if err := t.absorb(r); err != nil {
				return nil, err
			}
			tracedWalls = append(tracedWalls, r.Walls...)
			continue
		}
		setups = append(setups, r.Setup)
		for i, w := range r.Walls {
			walls = append(walls, w)
			rates = append(rates, float64(r.Events[i])/w)
			rps = append(rps, float64(r.Points)/w)
		}
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
		overhead(o.layer, walls, tracedWalls)
		if err := t.finish(e, "events", o.layer, len(tracedWalls)); err != nil {
			return nil, err
		}
	}
	return o, nil
}

// roundsWorker sets up, runs one untimed round and then roundsPerWorker
// timed ones.
func roundsWorker(e *env) (*report, error) {
	o, m, t := newOutcome(), newMeter(), e.newTracing()
	r := &report{}
	rng := rand.New(rand.NewSource(e.seed))
	pts := eventPoints()
	if _, _, ok := eventRound(e, o, rng, m, pts, nil); !ok {
		return o.toReport(r, m, t)
	}
	clear(m.lat)

	if err := t.resume(); err != nil {
		return nil, err
	}
	r.TimedAt = time.Now().UnixNano()
	for i := 0; i < roundsPerWorker; i++ {
		wall, events, ok := eventRound(e, o, rng, m, pts, t.spans())
		if !ok {
			break
		}
		r.Walls = append(r.Walls, wall.Seconds())
		r.Events = append(r.Events, events)
	}
	if err := t.pause(); err != nil {
		return nil, err
	}
	r.Points = len(pts)
	return o.toReport(r, m, t)
}

// eventRound runs pts once, in a seeded order, through a fresh runner, and
// checks every result against the golden; tr is nil for an untraced round.
// It returns the round's wall time and simulated events, and false if the
// runner panicked.
func eventRound(e *env, o *outcome, rng *rand.Rand, m *meter, pts []runner.Point, tr *tracer) (time.Duration, int64, bool) {
	shuffled := make([]runner.Point, len(pts))
	for i, k := range rng.Perm(len(pts)) {
		shuffled[i] = pts[k]
	}
	m.tr = tr
	wrapped := m.wrap(shuffled)
	r := runner.New(1)

	d0, el0 := sim.TotalDispatched(), sim.TotalElided()
	t0 := time.Now()
	ms, err := runPoints(r, wrapped, tr)
	wall := time.Since(t0)
	dispatched, elided := sim.TotalDispatched()-d0, sim.TotalElided()-el0

	o.attempted += len(pts)
	if err != nil {
		o.fail("runner: %v", err)
		return wall, 0, false
	}
	for i, p := range shuffled {
		e.checkPoint(o, p.ID, ms[i])
	}
	o.passCounts(map[string]int64{
		"sim.dispatches":  dispatched,
		"sim.elided":      elided,
		"runner.computed": int64(r.CacheStats().Computed),
	})
	return wall, dispatched + elided, true
}
