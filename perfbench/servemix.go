package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"math/rand"
	"net"
	"net/http"
	"os"
	"os/exec"
	"sort"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/runner"
	"mpipart/internal/serve"
	"mpipart/internal/sim"
)

const (
	// serveSetups is how many times a serve_mix run sets up; setup_s is
	// the median.
	serveSetups = 3
	// overrideShare is the share of batches that carry a cost-model
	// override.
	overrideShare = 0.03
	// minBatch and maxBatch bound a batch's point count.
	minBatch, maxBatch = 8, 32
	// catalogEvery is how many untraced batches go between two
	// whole-catalog requests, which time sweep_s. Spread over the mix, they
	// meet the same host conditions as the batches; about 400 fit in 20 s.
	catalogEvery = 128
	// requestTimeout bounds every request to the daemon, and healthTimeout
	// the wait for it to come up.
	requestTimeout = 10 * time.Second
	healthTimeout  = 20 * time.Second
)

// runServeMix drives a sweepd subprocess over loopback with one closed-loop
// connection: seeded POST /sweep batches of catalog IDs drawn with
// replacement, some under a cost-model override, against a store warmed in
// set-up. Whole-catalog requests, interleaved with the mix, time sweep_s.
func runServeMix(ctx context.Context, e *env) (*outcome, error) {
	o := newOutcome()
	t := e.newTracing()
	var (
		setups []float64
		d      *daemon
		warm   *report
	)
	defer func() {
		if d != nil {
			d.stop()
		}
	}()
	for i := 0; i < serveSetups; i++ {
		if d != nil {
			d.stop()
		}
		// In a traced run the last warm-up is traced: it measures the
		// in-process layers.
		traced := e.trace && i == serveSetups-1
		var setup time.Duration
		var err error
		d, warm, setup, err = serveSetup(ctx, e, o, traced)
		if err != nil || d == nil {
			return o, err
		}
		setups = append(setups, setup.Seconds())
		if traced {
			if err := t.tr.readFile(warm.Spans); err != nil {
				return nil, err
			}
		}
	}

	c := serve.NewClient(d.base)
	c.HTTP = &http.Client{
		Timeout:   requestTimeout,
		Transport: &http.Transport{MaxConnsPerHost: 1, MaxIdleConnsPerHost: 1},
	}
	defer c.HTTP.CloseIdleConnections()
	mx, err := newMix(e.seed)
	if err != nil {
		return nil, err
	}

	var (
		lats, tracedLats, overheads []float64
		fetches                     []float64 // whole-catalog requests, s
		computeMS, queueMS, loadUS  []float64
		results, coalesced, served  int64
		tracedBatches               int
		untracedWall, fetchWall     time.Duration
		before, after               serve.Snapshot
	)
	all := serve.Request{Points: serve.CatalogIDs()}
	p := e.plan(minLatencies)
	start := time.Now()
	for {
		more, traced := p.next(len(lats))
		if !more || o.failed > 100 {
			break
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if !traced && (p.untraced-1)%catalogEvery == 0 {
			t0 := time.Now()
			resp, err := c.Sweep(all)
			d := time.Since(t0)
			fetches, fetchWall = append(fetches, d.Seconds()), fetchWall+d
			o.attempted++
			if err != nil {
				o.fail("POST /sweep (catalog): %v", err)
			} else {
				checkBatch(e, o, all, resp, warm.Ref)
			}
		}
		if traced && tracedBatches == 0 {
			untracedWall = time.Since(start) - fetchWall
			if before, err = c.Metrics(); err != nil {
				return nil, err
			}
			if err := t.resume(); err != nil {
				return nil, err
			}
		}
		req := mx.next()
		t0 := time.Now()
		resp, err := c.Sweep(req)
		t1 := time.Now()
		lat := msOf(t1.Sub(t0))
		o.attempted++
		if err != nil {
			o.fail("POST /sweep: %v", err)
			continue
		}
		if !checkBatch(e, o, req, resp, warm.Ref) {
			continue
		}
		if !traced {
			lats = append(lats, lat)
			for _, pr := range resp.Results {
				served += warm.PointEvents[pr.Point]
			}
			continue
		}
		tracedBatches++
		tracedLats = append(tracedLats, lat)
		name := "sweepd.batch"
		if req.Model != nil {
			name = "sweepd.batch.override"
		}
		t.tr.add(span{Name: name}, t0, t1)
		var maxTotal float64
		for _, pr := range resp.Results {
			results++
			if pr.TotalUS > maxTotal {
				maxTotal = pr.TotalUS
			}
			switch pr.Source {
			case serve.SourceComputed:
				computeMS = append(computeMS, pr.ComputeUS/1e3)
				queueMS = append(queueMS, pr.QueueUS/1e3)
			case serve.SourceStore:
				loadUS = append(loadUS, pr.TotalUS)
			case serve.SourceCoalesced:
				coalesced++
			}
		}
		overheads = append(overheads, lat-maxTotal/1e3)
	}
	if untracedWall == 0 {
		untracedWall = time.Since(start) - fetchWall
	}
	if tracedBatches > 0 {
		if err := t.pause(); err != nil {
			return nil, err
		}
		if after, err = c.Metrics(); err != nil {
			return nil, err
		}
	}

	rss, err := peakRSSMB(strconv.Itoa(d.cmd.Process.Pid))
	if err != nil {
		return nil, err
	}

	o.e2e.set("setup_s", median(setups), "s")
	o.e2e.set("sweep_s", median(fetches), "s")
	o.e2e.set("events_per_s", float64(served)/untracedWall.Seconds(), "1/s")
	o.e2e.set("throughput_rps", float64(len(lats))/untracedWall.Seconds(), "1/s")
	o.e2e.set("req_p50_ms", median(lats), "ms")
	o.e2e.set("req_p99_ms", quantile(lats, 0.99), "ms")
	o.e2e.set("rss_peak_mb", rss, "MB")
	if tracedBatches == 0 {
		return o, nil
	}
	if before.Store == nil || after.Store == nil {
		return nil, errors.New("sweepd reports no store counters")
	}
	// The in-process layers were measured on the traced warm-up.
	passLayers(o.layer, t.tr.spans, o.counts, 1)
	st, st0 := after.Store, before.Store
	if n := st.Hits + st.Misses - st0.Hits - st0.Misses; n > 0 {
		o.layer.set("store.hit_ratio", float64(st.Hits-st0.Hits)/float64(n), "share")
	}
	o.layer.set("store.corrupt", float64(st.Corrupt-st0.Corrupt), "count")
	o.layer.set("store.save_errors", float64(st.SaveErrors-st0.SaveErrors), "count")
	o.layer.set("store.load_us_p50", median(loadUS), "us")
	o.layer.set("store.load_us_p99", quantile(loadUS, 0.99), "us")
	o.layer.set("serve.overhead_ms_p50", median(overheads), "ms")
	o.layer.set("serve.compute_ms_p50", median(computeMS), "ms")
	o.layer.set("serve.compute_ms_p99", quantile(computeMS, 0.99), "ms")
	o.layer.set("serve.queue_ms_p99", quantile(queueMS, 0.99), "ms")
	if results > 0 {
		o.layer.set("serve.coalesced_share", float64(coalesced)/float64(results), "share")
	}
	errs := after.Totals.Errors + after.Totals.Unknown - before.Totals.Errors - before.Totals.Unknown
	o.layer.set("serve.errors", float64(errs), "count")
	overhead(o.layer, lats, tracedLats)
	if err := t.finish(e, "serve_mix", o.layer, tracedBatches); err != nil {
		return nil, err
	}
	return o, nil
}

// serveSetup warms a fresh store with sweepd's whole catalog in a worker,
// through the runner path figures_cold takes, starts the daemon on it and
// fetches the catalog once through it. It returns a nil daemon if the
// warm-up failed its checks.
func serveSetup(ctx context.Context, e *env, o *outcome, traced bool) (*daemon, *report, time.Duration, error) {
	t0 := time.Now()
	dir, err := os.MkdirTemp(e.tmp, "store-")
	if err != nil {
		return nil, nil, 0, err
	}
	warm, err := e.spawn(ctx, e.seed, traced, "-worker", "sweep", "-catalog", "sweepd", "-store", dir)
	if err != nil {
		return nil, nil, 0, err
	}
	o.absorb(warm)
	if warm.Failed > 0 {
		return nil, warm, 0, nil
	}
	d, err := startDaemon(ctx, e.sweepd, dir)
	if err != nil {
		return nil, nil, 0, err
	}
	c := serve.NewClient(d.base)
	c.HTTP = &http.Client{Timeout: requestTimeout}
	defer c.HTTP.CloseIdleConnections()
	req := serve.Request{Points: serve.CatalogIDs()}
	resp, err := c.Sweep(req)
	if err != nil {
		d.stop()
		return nil, nil, 0, fmt.Errorf("warming sweepd: %w", err)
	}
	setup := time.Since(t0)
	o.attempted++
	if !checkBatch(e, o, req, resp, warm.Ref) {
		d.stop()
		return nil, warm, 0, nil
	}
	return d, warm, setup, nil
}

// catalogPoints returns the points of sweepd's default catalog, built the
// way the daemon builds it: the gate points plus every catalog job's.
func catalogPoints() ([]runner.Point, error) {
	seen := map[string]bool{}
	var pts []runner.Point
	add := func(p runner.Point) {
		if !seen[p.ID] {
			seen[p.ID] = true
			pts = append(pts, p)
		}
	}
	for _, p := range bench.GatePoints(nil) {
		add(p)
	}
	for _, j := range catalogJobs() {
		for _, p := range j.Points {
			add(p)
		}
	}
	sort.Slice(pts, func(i, j int) bool { return pts[i].ID < pts[j].ID })
	ids := serve.CatalogIDs()
	if len(ids) != len(pts) {
		return nil, fmt.Errorf("catalog: sweepd serves %d points, the benchmark builds %d", len(ids), len(pts))
	}
	for i, id := range ids {
		if pts[i].ID != id {
			return nil, fmt.Errorf("catalog: sweepd serves %s where the benchmark builds %s", id, pts[i].ID)
		}
	}
	return pts, nil
}

// checkBatch checks a response against its request: every result present,
// in order, from a cache path rather than an error, and equal to the
// warm-up's metrics unless the batch carried an override. A failing batch
// counts once.
func checkBatch(e *env, o *outcome, req serve.Request, resp serve.Response, ref map[string]runner.Metrics) bool {
	if len(resp.Results) != len(req.Points) {
		o.fail("sweepd: %d results for %d points", len(resp.Results), len(req.Points))
		return false
	}
	for i, pr := range resp.Results {
		ok := false
		switch {
		case pr.Point != req.Points[i]:
			o.fail("sweepd: result %d is %s, want %s", i, pr.Point, req.Points[i])
		case pr.Source == serve.SourceError || pr.Source == serve.SourceUnknown || pr.Metrics == nil:
			o.fail("sweepd: %s: source %s: %s", pr.Point, pr.Source, pr.Error)
		case req.Model != nil:
			ok = true
		case !ref[pr.Point].Equal(pr.Metrics):
			o.fail("sweepd: %s: got %v, computed in-process %v", pr.Point, pr.Metrics, ref[pr.Point])
		default:
			ok = e.checkPoint(o, pr.Point, pr.Metrics)
		}
		if !ok {
			return false
		}
	}
	return true
}

// mix generates the seeded request stream.
type mix struct {
	rng       *rand.Rand
	ids, gate []string
	overrides int
}

func newMix(seed int64) (*mix, error) {
	mx := &mix{rng: rand.New(rand.NewSource(seed)), ids: serve.CatalogIDs()}
	for _, p := range bench.GatePoints(nil) {
		if !leaksGoroutines(p.ID) {
			mx.gate = append(mx.gate, p.ID)
		}
	}
	if len(mx.ids) == 0 || len(mx.gate) == 0 {
		return nil, errors.New("empty catalog")
	}
	return mx, nil
}

// leaksGoroutines reports the points whose Task bridge goroutines outlive
// the simulation: the partitioned and NCCL allreduce. Each run leaves 4-8
// goroutines and up to 14 MB behind, so override batches, which the daemon
// computes, leave them out; in a long-lived daemon they would grow its heap
// without bound.
func leaksGoroutines(id string) bool {
	return familyOf(id) == "coll" && (strings.HasSuffix(id, "/partitioned") || strings.HasSuffix(id, "/nccl"))
}

// next returns the next batch: minBatch to maxBatch IDs drawn with
// replacement. An override batch draws from the gate points, the only ones
// an override resolves against, less those that leak.
func (mx *mix) next() serve.Request {
	pool := mx.ids
	var model *cluster.Model
	if mx.rng.Float64() < overrideShare {
		pool = mx.gate
		model = mx.override()
	}
	ids := make([]string, minBatch+mx.rng.Intn(maxBatch-minBatch+1))
	for i := range ids {
		ids[i] = pool[mx.rng.Intn(len(pool))]
	}
	return serve.Request{Points: ids, Model: model}
}

// override returns the calibrated cost model with one latency stretched by
// a seeded 1-50%, plus a nanosecond per earlier override so that no two
// overrides of a run share a key: every override batch computes.
func (mx *mix) override() *cluster.Model {
	m := cluster.DefaultModel()
	fields := []*sim.Duration{&m.StreamSyncCost, &m.KernelLaunchCost, &m.NVLinkLatency, &m.IBLatency, &m.C2CLatency, &m.HostLoopbackLatency}
	f := fields[mx.rng.Intn(len(fields))]
	*f += *f*sim.Duration(1+mx.rng.Intn(50))/100 + sim.Duration(mx.overrides+1)
	mx.overrides++
	return &m
}

// daemon is a sweepd subprocess.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	out    bytes.Buffer  // stdout and stderr; read only after exited
	exited chan struct{} // closed once the process is reaped
	err    error         // Wait's result, set before exited closes
}

// startDaemon starts sweepd on a free loopback port over the store at dir
// and waits, bounded, until /healthz answers. It tries three ports before
// giving up with the daemon's output.
func startDaemon(ctx context.Context, bin, dir string) (*daemon, error) {
	var errs []error
	for attempt := 0; attempt < 3; attempt++ {
		addr, err := freePort()
		if err != nil {
			return nil, err
		}
		d := &daemon{base: "http://" + addr, exited: make(chan struct{})}
		d.cmd = exec.Command(bin, "-addr", addr, "-store", dir, "-workers", "1")
		d.cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
		d.cmd.Stdout, d.cmd.Stderr = &d.out, &d.out
		// The daemon must not outlive the benchmark, however it ends.
		d.cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
		if err := d.cmd.Start(); err != nil {
			return nil, fmt.Errorf("starting sweepd: %w", err)
		}
		go func() {
			d.err = d.cmd.Wait()
			close(d.exited)
		}()
		err = d.waitHealthy(ctx)
		if err == nil {
			return d, nil
		}
		d.stop()
		errs = append(errs, fmt.Errorf("sweepd on %s: %v; its output:\n%s", addr, err, d.out.String()))
		if ctx.Err() != nil {
			break
		}
	}
	return nil, errors.Join(errs...)
}

// freePort returns a loopback address no listener holds right now.
func freePort() (string, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return "", err
	}
	addr := l.Addr().String()
	return addr, l.Close()
}

// waitHealthy polls /healthz until it answers, the daemon exits or
// healthTimeout passes. A daemon that cannot bind exits at once, so one
// that is still running after answering is the one that answered.
func (d *daemon) waitHealthy(ctx context.Context) error {
	hc := &http.Client{Timeout: time.Second}
	defer hc.CloseIdleConnections()
	deadline := time.Now().Add(healthTimeout)
	for {
		select {
		case <-d.exited:
			return fmt.Errorf("exited: %v", d.err)
		case <-ctx.Done():
			return ctx.Err()
		case <-time.After(10 * time.Millisecond):
		}
		resp, err := hc.Get(d.base + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				select {
				case <-d.exited:
					return fmt.Errorf("exited: %v", d.err)
				case <-time.After(20 * time.Millisecond):
					return nil
				}
			}
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("no /healthz answer within %v", healthTimeout)
		}
	}
}

// stop asks the daemon to shut down, kills it if it has not within five
// seconds, and returns once it is reaped.
func (d *daemon) stop() {
	select {
	case <-d.exited:
		return
	default:
	}
	_ = d.cmd.Process.Signal(syscall.SIGTERM) // an exited process is reaped below
	select {
	case <-d.exited:
	case <-time.After(5 * time.Second):
		_ = d.cmd.Process.Kill()
		<-d.exited
	}
}
