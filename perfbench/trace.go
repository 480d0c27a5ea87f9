package main

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"runtime/pprof"
	"strings"
	"sync"
	"time"

	"mpipart/internal/runner"
	"mpipart/internal/runner/store"
	"mpipart/internal/sim"
)

// families are the point families of the catalog. Each exercises a stack of
// modules: p2p is fig2-5 and osu_* (gpu launch/sync, the core partitioned
// path, ucx, fabric pipes), coll is fig6/7 and table1 (coll, nccl, mpi),
// jacobi is fig8/9 and dl is fig10/11 (dl, gpu kernel bodies, payload
// copies).
var families = []string{"p2p", "coll", "halo", "jacobi", "dl"}

// familyOf maps a catalog point ID to its family.
func familyOf(id string) string {
	fig, _, _ := strings.Cut(id, "/")
	switch {
	case fig == "fig2" || fig == "fig3" || fig == "fig4" || fig == "fig5" || strings.HasPrefix(fig, "osu_"):
		return "p2p"
	case fig == "fig6" || fig == "fig7" || fig == "table1":
		return "coll"
	case strings.HasPrefix(fig, "halo"):
		return "halo"
	case fig == "fig8" || fig == "fig9":
		return "jacobi"
	case fig == "fig10" || fig == "fig11":
		return "dl"
	}
	return "other"
}

// hostModules are the modules host.share.<module> attributes CPU profile
// samples to, by the package of the sample's leaf frame.
var hostModules = []string{"sim", "gpu", "dl", "jacobi", "coll", "core", "ucx", "fabric", "mpi", "runtime", "net_http", "encoding_json", "other"}

// newLayerMetrics returns every per-layer metric at zero. A run reports all
// of them; a layer off the workload's path stays zero. Work counts, busy
// times and allocations are per pass: a sweep (figures_cold), a round
// (events), or for serve_mix a store warm-up (in-process layers) and a
// batch (go.*).
func newLayerMetrics() metricSet {
	m := metricSet{}
	add := func(unit string, names ...string) {
		for _, n := range names {
			m.set(n, 0, unit)
		}
	}
	add("count", "sim.dispatches", "sim.elided",
		"runner.computed", "runner.mem_hits", "runner.store_hits",
		"store.saves", "store.save_errors", "store.corrupt", "serve.errors", "go.gc_cycles")
	add("ns", "sim.ns_per_event")
	add("us", "store.save_us_p50", "store.load_us_p50", "store.load_us_p99")
	add("ms", "serve.overhead_ms_p50", "serve.compute_ms_p50", "serve.compute_ms_p99", "serve.queue_ms_p99", "go.gc_pause_ms")
	add("MB", "go.alloc_mb")
	add("share", "runner.idle_share", "store.hit_ratio", "serve.coalesced_share", "go.gc_cpu_share", "trace.overhead_share")
	for _, f := range families {
		add("ms", f+".busy_ms")
		add("ns", f+".ns_per_event")
		add("MB", f+".alloc_mb")
	}
	for _, mod := range hostModules {
		add("share", "host.share."+mod)
	}
	return m
}

// span is one timed call across a layer boundary. Spans are recorded only
// by this package, around its calls into the program: runner.Run, each
// point's Run, each store call and each request to sweepd.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Point  string `json:"point,omitempty"`
	Events int64  `json:"events,omitempty"`
	Alloc  uint64 `json:"alloc_bytes,omitempty"`
}

func (s span) dur() time.Duration { return time.Duration(s.End - s.Start) }

// tracer keeps spans in memory until the run ends.
type tracer struct {
	mu     sync.Mutex
	base   time.Time
	spans  []span
	parent int // the open span new spans nest under
}

func newTracer() *tracer { return &tracer{base: time.Now()} }

// begin opens a span that later spans nest under until end closes it.
func (t *tracer) begin(name string) int {
	t.mu.Lock()
	defer t.mu.Unlock()
	id := len(t.spans) + 1
	t.spans = append(t.spans, span{ID: id, Parent: t.parent, Name: name, Start: int64(time.Since(t.base))})
	t.parent = id
	return id
}

func (t *tracer) end(id int) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.End = int64(time.Since(t.base))
	t.parent = s.Parent
}

// add records a finished span under the open one.
func (t *tracer) add(s span, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	s.ID, s.Parent = len(t.spans)+1, t.parent
	s.Start, s.End = int64(start.Sub(t.base)), int64(end.Sub(t.base))
	t.spans = append(t.spans, s)
}

// writeFile stores the spans as JSON lines.
func (t *tracer) writeFile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// readFile appends the spans a worker wrote, renumbered after those held.
// Their times stay relative to the worker's start.
func (t *tracer) readFile(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	offset := len(t.spans)
	dec := json.NewDecoder(bufio.NewReader(f))
	for dec.More() {
		var s span
		if err := dec.Decode(&s); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
		s.ID += offset
		if s.Parent != 0 {
			s.Parent += offset
		}
		t.spans = append(t.spans, s)
	}
	return nil
}

// meter wraps the points a workload hands to the runner. Every call is
// timed and its simulated events counted; with a tracer the call also runs
// under a pprof "family" label and leaves a span with its events and heap
// bytes. The event and allocation counters are process-wide, so the runner
// must have one worker.
type meter struct {
	tr     *tracer
	lat    latencies        // untraced call latencies
	events map[string]int64 // simulated events of each point ID's latest call
}

func newMeter() *meter { return &meter{lat: latencies{}, events: map[string]int64{}} }

func (m *meter) wrap(pts []runner.Point) []runner.Point {
	out := make([]runner.Point, len(pts))
	for i, p := range pts {
		id, run := p.ID, p.Run
		p.Run = func() runner.Metrics { return m.call(id, run) }
		out[i] = p
	}
	return out
}

func (m *meter) call(id string, run func() runner.Metrics) runner.Metrics {
	ev0 := simEvents()
	if m.tr == nil {
		t0 := time.Now()
		res := run()
		m.lat[id] = append(m.lat[id], msOf(time.Since(t0)))
		m.events[id] = simEvents() - ev0
		return res
	}
	var (
		res   runner.Metrics
		alloc uint64
	)
	t0 := time.Now()
	pprof.Do(context.Background(), pprof.Labels("family", familyOf(id)), func(context.Context) {
		a0 := heapAllocs()
		res = run()
		alloc = heapAllocs() - a0
	})
	t1 := time.Now()
	ev := simEvents() - ev0
	m.events[id] = ev
	m.tr.add(span{Name: "point", Point: id, Events: ev, Alloc: alloc}, t0, t1)
	return res
}

// simEvents is the process-wide count of dispatched plus elided events.
func simEvents() int64 { return sim.TotalDispatched() + sim.TotalElided() }

// runPoints runs pts through r under a runner.Run span, turning a point's
// panic into an error.
func runPoints(r *runner.Runner, pts []runner.Point, tr *tracer) (ms []runner.Metrics, err error) {
	if tr != nil {
		defer tr.end(tr.begin("runner.run"))
	}
	defer func() {
		if rec := recover(); rec != nil {
			err = fmt.Errorf("%v", rec)
		}
	}()
	return r.Run(pts), nil
}

// timedStore is a DiskStore behind a timing decorator: it implements
// runner.Store and leaves a span for every Load and Save.
type timedStore struct {
	ds *store.DiskStore
	tr *tracer
}

func (s timedStore) Load(key string) (runner.Metrics, bool) {
	t0 := time.Now()
	m, ok := s.ds.Load(key)
	s.tr.add(span{Name: "store.load"}, t0, time.Now())
	return m, ok
}

func (s timedStore) Save(key string, m runner.Metrics) {
	t0 := time.Now()
	s.ds.Save(key, m)
	s.tr.add(span{Name: "store.save"}, t0, time.Now())
}

// storeFor returns ds, behind the timing decorator when tr is set.
func storeFor(ds *store.DiskStore, tr *tracer) runner.Store {
	if tr == nil {
		return ds
	}
	return timedStore{ds: ds, tr: tr}
}

// passLayers fills the in-process layer metrics from the spans of the
// traced passes and the exact counts of one pass.
func passLayers(l metricSet, spans []span, counts map[string]int64, passes int) {
	for _, k := range []string{"sim.dispatches", "sim.elided", "runner.computed", "runner.mem_hits", "runner.store_hits", "store.saves"} {
		l.set(k, float64(counts[k]), l[k].Unit)
	}
	type fam struct {
		busy   time.Duration
		events int64
		alloc  uint64
	}
	byFam := map[string]*fam{}
	var busy, runnerWall time.Duration
	var events int64
	var loads, saves []float64
	for _, s := range spans {
		switch s.Name {
		case "point":
			f := byFam[familyOf(s.Point)]
			if f == nil {
				f = &fam{}
				byFam[familyOf(s.Point)] = f
			}
			f.busy += s.dur()
			f.events += s.Events
			f.alloc += s.Alloc
			busy += s.dur()
			events += s.Events
		case "runner.run":
			runnerWall += s.dur()
		case "store.load":
			loads = append(loads, float64(s.dur().Nanoseconds())/1e3)
		case "store.save":
			saves = append(saves, float64(s.dur().Nanoseconds())/1e3)
		}
	}
	n := float64(passes)
	for _, name := range families {
		f := byFam[name]
		if f == nil {
			continue
		}
		l.set(name+".busy_ms", msOf(f.busy)/n, "ms")
		l.set(name+".alloc_mb", float64(f.alloc)/1e6/n, "MB")
		if f.events > 0 {
			l.set(name+".ns_per_event", float64(f.busy.Nanoseconds())/float64(f.events), "ns")
		}
	}
	if events > 0 {
		l.set("sim.ns_per_event", float64(busy.Nanoseconds())/float64(events), "ns")
	}
	if runnerWall > 0 {
		// One worker: idle is the runner's wall time outside point calls.
		l.set("runner.idle_share", 1-float64(busy)/float64(runnerWall), "share")
	}
	l.set("store.save_us_p50", median(saves), "us")
	l.set("store.load_us_p50", median(loads), "us")
	l.set("store.load_us_p99", quantile(loads, 0.99), "us")
}

// rtStats is a reading of the Go runtime's cumulative counters, or the
// growth of them over some stretch.
type rtStats struct {
	AllocBytes uint64  `json:"alloc_bytes"`
	GCCycles   uint64  `json:"gc_cycles"`
	PauseNs    uint64  `json:"pause_ns"`
	GCCPU      float64 `json:"gc_cpu_s"`
	TotalCPU   float64 `json:"total_cpu_s"`
}

var rtSamples = []string{
	"/gc/heap/allocs:bytes",
	"/gc/cycles/total:gc-cycles",
	"/cpu/classes/gc/total:cpu-seconds",
	"/cpu/classes/total:cpu-seconds",
}

func readRuntime() rtStats {
	s := make([]metrics.Sample, len(rtSamples))
	for i, name := range rtSamples {
		s[i].Name = name
	}
	metrics.Read(s)
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return rtStats{
		AllocBytes: s[0].Value.Uint64(),
		GCCycles:   s[1].Value.Uint64(),
		GCCPU:      s[2].Value.Float64(),
		TotalCPU:   s[3].Value.Float64(),
		PauseNs:    ms.PauseTotalNs,
	}
}

// add adds the growth d to r.
func (r *rtStats) add(d rtStats) {
	r.AllocBytes += d.AllocBytes
	r.GCCycles += d.GCCycles
	r.PauseNs += d.PauseNs
	r.GCCPU += d.GCCPU
	r.TotalCPU += d.TotalCPU
}

// since adds the counters' growth from an earlier reading to r.
func (r *rtStats) since(before rtStats) {
	now := readRuntime()
	r.add(rtStats{
		AllocBytes: now.AllocBytes - before.AllocBytes,
		GCCycles:   now.GCCycles - before.GCCycles,
		PauseNs:    now.PauseNs - before.PauseNs,
		GCCPU:      now.GCCPU - before.GCCPU,
		TotalCPU:   now.TotalCPU - before.TotalCPU,
	})
}

// goLayers reports the runtime's counters per pass.
func goLayers(l metricSet, r rtStats, passes int) {
	n := float64(passes)
	l.set("go.alloc_mb", float64(r.AllocBytes)/1e6/n, "MB")
	l.set("go.gc_cycles", float64(r.GCCycles)/n, "count")
	l.set("go.gc_pause_ms", float64(r.PauseNs)/1e6/n, "ms")
	if r.TotalCPU > 0 {
		l.set("go.gc_cpu_share", r.GCCPU/r.TotalCPU, "share")
	}
}

// heapAllocs is the process's cumulative heap allocation in bytes.
func heapAllocs() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}

// profiler takes the CPU profile of the traced passes, one file for each
// stretch between start and stop.
type profiler struct {
	dir   string
	files []string
	f     *os.File
}

func (p *profiler) start() error {
	f, err := os.CreateTemp(p.dir, "cpu-*.pprof")
	if err != nil {
		return err
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		return err
	}
	p.f = f
	p.files = append(p.files, f.Name())
	return nil
}

func (p *profiler) stop() error {
	pprof.StopCPUProfile()
	return p.f.Close()
}

// hostShares reports, per module, the share of profile samples whose leaf
// frame is in it.
func (p *profiler) hostShares(l metricSet) error {
	counts, total, err := leafModuleSamples(p.files)
	if err != nil {
		return err
	}
	if total == 0 {
		return nil
	}
	for _, mod := range hostModules {
		l.set("host.share."+mod, float64(counts[mod])/float64(total), "share")
	}
	return nil
}

// overhead reports how much slower traced passes were than untraced ones.
func overhead(l metricSet, untraced, traced []float64) {
	if u := median(untraced); u > 0 && len(traced) > 0 {
		l.set("trace.overhead_share", median(traced)/u-1, "share")
	}
}

// peakRSSMB returns a process's peak resident set size (VmHWM) in MB; pid
// is a process ID or "self".
func peakRSSMB(pid string) (float64, error) {
	raw, err := os.ReadFile(filepath.Join("/proc", pid, "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			var kb float64
			if _, err := fmt.Sscanf(strings.TrimSpace(rest), "%f kB", &kb); err != nil {
				return 0, fmt.Errorf("VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("no VmHWM in /proc/%s/status", pid)
}

// tracing is what the traced passes of a run share: the spans, the CPU
// profile and the growth of the runtime's counters. A nil *tracing stands
// for an untraced pass, and its methods do nothing.
type tracing struct {
	tr   *tracer
	prof profiler
	rt   rtStats
	mark rtStats
}

// newTracing returns nil unless the run is traced.
func (e *env) newTracing() *tracing {
	if !e.trace {
		return nil
	}
	return &tracing{tr: newTracer(), prof: profiler{dir: e.tmp}}
}

func (t *tracing) spans() *tracer {
	if t == nil {
		return nil
	}
	return t.tr
}

// resume starts the profile and the runtime counters; pause stops them.
func (t *tracing) resume() error {
	if t == nil {
		return nil
	}
	t.mark = readRuntime()
	return t.prof.start()
}

func (t *tracing) pause() error {
	if t == nil {
		return nil
	}
	t.rt.since(t.mark)
	return t.prof.stop()
}

// absorb adds a traced worker's spans, CPU profiles and runtime counters.
func (t *tracing) absorb(r *report) error {
	t.prof.files = append(t.prof.files, r.Profiles...)
	t.rt.add(r.Runtime)
	return t.tr.readFile(r.Spans)
}

// finish reports the runtime and host-time metrics over passes traced
// passes, and keeps the spans in the output directory.
func (t *tracing) finish(e *env, name string, l metricSet, passes int) error {
	goLayers(l, t.rt, passes)
	if err := t.prof.hostShares(l); err != nil {
		return err
	}
	return t.tr.writeFile(filepath.Join(e.outDir, fmt.Sprintf("spans-%s-seed%d.jsonl", name, e.seed)))
}
