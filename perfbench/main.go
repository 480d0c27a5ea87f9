// Command perfbench is the repository's benchmark. It runs one of three
// seeded workloads through the public entry points of internal/bench,
// internal/runner, internal/runner/store and the cmd/sweepd daemon, checks
// every result against BENCH_GOLDEN.json, and prints what it measured as one
// JSON object on the last line of standard output. README.md describes the
// workloads and which per-layer metric should move which end-to-end metric.
//
// Usage, from the checkout root (run.sh builds this command and sweepd):
//
//	bash perfbench/run.sh --workload figures_cold --seed 1 --seconds 20 --trace 0
//
// With --trace 0 the run reports end-to-end metrics. With --trace 1 it runs
// untraced for the first half of its time and traced for the second, and
// reports per-layer metrics from the traced half plus the tracing overhead.
//
// The benchmark runs on one P and drives the simulator with one runner
// worker, and sweepd with one worker and one connection: on a 2-core host
// the two processes then never compete for a core.
package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"sort"
	"syscall"
	"time"

	"mpipart/internal/bench"
	"mpipart/internal/runner"
)

// metric is one reported value with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type metricSet map[string]metric

func (m metricSet) set(name string, v float64, unit string) { m[name] = metric{Value: v, Unit: unit} }

// result is the last line of standard output.
type result struct {
	Correct   bool      `json:"correct"`
	Attempted int       `json:"attempted"`
	Failed    int       `json:"failed"`
	Metrics   metricSet `json:"metrics"`
}

// env is what a workload is given: its inputs and where it may read and
// write.
type env struct {
	seed    int64
	seconds time.Duration
	trace   bool
	golden  bench.Golden
	root    string // the checkout
	build   string // build directory
	tmp     string // removed when the run ends: stores, profiles, spans
	outDir  string // kept: the count ledger and the spans of a traced run
	sweepd  string // the sweepd binary
}

// outcome is what one workload run measured.
type outcome struct {
	attempted, failed int
	e2e               metricSet // reported with --trace 0
	layer             metricSet // reported with --trace 1
	// counts are the exact work counts of one pass. Every pass of a run
	// must repeat them, and so must every run of the same binary and seed.
	counts map[string]int64
}

func newOutcome() *outcome {
	return &outcome{e2e: metricSet{}, layer: newLayerMetrics()}
}

// fail counts a failed operation and prints the first few reasons.
func (o *outcome) fail(format string, args ...interface{}) {
	o.failed++
	if o.failed <= 10 {
		fmt.Fprintf(os.Stderr, "perfbench: FAIL: "+format+"\n", args...)
	}
}

// passCounts checks one pass's exact counts against the run's first pass.
func (o *outcome) passCounts(c map[string]int64) {
	if o.counts == nil {
		o.counts = c
		return
	}
	for _, k := range sortedKeys(c) {
		if c[k] != o.counts[k] {
			o.fail("nondeterminism: %s is %d in one pass and %d in another", k, c[k], o.counts[k])
		}
	}
}

// checkPoint reports whether a point's metrics equal its golden value; IDs
// without one pass.
func (e *env) checkPoint(o *outcome, id string, m runner.Metrics) bool {
	want, ok := e.golden.Points[id]
	if ok && !want.Equal(m) {
		o.fail("%s: got %v, golden %v", id, m, want)
		return false
	}
	return true
}

type workload func(ctx context.Context, e *env) (*outcome, error)

var workloads = map[string]workload{
	"figures_cold": runFiguresCold,
	"events":       runEvents,
	"serve_mix":    runServeMix,
}

func main() { os.Exit(run()) }

func run() int {
	var (
		name    = flag.String("workload", "", "figures_cold, events or serve_mix")
		seed    = flag.Int64("seed", 1, "seed the workload's inputs are generated from")
		seconds = flag.Float64("seconds", 20, "how long the run measures")
		trace   = flag.Int("trace", 0, "1 reports per-layer metrics from a traced run")
		root    = flag.String("root", ".", "checkout root, where BENCH_GOLDEN.json is read")
		build   = flag.String("build", ".bench_build", "directory for stores, profiles and spans")
		sweepd  = flag.String("sweepd", "", "sweepd binary (serve_mix)")
		w       workerOpts
		tmp     string
	)
	flag.StringVar(&w.kind, "worker", "", "internal: run as a worker of this kind")
	flag.StringVar(&w.catalog, "catalog", "figures", "internal: sweep worker's catalog, figures or sweepd")
	flag.StringVar(&w.store, "store", "", "internal: store the sweep worker fills")
	flag.StringVar(&tmp, "tmp", "", "internal: the run's temporary directory")
	flag.Parse()
	wl, ok := workloads[*name]
	if w.kind == "" && (!ok || *seconds <= 0 || (*trace != 0 && *trace != 1)) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload figures_cold|events|serve_mix, --seconds > 0, --trace 0|1\n")
		return 2
	}
	runtime.GOMAXPROCS(1)

	e := &env{
		seed:    *seed,
		seconds: time.Duration(*seconds * float64(time.Second)),
		trace:   *trace == 1,
		root:    *root,
		build:   *build,
		tmp:     tmp,
		outDir:  filepath.Join(*build, "perfbench"),
		sweepd:  *sweepd,
	}
	raw, err := os.ReadFile(filepath.Join(*root, "BENCH_GOLDEN.json"))
	if err == nil {
		e.golden, err = bench.DecodeGolden(raw)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if w.kind != "" {
		return runWorker(e, w)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	if err := os.MkdirAll(e.outDir, 0o755); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	if e.tmp, err = os.MkdirTemp(e.outDir, "run-"); err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	defer os.RemoveAll(e.tmp)

	o, err := wl(ctx, e)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	if o.failed == 0 && o.counts != nil {
		key := fmt.Sprintf("%s/seed=%d", *name, *seed)
		if err := checkLedger(filepath.Join(e.outDir, "counts.json"), key, o); err != nil {
			fmt.Fprintf(os.Stderr, "perfbench: count ledger: %v\n", err)
			return 1
		}
	}

	res := result{Correct: o.failed == 0, Attempted: o.attempted, Failed: o.failed, Metrics: o.e2e}
	if e.trace {
		res.Metrics = o.layer
	}
	for _, k := range sortedKeys(res.Metrics) {
		fmt.Printf("%-28s %14.6g %s\n", k, res.Metrics[k].Value, res.Metrics[k].Unit)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if o.failed > 0 || o.attempted == 0 {
		return 1
	}
	return 0
}

// checkLedger compares the run's exact counts with those an earlier run of
// the same binary, workload and seed recorded, and records them if no run
// did. A difference is nondeterminism, counted as a failed operation.
func checkLedger(path, key string, o *outcome) error {
	exe, err := exeHash()
	if err != nil {
		return err
	}
	key += "/" + exe
	ledger := map[string]map[string]int64{}
	raw, err := os.ReadFile(path)
	switch {
	case err == nil:
		if err := json.Unmarshal(raw, &ledger); err != nil {
			return fmt.Errorf("%s: %w", path, err)
		}
	case !errors.Is(err, os.ErrNotExist):
		return err
	}
	if prev, ok := ledger[key]; ok {
		for _, k := range sortedKeys(o.counts) {
			if prev[k] != o.counts[k] {
				o.fail("nondeterminism: %s is %d, an earlier run with this seed counted %d", k, o.counts[k], prev[k])
			}
		}
		return nil
	}
	ledger[key] = o.counts
	out, err := json.MarshalIndent(ledger, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, out, 0o644)
}

// exeHash identifies the running binary, so the ledger never compares counts
// across program versions.
func exeHash() (string, error) {
	path, err := os.Executable()
	if err != nil {
		return "", err
	}
	f, err := os.Open(path)
	if err != nil {
		return "", err
	}
	defer f.Close()
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)[:8]), nil
}

// plan paces a workload's passes. Untraced passes fill the run, or with
// --trace 1 its first half, and go on until minSamples latencies are in
// hand so that a p99 has ten samples beyond it; traced passes fill the rest.
type plan struct {
	start            time.Time
	dur              time.Duration
	trace            bool
	minSamples       int
	untraced, traced int
}

func (e *env) plan(minSamples int) *plan {
	return &plan{start: time.Now(), dur: e.seconds, trace: e.trace, minSamples: minSamples}
}

// next reports whether another pass runs, and whether it is traced; samples
// is the number of untraced latencies so far.
func (p *plan) next(samples int) (more, traced bool) {
	elapsed := time.Since(p.start)
	untracedFor := p.dur
	if p.trace {
		untracedFor = p.dur / 2
	}
	if p.traced == 0 && (p.untraced == 0 || elapsed < untracedFor || (!p.trace && samples < p.minSamples)) {
		p.untraced++
		return true, false
	}
	if p.trace && (p.traced == 0 || elapsed < p.dur) {
		p.traced++
		return true, true
	}
	return false, false
}

// quantile returns the q-quantile of xs by the nearest-rank rule, sorting xs.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	i := int(math.Ceil(q*float64(len(xs)))) - 1
	if i < 0 {
		i = 0
	}
	return xs[i]
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// latencies are point-call latencies in ms, by point ID.
type latencies map[string][]float64

func (l latencies) add(more latencies) {
	for id, xs := range more {
		l[id] = append(l[id], xs...)
	}
}

func (l latencies) count() int {
	n := 0
	for _, xs := range l {
		n += len(xs)
	}
	return n
}

// p50 is the median over points of each point's median call. The calls of
// one point spread little, but the points lie sparsely around the median:
// a median over all calls jumps between neighbouring points as the seeded
// call order shifts a few calls.
func (l latencies) p50() float64 {
	meds := make([]float64, 0, len(l))
	for _, xs := range l {
		meds = append(meds, median(xs))
	}
	return median(meds)
}

// p99 is over all calls, so that ten or more lie beyond it.
func (l latencies) p99() float64 {
	var all []float64
	for _, xs := range l {
		all = append(all, xs...)
	}
	return quantile(all, 0.99)
}

func msOf(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e6 }

func sortedKeys[V any](m map[string]V) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}
