package main

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"syscall"
	"time"

	"mpipart/internal/runner"
	"mpipart/internal/runner/store"
)

// The simulator work of figures_cold and events, and the store warm-up of
// serve_mix, runs in worker processes: this binary again, with -worker.
// A worker does one bounded piece of work and prints a report. Fresh
// processes keep a pass's peak RSS its own, and they bound what leaks: the
// partitioned and NCCL allreduce points leave Task bridge goroutines behind
// after every run, about 30 MB per events round.

// report is what a worker prints: one JSON object on stdout.
type report struct {
	TimedAt   int64            `json:"timed_at"` // Unix ns when the first timed operation began
	Setup     float64          `json:"-"`        // from the spawn to TimedAt, in seconds
	Walls     []float64        `json:"walls_s"`  // each timed pass
	Events    []int64          `json:"events"`   // dispatched plus elided, each timed pass
	Points    int              `json:"points"`   // points per pass
	Lat       latencies        `json:"lat_ms"`   // every untraced point call
	RSSMB     float64          `json:"rss_mb"`   // the worker's peak RSS
	Counts    map[string]int64 `json:"counts"`   // exact counts of one pass
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Store     store.Stats      `json:"store"`
	// Traced workers only.
	Spans    string   `json:"spans,omitempty"`
	Profiles []string `json:"profiles,omitempty"`
	Runtime  rtStats  `json:"runtime"`
	// The serve_mix warm-up only: each point's metrics and simulated events.
	Ref         map[string]runner.Metrics `json:"ref,omitempty"`
	PointEvents map[string]int64          `json:"point_events,omitempty"`
}

// workerOpts are the flags only a worker takes.
type workerOpts struct {
	kind    string // "sweep" or "rounds"
	catalog string // sweep: "figures" or "sweepd"
	store   string // sweep: the store to fill; empty for a fresh one
}

// runWorker does a worker's work and prints its report.
func runWorker(e *env, w workerOpts) int {
	var (
		r   *report
		err error
	)
	switch w.kind {
	case "sweep":
		r, err = sweepWorker(e, w)
	case "rounds":
		r, err = roundsWorker(e)
	default:
		err = fmt.Errorf("unknown worker %q", w.kind)
	}
	if err == nil {
		err = json.NewEncoder(os.Stdout).Encode(r)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench worker: %v\n", err)
		return 1
	}
	return 0
}

// spawn runs one worker with the given seed and extra flags and returns
// its report. The worker inherits stderr, where it explains any failure.
func (e *env) spawn(ctx context.Context, seed int64, traced bool, args ...string) (*report, error) {
	exe, err := os.Executable()
	if err != nil {
		return nil, err
	}
	trace := "0"
	if traced {
		trace = "1"
	}
	args = append([]string{
		"-seed", strconv.FormatInt(seed, 10), "-trace", trace,
		"-root", e.root, "-build", e.build, "-tmp", e.tmp,
	}, args...)
	argv := append(pinArgs(), exe)
	argv = append(argv, args...)
	cmd := exec.CommandContext(ctx, argv[0], argv[1:]...)
	var out bytes.Buffer
	cmd.Stdout, cmd.Stderr = &out, os.Stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	start := time.Now()
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("worker %v: %w", args, err)
	}
	var r report
	if err := json.Unmarshal(out.Bytes(), &r); err != nil {
		return nil, fmt.Errorf("worker %v: report: %w", args, err)
	}
	r.Setup = float64(r.TimedAt-start.UnixNano()) / 1e9
	return &r, nil
}

// pinArgs returns the taskset prefix that runs a worker on one CPU, the
// first this process may use, or nothing without taskset. Pinned, a pass
// never migrates between CPUs: on a 2-vCPU VM that cut the run-to-run
// spread of events_per_s from 7.5% to 1%. The serve_mix client and daemon
// stay unpinned; sharing one CPU, their spread tripled.
func pinArgs() []string {
	taskset, err := exec.LookPath("taskset")
	if err != nil {
		return nil
	}
	raw, err := os.ReadFile("/proc/self/status")
	if err != nil {
		return nil
	}
	for _, line := range strings.Split(string(raw), "\n") {
		if cpus, ok := strings.CutPrefix(line, "Cpus_allowed_list:"); ok {
			cpus = strings.TrimSpace(cpus)
			return []string{taskset, "-c", cpus[:strings.IndexAny(cpus+",", ",-")]}
		}
	}
	return nil
}

// absorb adds a worker's operations to the run's and checks its exact
// counts against the other workers'.
func (o *outcome) absorb(r *report) {
	o.attempted += r.Attempted
	o.failed += r.Failed
	if r.Counts != nil {
		o.passCounts(r.Counts)
	}
}

// toReport fills the fields every worker reports.
func (o *outcome) toReport(r *report, m *meter, t *tracing) (*report, error) {
	r.Attempted, r.Failed, r.Counts = o.attempted, o.failed, o.counts
	r.Lat = m.lat
	rss, err := peakRSSMB("self")
	if err != nil {
		return nil, err
	}
	r.RSSMB = rss
	if t != nil {
		r.Runtime = t.rt
		r.Profiles = t.prof.files
		f, err := os.CreateTemp(t.prof.dir, "spans-*.jsonl")
		if err != nil {
			return nil, err
		}
		r.Spans = f.Name()
		f.Close()
		if err := t.tr.writeFile(r.Spans); err != nil {
			return nil, err
		}
	}
	return r, nil
}
