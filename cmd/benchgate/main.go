// Command benchgate is the figure-reproduction gate: it runs the
// designated tier-1 subset of the paper's figure/table points through the
// parallel sweep runner and compares the resulting virtual-time metrics
// EXACTLY against a committed golden baseline (BENCH_GOLDEN.json). The
// simulation is deterministic, so the comparison is bit-for-bit: any drift
// means the reproduction changed, and the gate exits non-zero with a
// readable per-point diff.
//
// Host wall time is recorded in the golden for reference only. Host speed
// is gated elsewhere: CI's perf job runs perfbench on the parent and the
// change side by side (.github/perf-ab.sh).
//
// Usage:
//
//	benchgate -check BENCH_GOLDEN.json            # gate (default)
//	benchgate -write BENCH_GOLDEN.json            # regenerate deliberately
//	benchgate -check ... -report diff.txt         # also write the diff report
//	benchgate -workers 8 | -seq                   # pool size (default GOMAXPROCS)
//	benchgate -store sweep-store                  # persistent result cache
//	benchgate -server http://127.0.0.1:7077       # gate against a sweepd daemon
//	benchgate -cpuprofile cpu.pprof -memprofile mem.pprof
//	benchgate -shuffle-seeds 16                   # schedule-invariance fuzz
//
// With -store DIR the runner is backed by the persistent content-addressed
// store (internal/runner/store): a warm store replays the whole gate without
// recomputing, and the result is byte-identical either way. With -server URL
// the points are fetched from a running sweepd daemon instead of computed
// here — the third execution mode that must also gate byte-identically. The
// shuffle fuzz perturbs local execution, so -server refuses -shuffle-seeds.
//
// With -shuffle-seeds N the gate additionally re-runs the entire sweep N
// times under seeded schedule perturbation (sim.SetShuffleSeed): same-time
// event and run-queue tie-breaks are randomized per seed while virtual-time
// semantics are untouched. Every perturbed run must produce a golden
// encoding byte-identical to the unperturbed run — any divergence is a
// reproducible witness that a metric depends on arrival order among
// simultaneous events, which real hardware does not guarantee. The failure
// diff goes to -shuffle-report (and stderr).
package main

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"time"

	"mpipart/internal/bench"
	"mpipart/internal/runner"
	"mpipart/internal/runner/store"
	"mpipart/internal/serve"
	"mpipart/internal/sim"
)

func main() {
	var (
		check      = flag.String("check", "", "compare a fresh gate run against this golden file (default BENCH_GOLDEN.json)")
		write      = flag.String("write", "", "run the gate and (re)write this golden file instead of checking")
		report     = flag.String("report", "", "also write the diff report (or 'no drift') to this file")
		workers    = flag.Int("workers", 0, "worker pool size; 0 = GOMAXPROCS")
		seq        = flag.Bool("seq", false, "sequential execution (same as -workers 1)")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the gate run to this file")
		memProfile = flag.String("memprofile", "", "write a heap profile taken after the gate run to this file")

		storeDir = flag.String("store", "", "back the runner with a persistent content-addressed store at this root")
		server   = flag.String("server", "", "fetch the gate points from a sweepd daemon at this URL instead of computing locally")

		shuffleSeeds = flag.Int("shuffle-seeds", 0,
			"re-run the sweep under N schedule-perturbation seeds and require byte-identical goldens; 0 disables")
		shuffleReport = flag.String("shuffle-report", "",
			"write the schedule-invariance failure diff to this file (with -shuffle-seeds)")
	)
	flag.Parse()
	if *write != "" && *check != "" {
		fmt.Fprintln(os.Stderr, "benchgate: -write and -check are mutually exclusive")
		os.Exit(2)
	}
	path := *check
	if *write != "" {
		path = *write
	}
	if path == "" {
		path = "BENCH_GOLDEN.json"
	}
	if *seq {
		*workers = 1
	}
	if *server != "" {
		if *storeDir != "" {
			fmt.Fprintln(os.Stderr, "benchgate: -store and -server are mutually exclusive (the daemon owns its store)")
			os.Exit(2)
		}
		if *shuffleSeeds > 0 {
			fmt.Fprintln(os.Stderr, "benchgate: -shuffle-seeds measures local execution; not available with -server")
			os.Exit(2)
		}
	}

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
	}

	var r *runner.Runner
	if *server == "" {
		if *storeDir != "" {
			ds, err := store.Open(*storeDir)
			if err != nil {
				fatal(err)
			}
			r = runner.NewWithStore(*workers, ds)
		} else {
			r = runner.New(*workers)
		}
	}
	t0 := time.Now()
	var got bench.Golden
	if *server != "" {
		g, err := serve.NewClient(*server).CollectGolden(nil)
		if err != nil {
			fatal(err)
		}
		got = g
	} else {
		got = bench.CollectGolden(r, nil)
	}
	wall := time.Since(t0)
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, err := os.Create(*memProfile)
		if err != nil {
			fatal(err)
		}
		runtime.GC()
		if err := pprof.WriteHeapProfile(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
	}
	got.Description = "golden virtual-time baselines for the tier-1 figure subset (cmd/benchgate)"
	got.GOARCH = runtime.GOARCH
	got.WallMS = wall.Milliseconds()
	if *server != "" {
		fmt.Printf("benchgate: %d points fetched from %s in %.1fs\n",
			len(got.Points), *server, wall.Seconds())
	} else if *storeDir != "" {
		cs := r.CacheStats()
		fmt.Printf("benchgate: %d points (%d computed, %d from store %s, %d memoized) in %.1fs on %d workers\n",
			len(got.Points), cs.Computed, cs.StoreHits, *storeDir, cs.MemHits, wall.Seconds(), r.Workers())
	} else {
		hits, misses := r.Stats()
		fmt.Printf("benchgate: %d points (%d computed, %d memoized) in %.1fs on %d workers\n",
			len(got.Points), misses, hits, wall.Seconds(), r.Workers())
	}

	if *shuffleSeeds > 0 {
		t1 := time.Now()
		if err := verifyShuffleInvariance(got, *shuffleSeeds, *workers, *shuffleReport); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: %d shuffle seeds byte-identical in %.1fs\n",
			*shuffleSeeds, time.Since(t1).Seconds())
	}

	if *write != "" {
		b, err := bench.EncodeGolden(got)
		if err != nil {
			fatal(err)
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			fatal(err)
		}
		fmt.Printf("benchgate: wrote %s\n", path)
		return
	}

	raw, err := os.ReadFile(path)
	if err != nil {
		fatal(fmt.Errorf("reading golden: %w (regenerate with benchgate -write %s)", err, path))
	}
	golden, err := bench.DecodeGolden(raw)
	if err != nil {
		fatal(err)
	}
	diffs := golden.Compare(got)
	out := bench.FormatDiffs(diffs)
	if *report != "" {
		if err := os.WriteFile(*report, []byte(out), 0o644); err != nil {
			fatal(err)
		}
	}
	if len(diffs) > 0 {
		fmt.Fprint(os.Stderr, out)
		os.Exit(1)
	}
	fmt.Print(out)
}

// verifyShuffleInvariance re-runs the full gate sweep under n schedule-
// perturbation seeds and requires every perturbed run's golden encoding to
// be byte-identical to the baseline (host-only fields — description, arch,
// wall time — normalized away). Each seed gets a fresh runner: the memo
// cache keys on experiment configuration only, so a shared runner would
// hand back the previous seed's metrics instead of recomputing under the
// new schedule.
func verifyShuffleInvariance(base bench.Golden, n, workers int, reportPath string) error {
	norm := func(g bench.Golden) []byte {
		g.Description, g.GOARCH, g.WallMS = "", "", 0
		b, err := bench.EncodeGolden(g)
		if err != nil {
			fatal(err)
		}
		return b
	}
	want := norm(base)
	for seed := 1; seed <= n; seed++ {
		sim.SetShuffleSeed(int64(seed))
		g := bench.CollectGolden(runner.New(workers), nil)
		sim.SetShuffleSeed(0)
		if !bytes.Equal(norm(g), want) {
			out := fmt.Sprintf("schedule-invariance failure under shuffle seed %d:\n%s",
				seed, bench.FormatDiffs(base.Compare(g)))
			if reportPath != "" {
				if err := os.WriteFile(reportPath, []byte(out), 0o644); err != nil {
					fmt.Fprintln(os.Stderr, "benchgate:", err)
				}
			}
			fmt.Fprint(os.Stderr, out)
			return fmt.Errorf("golden metrics depend on tie-break schedule (shuffle seed %d of %d)", seed, n)
		}
	}
	return nil
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchgate:", err)
	os.Exit(1)
}
