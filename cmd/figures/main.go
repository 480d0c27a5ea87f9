// Command figures regenerates every table and figure of the paper's
// evaluation (Section VI) on the simulated GH200 testbed, or evaluates
// single catalog points by ID. The points of all requested figures are
// executed through one parallel sweep runner (internal/runner):
// independent simulated worlds fan out over a worker pool, results
// assemble in figure order, and configurations repeated across figures are
// computed once. Determinism of the sim kernel makes the output identical
// at any worker count.
//
// Usage:
//
//	figures -all                 # everything (default)
//	figures -fig 4               # one figure
//	figures -table 1             # Table I
//	figures -point 'fig4/g=1024/*'  # catalog points by ID or path.Match glob
//	figures -max-grid 8192       # raise the sweep cap (figs 2,4,5,6,7,10,11)
//	figures -max-mult 32         # Jacobi multiplier cap (figs 8,9)
//	figures -csv                 # CSV instead of aligned tables
//	figures -workers 8           # worker pool size (0 = GOMAXPROCS)
//	figures -outdir figures-csv  # also write one <name>.csv per figure
//	figures -store sweep-store   # persistent content-addressed result cache
//	figures -require-warm        # with -store: fail if anything recomputed
//
// -point takes a comma-separated list of catalog point IDs (the IDs sweepd
// serves at /catalog) or path.Match globs over them, and prints one line
// per matched point in sorted ID order: the ID, then name=value for each
// metric in sorted name order. It resolves against the default catalog
// (bench.Catalog), so it does not combine with the table flags -fig,
// -table, -all, -max-grid, -max-mult, -csv or -outdir. An ID or glob that
// matches no point exits 2.
//
// With -store DIR every point's metrics are read from / written back to the
// on-disk content-addressed store, so a second run regenerates all output
// without simulating anything. -require-warm turns that into an assertion:
// the run exits non-zero if any point was computed rather than replayed —
// the nightly cache-warm job uses it to prove a 100% hit rate.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path"
	"path/filepath"
	"strconv"
	"strings"

	"mpipart/internal/bench"
	"mpipart/internal/runner"
	"mpipart/internal/runner/store"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code:
// 0 success, 1 a run or I/O failure, 2 a usage error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("figures", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		fig     = fs.Int("fig", 0, "figure number to regenerate (2-11); 0 = per -all")
		table   = fs.Int("table", 0, "table number to regenerate (1)")
		all     = fs.Bool("all", false, "regenerate every figure and table")
		point   = fs.String("point", "", "comma-separated catalog point IDs or path.Match globs to evaluate")
		maxGrid = fs.Int("max-grid", bench.DefaultMaxGrid, "largest kernel grid size in sweeps")
		maxMult = fs.Int("max-mult", bench.DefaultMaxMult, "largest Jacobi problem multiplier")
		csv     = fs.Bool("csv", false, "emit CSV")
		workers = fs.Int("workers", 0, "parallel sweep workers; 0 = GOMAXPROCS")
		outdir  = fs.String("outdir", "", "also write one CSV per figure into this directory")

		storeDir    = fs.String("store", "", "persistent content-addressed result store root")
		requireWarm = fs.Bool("require-warm", false, "with -store: exit non-zero if any point was computed instead of replayed")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *requireWarm && *storeDir == "" {
		fmt.Fprintln(stderr, "figures: -require-warm needs -store")
		return 2
	}

	var (
		jobs   []bench.Job
		points []runner.Point
		err    error
	)
	if *point != "" {
		conflict := ""
		fs.Visit(func(f *flag.Flag) {
			switch f.Name {
			case "fig", "table", "all", "max-grid", "max-mult", "csv", "outdir":
				conflict = f.Name
			}
		})
		if conflict != "" {
			fmt.Fprintf(stderr, "figures: -point does not combine with -%s\n", conflict)
			return 2
		}
		points, err = resolvePoints(*point)
	} else {
		jobs, err = selectJobs(*fig, *table, *all, *maxGrid, *maxMult)
	}
	if err != nil {
		fmt.Fprintf(stderr, "figures: %v\n", err)
		return 2
	}

	if *outdir != "" {
		if err := os.MkdirAll(*outdir, 0o755); err != nil {
			fmt.Fprintf(stderr, "figures: %v\n", err)
			return 1
		}
	}

	r := runner.New(*workers)
	if *storeDir != "" {
		ds, err := store.Open(*storeDir)
		if err != nil {
			fmt.Fprintf(stderr, "figures: %v\n", err)
			return 1
		}
		r = runner.NewWithStore(*workers, ds)
	}

	if points != nil {
		printPoints(stdout, points, r.Run(points))
	}
	for i, t := range bench.RunJobs(r, jobs) {
		if *csv {
			t.CSV(stdout)
		} else {
			t.Fprint(stdout)
		}
		if *outdir != "" {
			f, err := os.Create(filepath.Join(*outdir, jobs[i].Name+".csv"))
			if err != nil {
				fmt.Fprintf(stderr, "figures: %v\n", err)
				return 1
			}
			t.CSV(f)
			if err := f.Close(); err != nil {
				fmt.Fprintf(stderr, "figures: %v\n", err)
				return 1
			}
		}
	}

	if *storeDir != "" {
		cs := r.CacheStats()
		fmt.Fprintf(stderr, "figures: cache: %d computed, %d from store, %d memoized\n",
			cs.Computed, cs.StoreHits, cs.MemHits)
		if *requireWarm && cs.Computed > 0 {
			fmt.Fprintf(stderr, "figures: -require-warm: %d points were recomputed; the store at %s is not fully warm\n",
				cs.Computed, *storeDir)
			return 1
		}
	}
	return 0
}

// selectJobs picks the figure and table jobs the flags ask for: every job
// with -all or with neither -fig nor -table, otherwise the job named
// fig<N>, then the one named table<N>. A selected job the caps leave
// without points is an error naming the cap.
func selectJobs(fig, table int, all bool, maxGrid, maxMult int) ([]bench.Job, error) {
	jobs := bench.Jobs(maxGrid, maxMult)
	if all || (fig == 0 && table == 0) {
		return jobs, nonEmpty(jobs, maxGrid, maxMult)
	}
	named := func(name string) (bench.Job, bool) {
		for _, j := range jobs {
			if j.Name == name {
				return j, true
			}
		}
		return bench.Job{}, false
	}
	var sel []bench.Job
	if fig != 0 {
		j, ok := named("fig" + strconv.Itoa(fig))
		if !ok {
			return nil, fmt.Errorf("unknown figure %d", fig)
		}
		sel = append(sel, j)
	}
	if table != 0 {
		j, ok := named("table" + strconv.Itoa(table))
		if !ok {
			return nil, fmt.Errorf("unknown table %d", table)
		}
		sel = append(sel, j)
	}
	return sel, nonEmpty(sel, maxGrid, maxMult)
}

// nonEmpty reports the first job with no points, naming the cap that bounds
// its sweep: the Jacobi multiplier for Figs. 8 and 9, the grid otherwise.
func nonEmpty(jobs []bench.Job, maxGrid, maxMult int) error {
	for _, j := range jobs {
		if len(j.Points) > 0 {
			continue
		}
		if j.Name == "fig8" || j.Name == "fig9" {
			return fmt.Errorf("-max-mult %d leaves %s without points", maxMult, j.Name)
		}
		return fmt.Errorf("-max-grid %d leaves %s without points", maxGrid, j.Name)
	}
	return nil
}

// resolvePoints matches each comma-separated ID or glob of list against
// the default catalog and returns the matched points in sorted ID order,
// each once. A malformed glob, or one matching no point, is an error.
func resolvePoints(list string) ([]runner.Point, error) {
	ids := bench.CatalogIDs()
	matched := make(map[string]bool)
	for _, pat := range strings.Split(list, ",") {
		n := 0
		for _, id := range ids {
			ok, err := path.Match(pat, id)
			if err != nil {
				return nil, fmt.Errorf("-point %q: %v", pat, err)
			}
			if ok {
				matched[id] = true
				n++
			}
		}
		if n == 0 {
			return nil, fmt.Errorf("-point %q: no such catalog point", pat)
		}
	}
	points := make([]runner.Point, 0, len(matched))
	for _, id := range ids {
		if matched[id] {
			points = append(points, bench.Catalog()[id])
		}
	}
	return points, nil
}

// printPoints writes one line per point: its ID, then name=value for each
// metric in sorted name order, values in shortest round-trip form.
func printPoints(w io.Writer, points []runner.Point, ms []runner.Metrics) {
	for i, p := range points {
		line := p.ID
		for _, name := range ms[i].Keys() {
			line += " " + name + "=" + strconv.FormatFloat(ms[i][name], 'g', -1, 64)
		}
		fmt.Fprintln(w, line)
	}
}
