// Command mpivet runs the repository's custom static-analysis suite
// (internal/analysis) over the given packages and reports violations of the
// simulation's correctness invariants: wall-clock use in sim-driven code
// (including laundered through helpers), impure kernel bodies,
// partitioned-API state-machine misuse (intra- and interprocedural), mutexes
// held across virtual-time waits, lock acquisition-order cycles, ignored
// errors, non-exhaustive enum switches, lockset races in the
// goroutine-concurrent host serving layer, and continuation-Task
// discipline violations in the converted actors.
//
// Usage:
//
//	mpivet [-json|-sarif] [-summary] [-strict-ignores] [-rules r1,r2]
//	       [-timing] [-max-rule-time d] [packages]
//
// Packages are go list patterns ("./...", "./internal/sim", a directory)
// relative to the module root (default "./..."). One `go list -export
// -deps` resolves them to main-module packages, which are type-checked from
// source once each; everything they import comes from export data. The
// exit status is 0 when clean, 1 when findings were reported, 2 on usage or
// load errors.
//
// -summary dumps the per-function interprocedural effect summaries (the
// lattice the analyzers consume) instead of findings. -sarif emits SARIF
// 2.1.0 with interprocedural chains as codeFlows. -strict-ignores
// additionally reports suppression directives that no longer fire. -timing
// appends a per-analyzer wall-time table to stderr (and a timings section to
// the -json report) so CI can bisect slow rules, led by a "(load)" row for
// loading and type-checking and a "(callgraph)" row for program
// construction; -max-rule-time fails the run (exit 1) when any single
// analyzer exceeds the given duration (loading is not budgeted).
//
// A finding is suppressed by the comment
//
//	//lint:ignore mpivet/<rule> <reason>
//
// on the offending line or the line above it.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"mpipart/internal/analysis"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

// run is the testable entry point; it returns the process exit code:
// 0 clean, 1 findings, 2 usage/load/internal error.
func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("mpivet", flag.ContinueOnError)
	fs.SetOutput(stderr)
	jsonOut := fs.Bool("json", false, "emit findings as JSON")
	sarifOut := fs.Bool("sarif", false, "emit findings as SARIF 2.1.0 (chains as codeFlows)")
	summary := fs.Bool("summary", false, "dump per-function effect summaries instead of findings")
	strict := fs.Bool("strict-ignores", false, "report lint:ignore directives that no longer suppress anything")
	rules := fs.String("rules", "", "comma-separated subset of rules to run (default: all)")
	list := fs.Bool("list", false, "list available rules and exit")
	timing := fs.Bool("timing", false, "report per-analyzer wall time (stderr table; timings section in -json)")
	maxRuleTime := fs.Duration("max-rule-time", 0, "fail when any analyzer exceeds this duration (0 = no budget)")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *list {
		for _, a := range analysis.Analyzers() {
			fmt.Fprintf(stdout, "%-18s %s\n", a.Name, a.Doc)
		}
		return 0
	}
	if *jsonOut && *sarifOut {
		fmt.Fprintln(stderr, "mpivet: -json and -sarif are mutually exclusive")
		return 2
	}

	analyzers := analysis.Analyzers()
	if *rules != "" {
		analyzers = analyzers[:0:0]
		for _, name := range strings.Split(*rules, ",") {
			a := analysis.AnalyzerByName(strings.TrimSpace(name))
			if a == nil {
				fmt.Fprintf(stderr, "mpivet: unknown rule %q (try -list)\n", name)
				return 2
			}
			analyzers = append(analyzers, a)
		}
	}

	root, err := findModuleRoot()
	if err != nil {
		fmt.Fprintf(stderr, "mpivet: %v\n", err)
		return 2
	}
	t0 := time.Now()
	loader, err := analysis.NewLoader(root)
	if err != nil {
		fmt.Fprintf(stderr, "mpivet: %v\n", err)
		return 2
	}
	patterns := fs.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, err := loader.Load(patterns...)
	if err != nil {
		fmt.Fprintf(stderr, "mpivet: %v\n", err)
		return 2
	}
	load := analysis.RuleTiming{Rule: "(load)", Millis: float64(time.Since(t0)) / float64(time.Millisecond)}

	if *summary {
		prog := analysis.BuildProgram(pkgs)
		if err := prog.WriteSummaries(stdout); err != nil {
			fmt.Fprintf(stderr, "mpivet: %v\n", err)
			return 2
		}
		return 0
	}

	diags, timings := analysis.RunTimed(analyzers, pkgs, analysis.Options{StrictIgnores: *strict})
	reported := append([]analysis.RuleTiming{load}, timings...)
	switch {
	case *jsonOut && *timing:
		err = analysis.WriteJSONTimed(stdout, diags, reported)
	case *jsonOut:
		err = analysis.WriteJSON(stdout, diags)
	case *sarifOut:
		err = analysis.WriteSARIF(stdout, diags)
	default:
		err = analysis.WriteText(stdout, diags)
	}
	if err != nil {
		fmt.Fprintf(stderr, "mpivet: %v\n", err)
		return 2
	}
	if *timing {
		if err := analysis.WriteTimings(stderr, reported); err != nil {
			fmt.Fprintf(stderr, "mpivet: %v\n", err)
			return 2
		}
	}
	over := false
	if *maxRuleTime > 0 {
		budget := float64(*maxRuleTime) / 1e6 // duration -> ms
		for _, tm := range timings {
			if tm.Millis > budget {
				fmt.Fprintf(stderr, "mpivet: analyzer %s took %.1f ms, over the %s budget\n",
					tm.Rule, tm.Millis, *maxRuleTime)
				over = true
			}
		}
	}
	if len(diags) > 0 || over {
		return 1
	}
	return 0
}

// findModuleRoot walks up from the working directory to the go.mod.
func findModuleRoot() (string, error) {
	dir, err := os.Getwd()
	if err != nil {
		return "", err
	}
	for {
		if _, err := os.Stat(dir + "/go.mod"); err == nil {
			return dir, nil
		}
		parent := dir[:strings.LastIndex(dir, "/")+1]
		parent = strings.TrimSuffix(parent, "/")
		if parent == dir || parent == "" {
			return "", fmt.Errorf("no go.mod above the working directory")
		}
		dir = parent
	}
}
