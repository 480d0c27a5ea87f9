package main

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestExitCodes pins the exit-code contract: 0 clean, 1 findings, 2 on
// usage/load errors — CI depends on distinguishing "violations" from "the
// tool itself broke".
func TestExitCodes(t *testing.T) {
	var out, errOut bytes.Buffer

	if code := run([]string{"-list"}, &out, &errOut); code != 0 {
		t.Fatalf("-list: exit %d, stderr %s", code, errOut.String())
	}
	if !strings.Contains(out.String(), "simclock") || !strings.Contains(out.String(), "deadlockorder") {
		t.Fatalf("-list output missing rules:\n%s", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-rules", "no-such-rule"}, &out, &errOut); code != 2 {
		t.Fatalf("unknown rule: exit %d, want 2", code)
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"./no/such/dir"}, &out, &errOut); code != 2 {
		t.Fatalf("bad pattern: exit %d, want 2", code)
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-json", "-sarif"}, &out, &errOut); code != 2 {
		t.Fatalf("-json -sarif together: exit %d, want 2", code)
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-rules", "simclock", "./internal/sim"}, &out, &errOut); code != 0 {
		t.Fatalf("clean package: exit %d\nstdout: %s\nstderr: %s", code, out.String(), errOut.String())
	}
}

// TestSummaryMode checks -summary dumps effect summaries for the scheduler
// package (Proc.Wait must show Blocks).
func TestSummaryMode(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-summary", "./internal/sim"}, &out, &errOut); code != 0 {
		t.Fatalf("-summary: exit %d, stderr %s", code, errOut.String())
	}
	found := false
	for _, line := range strings.Split(out.String(), "\n") {
		if strings.Contains(line, "(Proc).Wait") && strings.Contains(line, "Blocks") {
			found = true
		}
	}
	if !found {
		t.Fatalf("-summary output lacks a Blocks line for (Proc).Wait:\n%s", out.String())
	}
}

// TestSARIFMode checks the -sarif envelope is valid SARIF 2.1.0.
func TestSARIFMode(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-sarif", "-rules", "simclock", "./internal/sim"}, &out, &errOut); code != 0 {
		t.Fatalf("-sarif: exit %d, stderr %s", code, errOut.String())
	}
	var log struct {
		Version string `json:"version"`
		Runs    []struct {
			Tool struct {
				Driver struct {
					Name  string `json:"name"`
					Rules []struct {
						ID string `json:"id"`
					} `json:"rules"`
				} `json:"driver"`
			} `json:"tool"`
			Results []json.RawMessage `json:"results"`
		} `json:"runs"`
	}
	if err := json.Unmarshal(out.Bytes(), &log); err != nil {
		t.Fatalf("-sarif output is not JSON: %v", err)
	}
	if log.Version != "2.1.0" || len(log.Runs) != 1 || log.Runs[0].Tool.Driver.Name != "mpivet" {
		t.Fatalf("unexpected SARIF envelope: %s", out.String())
	}
	if len(log.Runs[0].Tool.Driver.Rules) == 0 {
		t.Fatal("SARIF driver has no rules")
	}
	if log.Runs[0].Results == nil {
		t.Fatal("SARIF results must be present (empty array when clean)")
	}
}

// TestTimingMode pins the -timing contract: a per-analyzer wall-time table on
// stderr, led by the (load) and (callgraph) rows, a timings section in the
// -json report (absent without the flag so the golden artifact stays
// byte-stable), and the -max-rule-time budget that turns a slow analyzer
// into a failing exit for CI.
func TestTimingMode(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-timing", "-rules", "simclock", "./internal/sim"}, &out, &errOut); code != 0 {
		t.Fatalf("-timing: exit %d, stderr %s", code, errOut.String())
	}
	for _, row := range []string{"(load)", "(callgraph)", "simclock"} {
		if !strings.Contains(errOut.String(), row) || !strings.Contains(errOut.String(), "ms") {
			t.Fatalf("-timing stderr lacks the %s row of the wall-time table:\n%s", row, errOut.String())
		}
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-json", "-timing", "-rules", "simclock", "./internal/sim"}, &out, &errOut); code != 0 {
		t.Fatalf("-json -timing: exit %d, stderr %s", code, errOut.String())
	}
	var rep struct {
		Timings []struct {
			Rule   string  `json:"rule"`
			Millis float64 `json:"millis"`
		} `json:"timings"`
	}
	if err := json.Unmarshal(out.Bytes(), &rep); err != nil {
		t.Fatalf("-json -timing output is not JSON: %v", err)
	}
	rules := make(map[string]bool)
	for _, tm := range rep.Timings {
		rules[tm.Rule] = true
	}
	if !rules["simclock"] || !rules["(callgraph)"] || !rules["(load)"] {
		t.Fatalf("timings section missing simclock/(callgraph)/(load): %s", out.String())
	}

	out.Reset()
	errOut.Reset()
	if code := run([]string{"-json", "-rules", "simclock", "./internal/sim"}, &out, &errOut); code != 0 {
		t.Fatalf("-json: exit %d, stderr %s", code, errOut.String())
	}
	if strings.Contains(out.String(), "timings") {
		t.Fatalf("-json without -timing must omit the timings section:\n%s", out.String())
	}

	// An absurdly small budget turns the run into exit 1 with a named
	// offender; a generous one stays clean.
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-max-rule-time", "1ns", "-rules", "simclock", "./internal/sim"}, &out, &errOut); code != 1 {
		t.Fatalf("-max-rule-time 1ns: exit %d, want 1\nstderr: %s", code, errOut.String())
	}
	if !strings.Contains(errOut.String(), "over the 1ns budget") {
		t.Fatalf("budget breach not reported:\n%s", errOut.String())
	}
	out.Reset()
	errOut.Reset()
	if code := run([]string{"-max-rule-time", "10m", "-rules", "simclock", "./internal/sim"}, &out, &errOut); code != 0 {
		t.Fatalf("-max-rule-time 10m: exit %d, want 0\nstderr: %s", code, errOut.String())
	}
}

// TestJSONDeterminism runs the full pipeline twice over the same packages and
// requires byte-identical JSON — the ordering guarantee downstream tooling
// (and the golden CI artifact) depends on.
func TestJSONDeterminism(t *testing.T) {
	outputs := make([]string, 2)
	for i := range outputs {
		var out, errOut bytes.Buffer
		if code := run([]string{"-json", "./internal/sim", "./internal/core", "./internal/analysis"}, &out, &errOut); code != 0 {
			t.Fatalf("run %d: exit %d, stderr %s", i, code, errOut.String())
		}
		outputs[i] = out.String()
	}
	if outputs[0] != outputs[1] {
		t.Fatalf("two runs differ:\n--- first\n%s\n--- second\n%s", outputs[0], outputs[1])
	}
}
