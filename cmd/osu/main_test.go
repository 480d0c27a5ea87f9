package main

import (
	"bytes"
	"strings"
	"testing"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/runner"
)

// TestKindMatchesJob checks that -kind selects OSUJob's sweep: the printed
// table equals the job run directly.
func TestKindMatchesJob(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := run([]string{"-kind", "bw", "-max", "64", "-workers", "1"}, &out, &errOut); code != 0 {
		t.Fatalf("exit %d: %s", code, errOut.String())
	}
	job, err := bench.OSUJob("bw", cluster.OneNodeGH200(), 1, 64)
	if err != nil {
		t.Fatal(err)
	}
	var want bytes.Buffer
	bench.RunJob(runner.New(1), job).Fprint(&want)
	if out.String() != want.String() {
		t.Fatalf("-kind bw differs from OSUJob:\n got %s\nwant %s", out.String(), want.String())
	}
}

// TestUsageErrorsExit2 pins the usage-error exit code: an unknown kind and
// an unknown flag exit 2 with a message on stderr and nothing on stdout.
func TestUsageErrorsExit2(t *testing.T) {
	for _, args := range [][]string{
		{"-kind", "nope"},
		{"-bogus"},
	} {
		var out, errOut bytes.Buffer
		if code := run(args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", args, code, out.String())
		}
		if !strings.Contains(errOut.String(), "Usage") {
			t.Errorf("%v: stderr lacks the usage message: %q", args, errOut.String())
		}
	}
}
