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

// TestUsageErrorsExit2 pins the usage-error exit code: an unknown kind, an
// unknown flag and a -max below the kind's smallest message size (an empty
// sweep) exit 2 with a message naming the input, the usage on stderr and
// nothing on stdout.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-kind", "nope"}, `unknown OSU kind "nope"`},
		{[]string{"-bogus"}, "-bogus"},
		{[]string{"-kind", "platency", "-max", "2"}, "osu: -max 2"},
		{[]string{"-max", "0"}, "osu: -max 0"},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", tc.args, code, out.String())
		}
		if !strings.Contains(errOut.String(), tc.msg) || !strings.Contains(errOut.String(), "Usage") {
			t.Errorf("%v: stderr lacks %q and the usage message: %q", tc.args, tc.msg, errOut.String())
		}
	}
}
