package main

import (
	"bytes"
	"strconv"
	"strings"
	"testing"

	"mpipart/internal/bench"
	"mpipart/internal/runner"
)

// figures runs the command with args and returns its exit code and stdout.
func figures(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errOut bytes.Buffer
	code := run(args, &out, &errOut)
	if code != 0 && errOut.Len() == 0 {
		t.Errorf("%v: exit %d with nothing on stderr", args, code)
	}
	return code, out.String()
}

// TestPointPrintsMetrics checks -point's line format against the catalog
// point run directly: the ID, then name=value per metric in name order.
func TestPointPrintsMetrics(t *testing.T) {
	code, out := figures(t, "-point", "table1/overheads", "-workers", "1")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	ms := runner.New(1).Run([]runner.Point{bench.Catalog()["table1/overheads"]})[0]
	want := "table1/overheads"
	for _, name := range ms.Keys() {
		want += " " + name + "=" + strconv.FormatFloat(ms[name], 'g', -1, 64)
	}
	if out != want+"\n" {
		t.Fatalf("-point table1/overheads:\n got %q\nwant %q", out, want+"\n")
	}
}

// TestPointGlobSortedByID checks that a glob prints every match once, in
// sorted ID order, also when a second pattern names a point again.
func TestPointGlobSortedByID(t *testing.T) {
	code, out := figures(t, "-point", "fig4/g=1024/*,fig4/g=1024/sendrecv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var ids []string
	for _, line := range strings.Split(strings.TrimSuffix(out, "\n"), "\n") {
		ids = append(ids, strings.Fields(line)[0])
	}
	want := []string{"fig4/g=1024/kernel_copy", "fig4/g=1024/prog_engine", "fig4/g=1024/sendrecv"}
	if strings.Join(ids, " ") != strings.Join(want, " ") {
		t.Fatalf("IDs %v, want %v", ids, want)
	}
}

// TestUsageErrorsExit2 pins the usage-error exit code: an ID or glob
// naming no catalog point, a malformed glob, -point combined with a table
// flag, an unknown figure or table, -require-warm without -store, and a
// cap that leaves a selected figure without points each exit 2 with a
// message naming the input and nothing on stdout.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-point", "fig4/g=1024/nope"}, "fig4/g=1024/nope"},
		{[]string{"-point", "table1/overheads,nope/*"}, "nope/*"},
		{[]string{"-point", "["}, `-point "["`},
		{[]string{"-point", "table1/overheads", "-fig", "4"}, "-fig"},
		{[]string{"-point", "table1/overheads", "-all"}, "-all"},
		{[]string{"-fig", "12"}, "unknown figure 12"},
		{[]string{"-table", "2"}, "unknown table 2"},
		{[]string{"-require-warm"}, "-require-warm needs -store"},
		{[]string{"-fig", "4", "-max-grid", "0"}, "-max-grid 0 leaves fig4"},
		{[]string{"-fig", "6", "-max-grid", "64"}, "-max-grid 64 leaves fig6"},
		{[]string{"-fig", "8", "-max-mult", "0"}, "-max-mult 0 leaves fig8"},
		{[]string{"-all", "-max-grid", "64"}, "-max-grid 64 leaves fig6"},
	} {
		var out, errOut bytes.Buffer
		if code := run(tc.args, &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", tc.args, code, out.String())
		}
		if !strings.Contains(errOut.String(), tc.msg) {
			t.Errorf("%v: stderr %q lacks %q", tc.args, errOut.String(), tc.msg)
		}
	}
}

// TestFigMatchesJob checks that -fig N selects Jobs' figN at the default
// caps: its CSV equals the job run directly.
func TestFigMatchesJob(t *testing.T) {
	code, out := figures(t, "-fig", "4", "-csv")
	if code != 0 {
		t.Fatalf("exit %d", code)
	}
	var want bytes.Buffer
	bench.RunJob(runner.New(1), bench.Fig4Job(2048)).CSV(&want)
	if out != want.String() {
		t.Fatalf("-fig 4 -csv differs from Fig4Job(2048):\n got %s\nwant %s", out, want.String())
	}
}
