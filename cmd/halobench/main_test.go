package main

import (
	"bytes"
	"strings"
	"testing"

	"mpipart/internal/bench"
	"mpipart/internal/cluster"
	"mpipart/internal/runner"
)

// TestNodesSelectsTopology checks that -nodes 1 and -nodes 2 measure the
// one- and two-node worlds: each printed table equals HaloJob run directly.
func TestNodesSelectsTopology(t *testing.T) {
	for nodes, topo := range map[string]cluster.Topology{
		"1": cluster.OneNodeGH200(),
		"2": cluster.TwoNodeGH200(),
	} {
		var out, errOut bytes.Buffer
		if code := run([]string{"-nodes", nodes, "-max", "256", "-workers", "1"}, &out, &errOut); code != 0 {
			t.Fatalf("-nodes %s: exit %d: %s", nodes, code, errOut.String())
		}
		var want bytes.Buffer
		bench.RunJob(runner.New(1), bench.HaloJob(topo, 256)).Fprint(&want)
		if out.String() != want.String() {
			t.Fatalf("-nodes %s differs from HaloJob:\n got %s\nwant %s", nodes, out.String(), want.String())
		}
	}
}

// TestUsageErrorsExit2 pins the usage-error exit code: a node count other
// than 1 or 2, an unknown flag and a -max below the smallest halo size (an
// empty sweep) exit 2 with a message naming the input, the usage on stderr
// and nothing on stdout.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-nodes", "3"}, "-nodes 3"},
		{[]string{"-nodes", "0"}, "-nodes 0"},
		{[]string{"-bogus"}, "-bogus"},
		{[]string{"-max", "128"}, "halobench: -max 128"},
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
