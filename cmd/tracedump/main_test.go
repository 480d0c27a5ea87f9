package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestScenariosWriteTrace checks that both scenarios run and write a
// Chrome trace-event array with at least one complete span, and that the
// summary line counts the events written.
func TestScenariosWriteTrace(t *testing.T) {
	for _, args := range [][]string{
		{"-scenario", "p2p", "-grid", "3"},
		{"-scenario", "allreduce", "-grid", "4"},
	} {
		file := filepath.Join(t.TempDir(), "trace.json")
		var out, errOut bytes.Buffer
		if code := run(append(args, "-o", file), &out, &errOut); code != 0 {
			t.Fatalf("%v: exit %d: %s", args, code, errOut.String())
		}
		data, err := os.ReadFile(file)
		if err != nil {
			t.Fatal(err)
		}
		var events []struct {
			Ph string `json:"ph"`
		}
		if err := json.Unmarshal(data, &events); err != nil {
			t.Fatalf("%v: trace is not a JSON event array: %v", args, err)
		}
		spans := 0
		for _, e := range events {
			if e.Ph == "X" {
				spans++
			}
		}
		if spans == 0 {
			t.Errorf("%v: trace has no complete spans", args)
		}
		if !strings.HasPrefix(out.String(), "wrote ") || !strings.Contains(out.String(), file) {
			t.Errorf("%v: stdout %q lacks the summary line", args, out.String())
		}
	}
}

// TestUsageErrorsExit2 pins the usage-error exit code: a grid below 1, an
// odd allreduce grid (two partitions of grid/2 blocks each), an unknown
// scenario and an unknown flag exit 2 with a message on stderr, nothing on
// stdout and no trace file.
func TestUsageErrorsExit2(t *testing.T) {
	for _, tc := range []struct {
		args []string
		msg  string
	}{
		{[]string{"-grid", "0"}, "-grid 0"},
		{[]string{"-scenario", "allreduce", "-grid", "-2"}, "-grid -2"},
		{[]string{"-scenario", "allreduce", "-grid", "1"}, "-grid 1"},
		{[]string{"-scenario", "allreduce", "-grid", "3"}, "-grid 3"},
		{[]string{"-scenario", "nope"}, "-scenario \"nope\""},
		{[]string{"-bogus"}, "-bogus"},
	} {
		file := filepath.Join(t.TempDir(), "trace.json")
		var out, errOut bytes.Buffer
		if code := run(append(tc.args, "-o", file), &out, &errOut); code != 2 || out.Len() != 0 {
			t.Errorf("%v: exit %d, stdout %q; want exit 2 and no output", tc.args, code, out.String())
		}
		if !strings.Contains(errOut.String(), tc.msg) || !strings.Contains(errOut.String(), "Usage") {
			t.Errorf("%v: stderr lacks %q and the usage message: %q", tc.args, tc.msg, errOut.String())
		}
		if _, err := os.Stat(file); err == nil {
			t.Errorf("%v: wrote a trace file", tc.args)
		}
	}
}
