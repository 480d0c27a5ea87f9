package store

import (
	"bytes"
	"fmt"
	"os"
	"os/exec"
	"strconv"
	"strings"
	"testing"

	"mpipart/internal/runner"
)

// writerEnv, when set to "<root>,<id>", turns the test binary into one
// writer process of TestMultiProcessWriters.
const writerEnv = "MPIPART_STORE_TEST_WRITER"

// The writer processes: procs of them, each saving procKeys shared keys
// procRounds times.
const procs, procKeys, procRounds = 4, 8, 40

func TestMain(m *testing.M) {
	if arg := os.Getenv(writerEnv); arg != "" {
		os.Exit(writerMain(arg))
	}
	os.Exit(m.Run())
}

// procEntry checks that m is one whole value a writer process saved for
// shared key k.
func procEntry(m runner.Metrics, k int) bool {
	w, r := m["writer"], m["round"]
	return len(m) == 3 && m["k"] == float64(k) && w >= 0 && w < procs && r >= 0 && r < procRounds
}

// writerMain is one writer process: it saves every shared key each round,
// reads it straight back, and exits 1 on a miss, a torn value or a counted
// error.
func writerMain(arg string) int {
	root, id, _ := strings.Cut(arg, ",")
	w, err := strconv.Atoi(id)
	if err != nil {
		fmt.Fprintln(os.Stderr, "writer id:", err)
		return 1
	}
	s, err := Open(root)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 1
	}
	for i := 0; i < procRounds; i++ {
		for k := 0; k < procKeys; k++ {
			key := runner.KeyOf("multiproc", k)
			s.Save(key, runner.Metrics{"writer": float64(w), "round": float64(i), "k": float64(k)})
			if m, ok := s.Load(key); !ok || !procEntry(m, k) {
				fmt.Fprintf(os.Stderr, "writer %d round %d: key %d read %v, %v\n", w, i, k, m, ok)
				return 1
			}
		}
	}
	if st := s.Stats(); st.SaveErrors != 0 || st.Corrupt != 0 {
		fmt.Fprintf(os.Stderr, "writer %d: %+v\n", w, st)
		return 1
	}
	return 0
}

// TestMultiProcessWriters runs the flock contract across real processes:
// the test binary re-runs itself as procs writers saving overlapping keys on
// one root at once. Afterwards a fresh handle must load every key as one
// complete written value, and every log line must parse.
func TestMultiProcessWriters(t *testing.T) {
	root := t.TempDir()
	cmds := make([]*exec.Cmd, procs)
	outs := make([]bytes.Buffer, procs)
	for w := range cmds {
		cmd := exec.Command(os.Args[0], "-test.run=^$")
		cmd.Env = append(os.Environ(), fmt.Sprintf("%s=%s,%d", writerEnv, root, w))
		cmd.Stdout, cmd.Stderr = &outs[w], &outs[w]
		if err := cmd.Start(); err != nil {
			t.Errorf("starting writer %d: %v", w, err)
			continue
		}
		cmds[w] = cmd
	}
	for w, cmd := range cmds {
		if cmd == nil {
			continue
		}
		if err := cmd.Wait(); err != nil {
			t.Errorf("writer %d: %v\n%s", w, err, outs[w].Bytes())
		}
	}
	if t.Failed() {
		t.FailNow()
	}

	s, err := Open(root)
	if err != nil {
		t.Fatal(err)
	}
	for k := 0; k < procKeys; k++ {
		if m, ok := s.Load(runner.KeyOf("multiproc", k)); !ok || !procEntry(m, k) {
			t.Fatalf("key %d after the writers: %v, %v", k, m, ok)
		}
	}
	if st := s.Stats(); st.Corrupt != 0 {
		t.Fatalf("fresh handle counted corrupt lines: %+v", st)
	}
	if n := len(logLines(t, logPath(s))); n != procs*procKeys*procRounds {
		t.Fatalf("log holds %d lines, want one per save (%d)", n, procs*procKeys*procRounds)
	}
}
