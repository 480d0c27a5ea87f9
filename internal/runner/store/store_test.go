package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"mpipart/internal/runner"
)

func open(t *testing.T) *DiskStore {
	t.Helper()
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s := open(t)
	key := runner.KeyOf("roundtrip", 7)
	want := runner.Metrics{"elapsed_ns": 12345, "bw_gbps": 149.73}
	if _, ok := s.Load(key); ok {
		t.Fatal("cold store reported a hit")
	}
	s.Save(key, want)
	got, ok := s.Load(key)
	if !ok || !got.Equal(want) {
		t.Fatalf("Load = %v, %v; want %v, true", got, ok, want)
	}
	st := s.Stats()
	if st.Hits != 1 || st.Misses != 1 || st.Saves != 1 || st.Corrupt != 0 || st.SaveErrors != 0 {
		t.Fatalf("stats = %+v", st)
	}
	// Exactness survives the JSON round trip: the gate compares float64s
	// bit-for-bit, so the store must too.
	if got["bw_gbps"] != 149.73 || got["elapsed_ns"] != 12345 {
		t.Fatalf("values drifted: %v", got)
	}
}

// logPath is the log of s's key schema.
func logPath(s *DiskStore) string {
	return filepath.Join(s.Root(), fmt.Sprintf("v%d", runner.KeySchema), "log.jsonl")
}

// appendRaw appends bytes to s's log behind the store's back, the way a
// crashed writer or a hand edit would.
func appendRaw(t *testing.T, s *DiskStore, raw string) {
	t.Helper()
	f, err := os.OpenFile(logPath(s), os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(raw); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
}

// entryLine is the log line Save writes for key and m.
func entryLine(t *testing.T, schema int, key string, m runner.Metrics) string {
	t.Helper()
	b, err := json.Marshal(entry{Schema: schema, Key: key, Metrics: m})
	if err != nil {
		t.Fatal(err)
	}
	return string(b) + "\n"
}

func TestLoadToleratesTruncatedEntry(t *testing.T) {
	s := open(t)
	key := runner.KeyOf("truncated")
	s.Save(key, runner.Metrics{"v": 1})
	path := logPath(s)
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	// A torn write: the log ends mid-line, as a crashed writer leaves it.
	torn := fi.Size() / 2
	if err := os.Truncate(path, torn); err != nil {
		t.Fatal(err)
	}
	if m, ok := s.Load(key); ok {
		t.Fatalf("truncated entry served: %v", m)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("truncation not counted corrupt: %+v", st)
	}
	// A fresh handle never indexes the torn line: a plain miss.
	fresh, err := Open(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := fresh.Load(key); ok || fresh.Stats().Corrupt != 0 {
		t.Fatalf("torn line indexed: %v, %v, %+v", m, ok, fresh.Stats())
	}
	// Recompute-and-save heals the key: the writer ends the torn line with a
	// newline of its own before appending its entry.
	s.Save(key, runner.Metrics{"v": 2})
	if m, ok := s.Load(key); !ok || m["v"] != 2 {
		t.Fatalf("healed entry = %v, %v", m, ok)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := entryLine(t, runner.KeySchema, key, runner.Metrics{"v": 2}); string(raw[torn:]) != "\n"+want {
		t.Fatalf("log after healing ends %q, want %q", raw[torn:], "\n"+want)
	}
	again, err := Open(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := again.Load(key); !ok || m["v"] != 2 || again.Stats().Corrupt != 0 {
		t.Fatalf("healed log reopened: %v, %v, %+v", m, ok, again.Stats())
	}
}

func TestLoadToleratesGarbage(t *testing.T) {
	s := open(t)
	// Lines that name no key are skipped: a later entry still indexes, and
	// the key they might have been is a plain miss.
	for _, payload := range []string{"not json at all \x00\xff", `{"schema":`, `[1,2,3]`, `null`, ``} {
		appendRaw(t, s, payload+"\n")
	}
	if m, ok := s.Load(runner.KeyOf("garbage", "unnamed")); ok {
		t.Fatalf("garbage served as %v", m)
	}
	// Lines that name a key but hold no valid entry are a corrupt miss.
	bad := []string{
		`{"schema":%d,"key":%q}`, // no metrics
		`{"schema":%d,"key":%q,"metrics":null}`,
		`{"schema":%d,"key":%q,"metrics":[1,2,3]}`,
		`{"schema":%d,"key":%q,"metrics":{"v":"x"}}`,
		`{"schema":%d,"key":%q,"metrics":"v"}`,
	}
	for i, format := range bad {
		key := runner.KeyOf("garbage", i)
		appendRaw(t, s, fmt.Sprintf(format, runner.KeySchema, key)+"\n")
		if m, ok := s.Load(key); ok {
			t.Fatalf("garbage line %d served as %v", i, m)
		}
	}
	if st := s.Stats(); st.Corrupt != len(bad) || st.Misses != len(bad)+1 {
		t.Fatalf("stats = %+v, want %d corrupt of %d misses", st, len(bad), len(bad)+1)
	}
	// A fresh handle indexes the whole log past the garbage.
	key := runner.KeyOf("garbage", "after")
	s.Save(key, runner.Metrics{"v": 1})
	fresh, err := Open(s.Root())
	if err != nil {
		t.Fatal(err)
	}
	if m, ok := fresh.Load(key); !ok || m["v"] != 1 {
		t.Fatalf("entry after garbage = %v, %v", m, ok)
	}
}

// TestSchemaBumpInvalidatesOldEntries is the satellite acceptance test: an
// entry written under an older key schema must never be served, whichever
// of the two defenses catches it. Defense one: each schema has its own log,
// so a log an older binary wrote is never opened. Defense two: even a line
// in the current log carrying an older embedded schema, e.g. copied across
// store roots by hand, is rejected on read.
func TestSchemaBumpInvalidatesOldEntries(t *testing.T) {
	s := open(t)
	key := runner.KeyOf("versioned", 1)
	appendRaw(t, s, entryLine(t, runner.KeySchema-1, key, runner.Metrics{"v": 666}))
	if m, ok := s.Load(key); ok {
		t.Fatalf("stale-schema entry served: %v", m)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("stale schema not counted corrupt: %+v", st)
	}

	// Defense one, directly: a complete entry in the previous schema's log
	// is not even read.
	old := filepath.Join(s.Root(), fmt.Sprintf("v%d", runner.KeySchema-1))
	other := runner.KeyOf("versioned", 2)
	if err := os.MkdirAll(old, 0o755); err != nil {
		t.Fatal(err)
	}
	line := entryLine(t, runner.KeySchema, other, runner.Metrics{"v": 666})
	if err := os.WriteFile(filepath.Join(old, "log.jsonl"), []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if m, ok := s.Load(other); ok {
		t.Fatalf("entry from another schema's log served: %v", m)
	}
	if st := s.Stats(); st.Corrupt != 1 {
		t.Fatalf("another schema's log was read: %+v", st)
	}
}

// TestLoadRejectsRelocatedEntry rewrites and then truncates the log under
// an open handle. The handle's offsets go stale: each must fail the key
// re-check and read as a miss, never as another key's metrics.
func TestLoadRejectsRelocatedEntry(t *testing.T) {
	s := open(t)
	a, b := runner.KeyOf("relocated", "a"), runner.KeyOf("relocated", "b")
	s.Save(a, runner.Metrics{"v": 1})
	s.Save(b, runner.Metrics{"v": 2})
	// Rewrite the log in place with the two (equally long) lines swapped:
	// a's offset now lands on b's line and b's on a's.
	swapped := entryLine(t, runner.KeySchema, b, runner.Metrics{"v": 2}) +
		entryLine(t, runner.KeySchema, a, runner.Metrics{"v": 1})
	if err := os.WriteFile(logPath(s), []byte(swapped), 0o644); err != nil {
		t.Fatal(err)
	}
	for _, k := range []string{a, b} {
		if m, ok := s.Load(k); ok {
			t.Fatalf("relocated entry served under wrong key: %v", m)
		}
	}
	if st := s.Stats(); st.Corrupt != 2 {
		t.Fatalf("relocated lines not counted corrupt: %+v", st)
	}
	// Truncated to nothing: the stale offsets read short.
	if err := os.Truncate(logPath(s), 0); err != nil {
		t.Fatal(err)
	}
	if m, ok := s.Load(a); ok {
		t.Fatalf("entry served from a truncated log: %v", m)
	}
	// The next save finds the log shorter than its index, re-indexes from
	// scratch and is served; b, gone with the truncation, is a plain miss.
	s.Save(a, runner.Metrics{"v": 3})
	if m, ok := s.Load(a); !ok || m["v"] != 3 {
		t.Fatalf("save after truncation = %v, %v", m, ok)
	}
	if m, ok := s.Load(b); ok {
		t.Fatalf("truncated key served: %v", m)
	}
	if st := s.Stats(); st.Corrupt != 3 {
		t.Fatalf("stats after truncation = %+v", st)
	}
}

// TestConcurrentWritersSameKey races many writers and readers on one key
// across two DiskStore handles. Each handle owns an open file, so flock
// orders them as it would two processes. Every successful read must observe
// one of the complete written values, and every save must leave exactly one
// whole line in the log.
func TestConcurrentWritersSameKey(t *testing.T) {
	dir := t.TempDir()
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	key := runner.KeyOf("contended")
	const writers, rounds = 8, 20
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		w := w
		s := s1
		if w%2 == 1 {
			s = s2
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < rounds; i++ {
				s.Save(key, runner.Metrics{"writer": float64(w), "round": float64(i)})
				if m, ok := s.Load(key); ok {
					// Whichever write won, the entry must be complete:
					// both fields present and in range.
					wr, okW := m["writer"]
					rd, okR := m["round"]
					if !okW || !okR || wr < 0 || wr >= writers || rd < 0 || rd >= rounds {
						t.Errorf("torn entry observed: %v", m)
						return
					}
				} else {
					t.Errorf("load after save missed")
					return
				}
			}
		}()
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}
	for _, s := range []*DiskStore{s1, s2} {
		if st := s.Stats(); st.SaveErrors != 0 || st.Corrupt != 0 {
			t.Fatalf("concurrent saves errored: %+v", st)
		}
	}
	lines := logLines(t, logPath(s1))
	if len(lines) != writers*rounds {
		t.Fatalf("log holds %d lines, want one per save (%d)", len(lines), writers*rounds)
	}
	for _, e := range lines {
		if e.Key != key || len(e.Metrics) != 2 {
			t.Fatalf("log line %+v is not a whole entry for %s", e, key)
		}
	}
}

// logLines decodes every line of a log, failing on any that does not parse
// as a whole entry at the current schema or on a missing final newline.
func logLines(t *testing.T, path string) []entry {
	t.Helper()
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(raw) == 0 || raw[len(raw)-1] != '\n' {
		t.Fatalf("log does not end a line: %q", raw[max(0, len(raw)-40):])
	}
	var out []entry
	for i, line := range strings.Split(string(raw[:len(raw)-1]), "\n") {
		var e entry
		if err := json.Unmarshal([]byte(line), &e); err != nil || e.Schema != runner.KeySchema || e.Metrics == nil {
			t.Fatalf("log line %d %q: %v", i, line, err)
		}
		out = append(out, e)
	}
	return out
}

func TestStoreLayout(t *testing.T) {
	s := open(t)
	key := runner.KeyOf("layout")
	s.Save(key, runner.Metrics{"v": 1})
	vdir := filepath.Join(s.Root(), fmt.Sprintf("v%d", runner.KeySchema))
	ents, err := os.ReadDir(vdir)
	if err != nil {
		t.Fatal(err)
	}
	if len(ents) != 1 || ents[0].Name() != "log.jsonl" || !ents[0].Type().IsRegular() {
		t.Fatalf("%s holds %v, want only log.jsonl", vdir, ents)
	}
	raw, err := os.ReadFile(filepath.Join(vdir, "log.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if want := entryLine(t, runner.KeySchema, key, runner.Metrics{"v": 1}); string(raw) != want {
		t.Fatalf("log = %q, want the one line %q", raw, want)
	}
}

func TestOpenCreatesRootAndFailsOnFile(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "nested", "root")
	if _, err := Open(dir); err != nil {
		t.Fatalf("Open on fresh nested dir: %v", err)
	}
	f := filepath.Join(t.TempDir(), "occupied")
	if err := os.WriteFile(f, []byte("x"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(f); err == nil {
		t.Fatal("Open over a regular file succeeded")
	}
}

// TestDiskStoreBehindRunner is the integration shape the daemon and the
// warm-cache CI job rely on: a cold process computes and persists, a fresh
// process over the same root replays the whole sweep with zero recomputes.
func TestDiskStoreBehindRunner(t *testing.T) {
	dir := t.TempDir()
	mk := func(calls *int) []runner.Point {
		var pts []runner.Point
		for i := 0; i < 6; i++ {
			i := i
			pts = append(pts, runner.Point{
				ID:  fmt.Sprintf("p%d", i),
				Key: runner.KeyOf("integration", i),
				Run: func() runner.Metrics {
					*calls++
					return runner.Metrics{"v": float64(i * i)}
				},
			})
		}
		return pts
	}
	s1, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var cold int
	first := runner.NewWithStore(1, s1).Run(mk(&cold))
	if cold != 6 {
		t.Fatalf("cold computes = %d", cold)
	}

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	var warm int
	r := runner.NewWithStore(1, s2)
	second := r.Run(mk(&warm))
	if warm != 0 {
		t.Fatalf("warm process recomputed %d points", warm)
	}
	if cs := r.CacheStats(); cs.Computed != 0 || cs.StoreHits != 6 {
		t.Fatalf("warm stats = %+v", cs)
	}
	for i := range first {
		if !first[i].Equal(second[i]) {
			t.Fatalf("point %d drifted across processes: %v vs %v", i, first[i], second[i])
		}
	}
}
