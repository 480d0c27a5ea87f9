// Package store persists sweep results behind the runner's memo map,
// content-addressed by memoization key, in one append-only log per key
// schema: <root>/v<KeySchema>/log.jsonl, one JSON line per save, where the
// last line for a key wins. Any number of goroutines and processes may share
// a root. Every line embeds its key schema and full key, and every read
// re-checks both: any failure (absent key, torn or garbage line, stale
// offset, schema or key mismatch) is a miss, never an error and never a wrong
// or stale result. A schema bump starts a new log and changes every key.
package store

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/maphash"
	"io"
	"os"
	"path/filepath"
	"sync"
	"syscall"

	"mpipart/internal/runner"
)

// entry is one log line; a read re-checks its Schema and Key.
type entry struct {
	Schema  int            `json:"schema"`
	Key     string         `json:"key"`
	Metrics runner.Metrics `json:"metrics"`
}

// Stats are the store's operation counters. Corrupt counts the Misses on an
// unreadable or invalid indexed line; a SaveError loses only persistence.
type Stats struct {
	Hits       int `json:"hits"`
	Misses     int `json:"misses"`
	Corrupt    int `json:"corrupt"`
	Saves      int `json:"saves"`
	SaveErrors int `json:"save_errors"`
}

// DiskStore implements runner.Store over a root directory, safe for concurrent
// use by goroutines and processes. Concurrency contract: flock(LOCK_EX) orders
// appends across processes and handles; mu orders this handle's goroutines,
// which share one flock. The index, its end and the stats change only under
// mu (mpivet/racelock, TestStatsConcurrentInvariant, TestMultiProcessWriters).
type DiskStore struct {
	root string
	log  *os.File // opened O_APPEND, kept open for the process's lifetime
	seed maphash.Seed

	mu sync.Mutex
	// index maps key hashes to the offset of each key's last line; colliding
	// keys read each other's lines, which the key re-check makes misses.
	index map[uint64]int64
	end   int64 // the log is indexed up to here, a line boundary
	stats Stats
}

// Open returns a DiskStore rooted at dir, creating the per-schema directory
// and its log if needed. The first lookup indexes the log.
func Open(dir string) (*DiskStore, error) {
	vdir := filepath.Join(dir, fmt.Sprintf("v%d", runner.KeySchema))
	if err := os.MkdirAll(vdir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	f, err := os.OpenFile(filepath.Join(vdir, "log.jsonl"), os.O_RDWR|os.O_APPEND|os.O_CREATE, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	return &DiskStore{root: dir, log: f, seed: maphash.MakeSeed(), index: map[uint64]int64{}}, nil
}

// Root returns the store's root directory.
func (s *DiskStore) Root() string { return s.root }

// Stats returns the operation counters so far.
func (s *DiskStore) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// catchUp indexes the lines past s.end, skipping any that names no key, and
// returns the log size; bytes no newline ends yet (a line in flight, a torn
// tail) wait. A log shorter than s.end was truncated. The caller holds mu.
func (s *DiskStore) catchUp() (int64, error) {
	size, err := s.log.Seek(0, io.SeekEnd) // O_APPEND writes ignore the offset
	if err != nil {
		return 0, err
	}
	if size < s.end {
		s.index, s.end = map[uint64]int64{}, 0
	}
	r := bufio.NewReaderSize(io.NewSectionReader(s.log, s.end, size-s.end), int(min(size-s.end, 64<<10)))
	for {
		line, err := r.ReadBytes('\n')
		if err == io.EOF {
			return size, nil // no newline ends what is left
		} else if err != nil {
			return 0, err
		}
		var h struct{ Key string }
		if json.Unmarshal(line, &h) == nil && h.Key != "" {
			s.index[maphash.String(s.seed, h.Key)] = s.end
		}
		s.end += int64(len(line))
	}
}

// Load implements runner.Store, reading the log's tail for a key not indexed.
func (s *DiskStore) Load(key string) (runner.Metrics, bool) {
	h := maphash.String(s.seed, key)
	s.mu.Lock()
	off, ok := s.index[h]
	if !ok {
		_, _ = s.catchUp() // a failed refresh leaves a miss
		if off, ok = s.index[h]; !ok {
			s.stats.Misses++
			s.mu.Unlock()
			return nil, false
		}
	}
	s.mu.Unlock()
	var e entry
	line, err := bufio.NewReaderSize(io.NewSectionReader(s.log, off, 1<<62), 512).ReadBytes('\n')
	ok = err == nil && json.Unmarshal(line, &e) == nil &&
		e.Schema == runner.KeySchema && e.Key == key && e.Metrics != nil
	s.mu.Lock()
	defer s.mu.Unlock()
	if !ok {
		s.stats.Misses++
		s.stats.Corrupt++
		return nil, false
	}
	s.stats.Hits++
	return e.Metrics, true
}

// Save implements runner.Store: it appends metrics under key as one line.
// Errors are counted, not returned: the computation already succeeded.
func (s *DiskStore) Save(key string, m runner.Metrics) {
	b, err := json.Marshal(entry{Schema: runner.KeySchema, Key: key, Metrics: m})
	s.mu.Lock()
	defer s.mu.Unlock()
	if err != nil || s.append(key, b) != nil {
		s.stats.SaveErrors++
		return
	}
	s.stats.Saves++
}

// append catches the index up under flock, then writes b and a newline in
// one write, after a torn tail a newline first. The caller holds mu.
func (s *DiskStore) append(key string, b []byte) error {
	fd := int(s.log.Fd())
	if err := syscall.Flock(fd, syscall.LOCK_EX); err != nil {
		return err
	}
	defer syscall.Flock(fd, syscall.LOCK_UN) // cannot fail on an open descriptor
	size, err := s.catchUp()
	if err != nil {
		return err
	}
	line, off := append(b, '\n'), size
	if s.end < size {
		line, off = append([]byte{'\n'}, line...), size+1
	}
	if _, err := s.log.Write(line); err != nil {
		return err
	}
	s.index[maphash.String(s.seed, key)], s.end = off, size+int64(len(line))
	return nil
}
