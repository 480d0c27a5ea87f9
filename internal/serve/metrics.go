package serve

import (
	"encoding/csv"
	"io"
	"strconv"
	"sync"

	"mpipart/internal/runner/store"
)

// RequestMetrics is the flat, CSV-friendly record of one point served: one
// row per request with every timing in place, no nesting, so a sweep
// client's /metrics dump drops straight into the same plotting pipeline as
// the figure CSVs.
type RequestMetrics struct {
	// Seq is the server-assigned completion sequence number.
	Seq int64 `json:"seq"`
	// Point is the catalog point ID ("fig4/g=64/kernel_copy").
	Point string `json:"point"`
	// Key is the content-addressed memoization key the point resolved to.
	Key string `json:"key"`
	// Source is the cache disposition: memory, computed, store,
	// coalesced, error or unknown.
	Source string `json:"source"`
	// QueueUS is the wait for a compute slot, in host microseconds
	// (computed requests only).
	QueueUS float64 `json:"queue_us"`
	// ComputeUS is the simulation's host execution time in microseconds
	// (computed requests only).
	ComputeUS float64 `json:"compute_us"`
	// TotalUS spans request admission to response assembly.
	TotalUS float64 `json:"total_us"`
}

// requestCSVHeader is the column order of the CSV rendering; it must match
// csvRow below.
var requestCSVHeader = []string{"seq", "point", "key", "source", "queue_us", "compute_us", "total_us"}

func (m RequestMetrics) csvRow() []string {
	f := func(v float64) string { return strconv.FormatFloat(v, 'f', 3, 64) }
	return []string{
		strconv.FormatInt(m.Seq, 10), m.Point, m.Key, m.Source,
		f(m.QueueUS), f(m.ComputeUS), f(m.TotalUS),
	}
}

// Totals aggregates every request served since daemon start.
type Totals struct {
	Batches   int64 `json:"batches"`
	Requests  int64 `json:"requests"`
	MemHits   int64 `json:"mem_hits"`
	Computed  int64 `json:"computed"`
	StoreHits int64 `json:"store_hits"`
	Coalesced int64 `json:"coalesced"`
	Errors    int64 `json:"errors"`
	Unknown   int64 `json:"unknown"`
	// Cumulative timing sums in host microseconds; divide by the matching
	// counters for means.
	QueueUSSum   float64 `json:"queue_us_sum"`
	ComputeUSSum float64 `json:"compute_us_sum"`
	TotalUSSum   float64 `json:"total_us_sum"`
}

// Snapshot is the GET /metrics payload: lifetime totals, the persistent
// store's own counters (when one is attached), and the most recent
// per-request records, newest last.
type Snapshot struct {
	Totals Totals `json:"totals"`
	// Store carries the disk store's hit/miss/corrupt/save counters; nil
	// when the daemon runs without a persistent store.
	Store  *store.Stats     `json:"store,omitempty"`
	Recent []RequestMetrics `json:"recent"`
}

// collector accumulates totals plus a bounded ring of recent requests.
//
// Concurrency contract: record/batchDone run on batch worker goroutines
// while snapshot serves GET /metrics; every counter, the sequence number and
// the ring are guarded by mu, and nothing is read outside it. Checked
// statically by mpivet/racelock and dynamically by
// TestCollectorConcurrentInvariant under -race.
type collector struct {
	mu     sync.Mutex
	totals Totals
	seq    int64
	recent []RequestMetrics // ring buffer
	next   int              // ring write cursor
	filled bool
}

func newCollector(recent int) *collector {
	if recent <= 0 {
		recent = 512
	}
	return &collector{recent: make([]RequestMetrics, recent)}
}

// record stamps a sequence number on one served request and folds it into
// the totals and the recent ring.
func (c *collector) record(m RequestMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.seq++
	m.Seq = c.seq
	c.totals.Requests++
	switch m.Source {
	case SourceMemory:
		c.totals.MemHits++
	case SourceComputed:
		c.totals.Computed++
	case SourceStore:
		c.totals.StoreHits++
	case SourceCoalesced:
		c.totals.Coalesced++
	case SourceError:
		c.totals.Errors++
	case SourceUnknown:
		c.totals.Unknown++
	}
	c.totals.QueueUSSum += m.QueueUS
	c.totals.ComputeUSSum += m.ComputeUS
	c.totals.TotalUSSum += m.TotalUS
	c.recent[c.next] = m
	c.next++
	if c.next == len(c.recent) {
		c.next, c.filled = 0, true
	}
}

func (c *collector) batchDone() {
	c.mu.Lock()
	c.totals.Batches++
	c.mu.Unlock()
}

// snapshot returns the totals and the recent requests oldest-first.
func (c *collector) snapshot() (Totals, []RequestMetrics) {
	c.mu.Lock()
	defer c.mu.Unlock()
	var out []RequestMetrics
	if c.filled {
		out = append(out, c.recent[c.next:]...)
		out = append(out, c.recent[:c.next]...)
	} else {
		out = append(out, c.recent[:c.next]...)
	}
	return c.totals, out
}

// writeCSV renders the recent requests as CSV, header first.
func writeCSV(w io.Writer, rows []RequestMetrics) error {
	cw := csv.NewWriter(w)
	if err := cw.Write(requestCSVHeader); err != nil {
		return err
	}
	for _, m := range rows {
		if err := cw.Write(m.csvRow()); err != nil {
			return err
		}
	}
	cw.Flush()
	return cw.Error()
}
