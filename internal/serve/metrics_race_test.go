package serve

import (
	"sync"
	"testing"
)

// TestCollectorConcurrentInvariant hammers the collector from concurrent
// recorders, a batch closer and snapshot readers — the exact interleaving the
// daemon produces when worker goroutines finish requests while GET /metrics
// is being served — and checks the lifetime totals balance afterwards. Run
// under -race this also pins that every counter access stays under c.mu
// (mpivet/racelock's triage conclusion for this type).
func TestCollectorConcurrentInvariant(t *testing.T) {
	const (
		writers    = 8
		perWriter  = 200
		ringSize   = 64
		srcCycleSz = 6
	)
	sources := []string{SourceMemory, SourceComputed, SourceStore, SourceCoalesced, SourceError, SourceUnknown}
	c := newCollector(ringSize)

	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				c.record(RequestMetrics{
					Point:     "race/point",
					Source:    sources[(w+i)%srcCycleSz],
					QueueUS:   1,
					ComputeUS: 2,
					TotalUS:   3,
				})
			}
			c.batchDone()
		}(w)
	}
	// Concurrent readers: snapshots taken mid-flight must each be internally
	// consistent (sequence numbers dense, counters never exceeding requests).
	done := make(chan struct{})
	var rg sync.WaitGroup
	for r := 0; r < 4; r++ {
		rg.Add(1)
		go func() {
			defer rg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				tot, recent := c.snapshot()
				byKind := tot.MemHits + tot.Computed + tot.StoreHits + tot.Coalesced + tot.Errors + tot.Unknown
				if byKind != tot.Requests {
					t.Errorf("mid-flight snapshot unbalanced: per-source sum %d != requests %d", byKind, tot.Requests)
					return
				}
				if len(recent) > ringSize {
					t.Errorf("recent overflows the ring: %d > %d", len(recent), ringSize)
					return
				}
			}
		}()
	}
	wg.Wait()
	close(done)
	rg.Wait()

	tot, recent := c.snapshot()
	total := int64(writers * perWriter)
	if tot.Requests != total {
		t.Fatalf("requests = %d, want %d", tot.Requests, total)
	}
	if got := tot.MemHits + tot.Computed + tot.StoreHits + tot.Coalesced + tot.Errors + tot.Unknown; got != total {
		t.Fatalf("per-source sum = %d, want %d (totals %+v)", got, total, tot)
	}
	if tot.Batches != writers {
		t.Fatalf("batches = %d, want %d", tot.Batches, writers)
	}
	if tot.QueueUSSum != float64(total) || tot.ComputeUSSum != 2*float64(total) || tot.TotalUSSum != 3*float64(total) {
		t.Fatalf("timing sums drifted: %+v", tot)
	}
	if len(recent) != ringSize {
		t.Fatalf("recent = %d rows, want a full ring of %d", len(recent), ringSize)
	}
	// Sequence numbers are assigned under the same lock as the ring write,
	// so the oldest-first snapshot must be strictly increasing.
	for i := 1; i < len(recent); i++ {
		if recent[i].Seq <= recent[i-1].Seq {
			t.Fatalf("ring out of order at %d: %d then %d", i, recent[i-1].Seq, recent[i].Seq)
		}
	}
}
