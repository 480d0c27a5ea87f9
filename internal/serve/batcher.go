// Package serve is the sweep-serving layer: an HTTP daemon (cmd/sweepd)
// through which clients POST batches of sweep requests — catalog point IDs,
// optionally under a perturbed cost model — and receive the deterministic
// virtual-time metrics back. It composes four pieces:
//
//   - a memo in the Server of every default-catalog result resolved so
//     far, which answers warm catalog points without a store read;
//   - a Batcher that coalesces concurrent identical requests into one
//     computation over a bounded compute pool and fans the result out;
//   - a persistent content-addressed store (internal/runner/store) behind
//     the batcher, so results survive the process and warm every later
//     client — including CI's nightly cache-warm job;
//   - a per-request metrics layer (flat, CSV-friendly structs) recording
//     queue/compute/cache-hit timings, exposed at /metrics.
//
// The simulation is deterministic, so a result is a pure function of its
// content-addressed key: serving from memory, from disk, or freshly
// computed are observationally identical, and the benchgate golden passes
// byte-identically through every path. The package is host-side
// orchestration, deliberately outside the sim-driven set: it uses real
// time, real goroutines and real sockets, never the virtual clock.
package serve

import (
	"fmt"
	"runtime"
	"sync"
	"time"

	"mpipart/internal/runner"
)

// Sources classify how a request was satisfied.
const (
	// SourceMemory: a default-catalog point the Server had already
	// resolved, answered from its memo without the batcher or the store.
	SourceMemory = "memory"
	// SourceComputed: this request ran the simulation.
	SourceComputed = "computed"
	// SourceStore: served from the persistent content-addressed store.
	SourceStore = "store"
	// SourceCoalesced: shared the result of an identical request, either
	// in flight in the batcher or earlier in the same batch.
	SourceCoalesced = "coalesced"
	// SourceError: the computation panicked, or the override model is
	// invalid; Err carries the cause.
	SourceError = "error"
	// SourceUnknown: the request named no catalog point.
	SourceUnknown = "unknown"
)

// Result is the outcome of one Batcher.Do call.
type Result struct {
	Metrics runner.Metrics
	// Source is the cache disposition (SourceComputed, SourceStore,
	// SourceCoalesced or SourceError).
	Source string
	// Queue is how long the request waited for a compute slot (leader
	// computations only; zero for store hits and coalesced followers).
	Queue time.Duration
	// Compute is the simulation's host execution time (leader only).
	Compute time.Duration
	// Total spans Do entry to return, whatever the path.
	Total time.Duration
	// Err is non-nil if the computation failed; Metrics is nil then.
	Err error
}

// flight is one in-flight resolution; followers wait on done and copy res.
type flight struct {
	done chan struct{}
	res  Result
}

// Batcher coalesces concurrent identical computations by key and fans the
// result out to every waiter. The first caller of a key becomes its leader:
// it consults the store, computes on a miss (bounded by the compute pool),
// and writes back; callers arriving while the flight is open share its
// result without recomputing. Finished flights are dropped — the
// Server's catalog memo and the persistent store are the caches — so the
// flight table stays bounded by concurrency, not by history.
type Batcher struct {
	store runner.Store  // optional persistent layer; nil = compute-only
	sem   chan struct{} // bounds concurrent simulations

	mu       sync.Mutex
	inflight map[string]*flight
}

// NewBatcher returns a Batcher computing through at most workers
// simulations at once (<= 0 selects GOMAXPROCS), over an optional
// persistent store.
func NewBatcher(workers int, st runner.Store) *Batcher {
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return &Batcher{
		store:    st,
		sem:      make(chan struct{}, workers),
		inflight: make(map[string]*flight),
	}
}

// Do resolves key, running compute at most once across all concurrent
// callers. It never panics: a panicking compute is captured into
// Result.Err for every waiter and is not stored, so the next non-concurrent
// request retries it.
func (b *Batcher) Do(key string, compute func() runner.Metrics) Result {
	t0 := time.Now()
	b.mu.Lock()
	if f, ok := b.inflight[key]; ok {
		b.mu.Unlock()
		<-f.done
		res := f.res
		res.Source = SourceCoalesced
		if res.Err != nil {
			res.Source = SourceError
		}
		res.Queue, res.Compute = 0, 0
		res.Total = time.Since(t0)
		return res
	}
	f := &flight{done: make(chan struct{})}
	b.inflight[key] = f
	b.mu.Unlock()

	f.res = b.lead(key, compute, t0)
	// Drop the flight before publishing: a request arriving after the
	// store write must start fresh (and hit the store) rather than join a
	// completed flight.
	b.mu.Lock()
	delete(b.inflight, key)
	b.mu.Unlock()
	close(f.done)
	return f.res
}

// lead is the leader's path: store probe, then bounded compute + write-back.
func (b *Batcher) lead(key string, compute func() runner.Metrics, t0 time.Time) Result {
	if b.store != nil {
		if m, ok := b.store.Load(key); ok {
			return Result{Metrics: m, Source: SourceStore, Total: time.Since(t0)}
		}
	}
	b.sem <- struct{}{}
	queued := time.Since(t0)
	tc := time.Now()
	m, err := runSafely(key, compute)
	computed := time.Since(tc)
	<-b.sem
	if err != nil {
		return Result{Source: SourceError, Queue: queued, Compute: computed, Total: time.Since(t0), Err: err}
	}
	if b.store != nil {
		b.store.Save(key, m)
	}
	return Result{
		Metrics: m,
		Source:  SourceComputed,
		Queue:   queued,
		Compute: computed,
		Total:   time.Since(t0),
	}
}

// runSafely executes one simulation, converting a panic into an error so a
// malformed point cannot take the daemon down.
func runSafely(key string, compute func() runner.Metrics) (m runner.Metrics, err error) {
	defer func() {
		if rec := recover(); rec != nil {
			m, err = nil, fmt.Errorf("computing %s: panic: %v", key, rec)
		}
	}()
	return compute(), nil
}
