package bench

import "encoding/json"

// BENCH_PERF.json is the host-performance sidecar to BENCH_GOLDEN.json:
// where the golden locks the *virtual-time* metrics exactly, the perf file
// records how much *host* work a gate run cost — wall time, scheduler
// dispatches, and dispatch throughput. cmd/benchgate writes it only when
// asked (-perf), so scheduler optimizations show up as a reviewable delta
// in the committed file while the golden proves the simulated results did
// not move. It is compared, never exactly: -perf-baseline fails a run whose
// throughput falls more than -perf-regress percent below the committed
// figure.

// PerfSchema versions the BENCH_PERF.json layout. Schema 2 adds the
// event-elision breakdown: the kernel can absorb events into closed-form
// paths (pipe staged-transfer fusion, lazily settled put completions), so
// raw dispatches undercount the work actually simulated.
// EffectiveEventsPerSec — (dispatches + elided) / wall — is the schema-2
// figure comparable across elision changes, and the one the perf gate
// compares when the committed base is schema 2. Older schema-2 files may
// also carry "domains" and "per_domain_dispatches" keys from a since-removed
// sharded scheduler; decoding ignores them.
const PerfSchema = 2

// Perf is one gate run's host-side cost record.
type Perf struct {
	Schema      int    `json:"schema"`
	Description string `json:"description,omitempty"`
	GOARCH      string `json:"goarch,omitempty"`
	// Workers is the runner pool size the gate ran on.
	Workers int `json:"workers"`
	// Points is the number of gate points executed.
	Points int `json:"points"`
	// WallMS is the host wall-clock duration of the gate run.
	WallMS int64 `json:"wall_ms"`
	// Dispatches counts scheduler dispatches (proc resumes + event
	// callbacks) executed across every simulation kernel in the run, from
	// sim.TotalDispatched.
	Dispatches int64 `json:"dispatches"`
	// DispatchesPerSec is Dispatches divided by the wall time — the
	// events/sec figure the kernel microbenchmarks optimize for.
	DispatchesPerSec float64 `json:"dispatches_per_sec"`
	// ElidedEvents counts scheduler events absorbed by closed-form elision
	// instead of being dispatched (schema 2), from sim.TotalElided.
	ElidedEvents int64 `json:"elided_events,omitempty"`
	// EffectiveEventsPerSec is (Dispatches + ElidedEvents) / wall — the
	// throughput over simulated events whether dispatched or elided
	// (schema 2).
	EffectiveEventsPerSec float64 `json:"effective_events_per_sec,omitempty"`
	// LiveActors is the actor count the KernelScale smoke world held
	// (MeasureKernelScale): mixed Task/Proc waiters parked on one Cond.
	// Its dispatches and wall time are measured separately and do NOT
	// contribute to the fields above.
	LiveActors int `json:"live_actors"`
	// BytesPerActor is the heap cost of holding one actor in the
	// KernelScale world — the number the continuation (Task) design
	// exists to shrink: a parked Task is a struct on the event heap, not
	// an ~8 KB goroutine stack.
	BytesPerActor float64 `json:"bytes_per_actor"`
}

// EncodePerf renders a Perf as stable, human-diffable JSON.
func EncodePerf(p Perf) ([]byte, error) {
	b, err := json.MarshalIndent(p, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// DecodePerf parses a BENCH_PERF.json payload.
func DecodePerf(b []byte) (Perf, error) {
	var p Perf
	if err := json.Unmarshal(b, &p); err != nil {
		return Perf{}, err
	}
	return p, nil
}
