package sim

import (
	"encoding/json"
	"io"
	"sort"
	"sync"
)

// TraceEvent is one recorded event: a span (duration) or an instant on a
// named track. Tracks map to rows in the Chrome trace viewer (one per
// simulated actor: a GPU stream, a progression engine, a link).
type TraceEvent struct {
	Track string    `json:"track"`
	Name  string    `json:"name"`
	At    Time      `json:"at"`
	Dur   Duration  `json:"dur"` // zero = instant
	Args  []TraceKV `json:"args,omitempty"`
}

// TraceKV is one key/value annotation on an event (slice, not map, to keep
// serialization deterministic).
type TraceKV struct {
	K string `json:"k"`
	V string `json:"v"`
}

// Tracer records TraceEvents when attached to a Kernel. A nil *Tracer is
// valid and records nothing, so instrumentation sites need no guards.
//
// Recording is race-safe: one Tracer may be attached to several kernels
// running on different goroutines (worlds run side by side by a runner
// pool, say). Events from one kernel keep their recording order; the
// interleaving between concurrently-recording kernels follows wall-clock
// arrival, so deterministic fixtures should use one tracer per kernel.
type Tracer struct {
	mu     sync.Mutex
	events []TraceEvent
}

// NewTracer creates an empty tracer.
func NewTracer() *Tracer { return &Tracer{} }

// SetTracer attaches tr (or nil to disable tracing).
func (k *Kernel) SetTracer(tr *Tracer) { k.tracer = tr }

// Tracer returns the attached tracer, possibly nil.
func (k *Kernel) Tracer() *Tracer { return k.tracer }

// Span records an interval [start, end) on a track.
func (t *Tracer) Span(track, name string, start, end Time, args ...TraceKV) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{
		Track: track, Name: name, At: start, Dur: Duration(end - start), Args: args,
	})
	t.mu.Unlock()
}

// Instant records a point event.
func (t *Tracer) Instant(track, name string, at Time, args ...TraceKV) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = append(t.events, TraceEvent{Track: track, Name: name, At: at, Args: args})
	t.mu.Unlock()
}

// Events returns the recorded events in recording order.
func (t *Tracer) Events() []TraceEvent {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.events
}

// Len returns the number of recorded events (0 for a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// chromeEvent is the Chrome trace-event ("about://tracing" / Perfetto)
// JSON format.
type chromeEvent struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Ts   float64           `json:"ts"` // microseconds
	Dur  float64           `json:"dur,omitempty"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args,omitempty"`
	S    string            `json:"s,omitempty"` // instant scope
}

type chromeMeta struct {
	Name string            `json:"name"`
	Ph   string            `json:"ph"`
	Pid  int               `json:"pid"`
	Tid  int               `json:"tid"`
	Args map[string]string `json:"args"`
}

// WriteChromeTrace serializes the trace in Chrome trace-event JSON: open
// the output in Perfetto or chrome://tracing. Tracks become threads named
// by their track string; events keep virtual-time timestamps (µs).
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	if t == nil {
		_, err := io.WriteString(w, "[]")
		return err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Assign stable tids: sorted track names.
	trackSet := map[string]bool{}
	for _, e := range t.events {
		trackSet[e.Track] = true
	}
	tracks := make([]string, 0, len(trackSet))
	for tr := range trackSet {
		tracks = append(tracks, tr)
	}
	sort.Strings(tracks)
	tids := make(map[string]int, len(tracks))
	out := make([]interface{}, 0, len(t.events)+len(tracks))
	for i, tr := range tracks {
		tids[tr] = i + 1
		out = append(out, chromeMeta{
			Name: "thread_name", Ph: "M", Pid: 1, Tid: i + 1,
			Args: map[string]string{"name": tr},
		})
	}
	for _, e := range t.events {
		ce := chromeEvent{
			Name: e.Name,
			Ts:   e.At.Micros(),
			Pid:  1,
			Tid:  tids[e.Track],
		}
		if len(e.Args) > 0 {
			ce.Args = make(map[string]string, len(e.Args))
			for _, kv := range e.Args {
				ce.Args[kv.K] = kv.V
			}
		}
		if e.Dur > 0 {
			ce.Ph = "X"
			ce.Dur = e.Dur.Micros()
		} else {
			ce.Ph = "i"
			ce.S = "t"
		}
		out = append(out, ce)
	}
	enc := json.NewEncoder(w)
	return enc.Encode(out)
}
