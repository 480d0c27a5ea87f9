package sim

// Golden virtual-time trace fixture: a single deterministic scenario that
// exercises every scheduler path (timers, same-time FIFO wakeups, cond
// signal/broadcast, gates, counters, queues, pipes, event callbacks, yield,
// spawn-from-proc, daemons) and records the exact order and virtual time of
// every observable step. The fixture was generated on the pre-rewrite
// container/heap + O(n)-queue kernel and is committed; the optimized kernel
// must reproduce it byte for byte. Regenerate (only for a deliberate
// semantic change) with:
//
//	go test ./internal/sim -run TestKernelGoldenTrace -update-golden

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

var updateGolden = flag.Bool("update-golden", false, "rewrite golden trace fixtures")

// goldenRecord is the serialized form of one observable scheduler step.
type goldenRecord struct {
	At   Time   `json:"at"`
	What string `json:"what"`
}

type goldenTrace struct {
	Steps  []goldenRecord `json:"steps"`
	Trace  []TraceEvent   `json:"trace"`
	EndsAt Time           `json:"ends_at"`
}

// runGoldenScenario executes the fixture scenario and returns its recording.
func runGoldenScenario(t *testing.T) goldenTrace {
	t.Helper()
	k := NewKernel(42)
	tr := NewTracer()
	k.SetTracer(tr)
	var g goldenTrace
	log := func(p *Proc, format string, args ...interface{}) {
		g.Steps = append(g.Steps, goldenRecord{At: p.Now(), What: fmt.Sprintf(format, args...)})
	}
	logK := func(format string, args ...interface{}) {
		g.Steps = append(g.Steps, goldenRecord{At: k.Now(), What: fmt.Sprintf(format, args...)})
	}

	ready := NewGate(k, "ready")
	arrived := NewCounter(k, "arrived")
	cond := NewCond(k, "flag")
	q := NewQueue[int](k, "work")
	pipe := NewPipe(k, "link", 75, 2e9)
	flg := 0

	// Five workers: park on the gate, then on the counter, then consume the
	// queue; several wake at identical times to pin FIFO order.
	for i := 0; i < 5; i++ {
		i := i
		k.Go(fmt.Sprintf("worker%d", i), func(p *Proc) {
			ready.Wait(p)
			log(p, "worker%d passed gate", i)
			p.Wait(Duration(10 * (i % 2))) // two same-time cohorts
			arrived.Add(1)
			log(p, "worker%d arrived", i)
			cond.WaitFor(p, func() bool { return flg > i })
			log(p, "worker%d saw flag=%d", i, flg)
			v := q.Pop(p)
			log(p, "worker%d popped %d", i, v)
			d := pipe.Transfer(int64(100 * (v + 1)))
			log(p, "worker%d transfer delivers at %d", i, int64(d))
			p.WaitUntil(d)
			log(p, "worker%d done", i)
		})
	}

	k.Go("driver", func(p *Proc) {
		p.Wait(100)
		ready.Open()
		log(p, "gate opened")
		arrived.WaitAtLeast(p, 5)
		log(p, "all arrived")
		for f := 1; f <= 6; f++ {
			p.Wait(25)
			flg = f
			cond.Broadcast()
			log(p, "flag=%d broadcast", f)
		}
		for v := 0; v < 5; v++ {
			q.Push(v)
			p.Yield()
			log(p, "pushed %d (len=%d)", v, q.Len())
		}
		// Child spawned mid-run, plus event callbacks racing at one time.
		k.Go("child", func(c *Proc) {
			c.Wait(5)
			log(c, "child ran")
		})
		k.At(p.Now()+40, func() { logK("event A") })
		k.At(p.Now()+40, func() { logK("event B") })
		k.After(41, func() { logK("event C") })
		p.Wait(60)
		log(p, "driver done")
	})

	k.GoDaemon("daemon", func(p *Proc) {
		c := NewCond(k, "never")
		c.Wait(p) // parks forever; daemons may stay blocked
	})

	tr.Span("track/x", "setup", 0, 100, TraceKV{K: "k", V: "v"})
	if err := k.Run(); err != nil {
		t.Fatalf("golden scenario: %v", err)
	}
	tr.Instant("track/x", "end", k.Now())
	g.Trace = tr.Events()
	g.EndsAt = k.Now()
	return g
}

func goldenPath(t *testing.T) string {
	t.Helper()
	return filepath.Join("testdata", "kernel_golden_trace.json")
}

// TestKernelGoldenTrace locks the scheduler's observable semantics: wake
// order, virtual timestamps, FIFO tie-breaking and trace output must be
// identical to the committed pre-rewrite fixture.
func TestKernelGoldenTrace(t *testing.T) {
	got := runGoldenScenario(t)
	raw, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	raw = append(raw, '\n')
	path := goldenPath(t)
	if *updateGolden {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		t.Logf("wrote %s (%d steps, %d trace events)", path, len(got.Steps), len(got.Trace))
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading fixture: %v (regenerate with -update-golden)", err)
	}
	if string(want) == string(raw) {
		return
	}
	// Readable first-divergence report.
	var wg goldenTrace
	if err := json.Unmarshal(want, &wg); err != nil {
		t.Fatalf("fixture corrupt: %v", err)
	}
	n := len(wg.Steps)
	if len(got.Steps) < n {
		n = len(got.Steps)
	}
	for i := 0; i < n; i++ {
		if wg.Steps[i] != got.Steps[i] {
			t.Fatalf("step %d diverged:\n  golden: t=%d %q\n  got:    t=%d %q",
				i, int64(wg.Steps[i].At), wg.Steps[i].What, int64(got.Steps[i].At), got.Steps[i].What)
		}
	}
	t.Fatalf("golden trace drifted (steps %d vs %d, ends %v vs %v); diff the JSON for detail",
		len(wg.Steps), len(got.Steps), wg.EndsAt, got.EndsAt)
}

// TestGoldenScenarioDeterminism guards the fixture itself: two runs of the
// scenario in one process must be identical (catches map-iteration or
// goroutine-scheduling leaks into virtual time).
func TestGoldenScenarioDeterminism(t *testing.T) {
	a := runGoldenScenario(t)
	b := runGoldenScenario(t)
	ra, _ := json.Marshal(a)
	rb, _ := json.Marshal(b)
	if string(ra) != string(rb) {
		t.Fatal("golden scenario is not deterministic across runs")
	}
}
