package sim

import (
	"bytes"
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	tr.Span("a", "b", 0, 10)
	tr.Instant("a", "c", 5)
	if tr.Len() != 0 || tr.Events() != nil {
		t.Fatal("nil tracer should record nothing")
	}
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if buf.String() != "[]" {
		t.Fatalf("nil tracer trace = %q", buf.String())
	}
}

func TestTracerRecordsSpansAndInstants(t *testing.T) {
	tr := NewTracer()
	tr.Span("gpu0/default", "vecadd", 100, 2000, TraceKV{K: "grid", V: "8"})
	tr.Instant("worker0", "put_flag 0", 1500)
	if tr.Len() != 2 {
		t.Fatalf("len = %d", tr.Len())
	}
	es := tr.Events()
	if es[0].Dur != 1900 || es[1].Dur != 0 {
		t.Fatalf("durations: %v %v", es[0].Dur, es[1].Dur)
	}
}

func TestKernelTracerAttachment(t *testing.T) {
	k := NewKernel(1)
	if k.Tracer() != nil {
		t.Fatal("fresh kernel should have no tracer")
	}
	tr := NewTracer()
	k.SetTracer(tr)
	if k.Tracer() != tr {
		t.Fatal("tracer not attached")
	}
}

// TestTracerConcurrentRecording pins the Tracer's race-safety contract: one
// Tracer attached to several kernels, each run on its own goroutine, must
// survive concurrent recording (-race) and lose no events, and each
// kernel's events must keep their recording order.
func TestTracerConcurrentRecording(t *testing.T) {
	const kernels, perKernel = 4, 50
	tr := NewTracer()
	var wg sync.WaitGroup
	errs := make([]error, kernels)
	for i := 0; i < kernels; i++ {
		k := NewKernel(int64(i))
		k.SetTracer(tr)
		track := "k" + string(rune('0'+i))
		k.Go("w", func(p *Proc) {
			for j := 0; j < perKernel; j++ {
				p.Wait(100)
				k.Tracer().Instant(track, "tick", p.Now())
			}
		})
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = k.Run()
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("kernel %d: %v", i, err)
		}
	}
	if got := tr.Len(); got != kernels*perKernel {
		t.Fatalf("tracer recorded %d events, want %d", got, kernels*perKernel)
	}
	last := map[string]Time{}
	for _, e := range tr.Events() {
		if e.At <= last[e.Track] {
			t.Fatalf("track %s: event at %v after %v", e.Track, e.At, last[e.Track])
		}
		last[e.Track] = e.At
	}
}

func TestChromeTraceFormat(t *testing.T) {
	tr := NewTracer()
	tr.Span("b-track", "spanEvent", 1000, 3000, TraceKV{K: "x", V: "1"})
	tr.Instant("a-track", "instantEvent", 2000)
	var buf bytes.Buffer
	if err := tr.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	var out []map[string]interface{}
	if err := json.Unmarshal(buf.Bytes(), &out); err != nil {
		t.Fatalf("invalid JSON: %v", err)
	}
	// 2 thread_name metadata + 2 events.
	if len(out) != 4 {
		t.Fatalf("events = %d", len(out))
	}
	// Metadata rows come first with sorted track names.
	if out[0]["ph"] != "M" || out[1]["ph"] != "M" {
		t.Fatal("metadata rows missing")
	}
	names := []string{
		out[0]["args"].(map[string]interface{})["name"].(string),
		out[1]["args"].(map[string]interface{})["name"].(string),
	}
	if names[0] != "a-track" || names[1] != "b-track" {
		t.Fatalf("track order = %v", names)
	}
	// The span event.
	var span map[string]interface{}
	for _, e := range out[2:] {
		if e["ph"] == "X" {
			span = e
		}
	}
	if span == nil {
		t.Fatal("no span event")
	}
	if span["ts"].(float64) != 1.0 || span["dur"].(float64) != 2.0 {
		t.Fatalf("span ts/dur = %v/%v", span["ts"], span["dur"])
	}
	if !strings.Contains(buf.String(), `"instantEvent"`) {
		t.Fatal("instant missing")
	}
}

func TestChromeTraceDeterministic(t *testing.T) {
	gen := func() string {
		tr := NewTracer()
		tr.Span("z", "s1", 0, 5)
		tr.Span("a", "s2", 5, 9)
		tr.Instant("m", "i1", 7)
		var buf bytes.Buffer
		if err := tr.WriteChromeTrace(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	if gen() != gen() {
		t.Fatal("trace serialization not deterministic")
	}
}
