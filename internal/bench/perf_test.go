package bench

import (
	"encoding/json"
	"os"
	"testing"
)

// TestPerfSchemaRoundTrip pins the schema-2 sidecar layout: the breakdown
// fields survive a round trip, and a schema-1 payload (the committed
// baseline format before elision) still decodes with the new fields zero —
// the property the dual-schema perf gate in cmd/benchgate relies on.
func TestPerfSchemaRoundTrip(t *testing.T) {
	p := Perf{
		Schema:                PerfSchema,
		Workers:               4,
		Points:                62,
		WallMS:                300,
		Dispatches:            90000,
		DispatchesPerSec:      300000,
		ElidedEvents:          7000,
		EffectiveEventsPerSec: 323333,
		LiveActors:            100000,
		BytesPerActor:         237,
	}
	b, err := EncodePerf(p)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodePerf(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.ElidedEvents != 7000 || back.EffectiveEventsPerSec != 323333 {
		t.Fatalf("schema-2 fields lost: %+v", back)
	}

	v1 := []byte(`{"schema":1,"workers":1,"points":62,"wall_ms":302,"dispatches":97053,"dispatches_per_sec":320585.67}`)
	old, err := DecodePerf(v1)
	if err != nil {
		t.Fatal(err)
	}
	if old.Schema != 1 || old.Dispatches != 97053 {
		t.Fatalf("schema-1 payload misdecoded: %+v", old)
	}
	if old.ElidedEvents != 0 || old.EffectiveEventsPerSec != 0 {
		t.Fatalf("schema-1 payload grew phantom schema-2 fields: %+v", old)
	}

	// Schema-2 encodings stay human-diffable JSON with stable keys.
	var m map[string]interface{}
	if err := json.Unmarshal(b, &m); err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{"elided_events", "effective_events_per_sec"} {
		if _, ok := m[key]; !ok {
			t.Errorf("encoded sidecar missing %q", key)
		}
	}
	for _, key := range []string{"domains", "per_domain_dispatches"} {
		if _, ok := m[key]; ok {
			t.Errorf("encoded sidecar still carries the removed %q key", key)
		}
	}
}

// TestCommittedPerfDecodes checks that the committed BENCH_PERF.json, which
// -perf-baseline reads and which may carry a legacy "domains" key from the
// removed sharded scheduler, decodes into the current layout with its gated
// figures intact.
func TestCommittedPerfDecodes(t *testing.T) {
	raw, err := os.ReadFile("../../BENCH_PERF.json")
	if err != nil {
		t.Fatal(err)
	}
	p, err := DecodePerf(raw)
	if err != nil {
		t.Fatalf("committed sidecar: %v", err)
	}
	if p.Schema != PerfSchema || p.Dispatches <= 0 || p.EffectiveEventsPerSec <= 0 {
		t.Fatalf("committed sidecar misdecoded: %+v", p)
	}
}
