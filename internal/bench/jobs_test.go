package bench

import (
	"testing"

	"mpipart/internal/runner"
)

// TestCatalogKeysMatchGateKeys guards the content-addressing contract: a
// point requested by ID (figures -point, sweepd) must resolve to the same
// key the in-process gate and the figure jobs use, or the three modes
// would not share a cache. No two figure points may share an ID.
func TestCatalogKeysMatchGateKeys(t *testing.T) {
	cat := Catalog()
	check := func(p runner.Point) {
		t.Helper()
		got, ok := cat[p.ID]
		if !ok {
			t.Fatalf("point %q not in catalog", p.ID)
		}
		if got.Key != p.Key {
			t.Fatalf("point %q: catalog key %s != declared key %s", p.ID, got.Key, p.Key)
		}
	}
	for _, p := range GatePoints(nil) {
		check(p)
	}
	seen := make(map[string]bool)
	for _, j := range Jobs(DefaultMaxGrid, DefaultMaxMult) {
		for _, p := range j.Points {
			if seen[p.ID] {
				t.Fatalf("job %s: point ID %q declared twice", j.Name, p.ID)
			}
			seen[p.ID] = true
			check(p)
		}
	}
}
