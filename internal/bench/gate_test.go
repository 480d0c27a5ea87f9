package bench

import (
	"bytes"
	"runtime"
	"strings"
	"sync"
	"testing"

	"mpipart/internal/cluster"
	"mpipart/internal/runner"
)

// goldenDefault computes the default-model gate baseline once for the whole
// test file (several tests compare against it).
var goldenDefault = struct {
	once sync.Once
	g    Golden
}{}

func defaultGolden(t *testing.T) Golden {
	t.Helper()
	goldenDefault.once.Do(func() {
		goldenDefault.g = CollectGolden(runner.New(0), nil)
	})
	return goldenDefault.g
}

func TestGatePointsUniqueSortedStable(t *testing.T) {
	a := GatePoints(nil)
	b := GatePoints(nil)
	if len(a) == 0 || len(a) != len(b) {
		t.Fatalf("point counts: %d vs %d", len(a), len(b))
	}
	seen := map[string]bool{}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Key != b[i].Key {
			t.Fatalf("point %d not stable: %q/%q vs %q/%q", i, a[i].ID, a[i].Key, b[i].ID, b[i].Key)
		}
		if seen[a[i].ID] {
			t.Fatalf("duplicate point ID %q", a[i].ID)
		}
		seen[a[i].ID] = true
		if i > 0 && a[i].ID < a[i-1].ID {
			t.Fatalf("points not sorted at %d: %q after %q", i, a[i].ID, a[i-1].ID)
		}
		if a[i].Key == "" {
			t.Fatalf("point %q has no memo key", a[i].ID)
		}
	}
}

// TestGateDeterministicAcrossWorkersAndGOMAXPROCS is the determinism
// regression gate: the same sweep executed sequentially, with 8 workers,
// and under a different GOMAXPROCS must produce byte-identical result
// sets. This is the property that makes exact golden baselines (and the
// parallel runner itself) sound.
func TestGateDeterministicAcrossWorkersAndGOMAXPROCS(t *testing.T) {
	encode := func(g Golden) []byte {
		b, err := EncodeGolden(g)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	ref := encode(defaultGolden(t))

	if got := encode(CollectGolden(runner.New(1), nil)); !bytes.Equal(ref, got) {
		t.Fatal("workers=1 differs from default-pool run")
	}
	if got := encode(CollectGolden(runner.New(8), nil)); !bytes.Equal(ref, got) {
		t.Fatal("workers=8 differs from default-pool run")
	}
	old := runtime.GOMAXPROCS(0)
	alt := 2
	if old == 2 {
		alt = 4
	}
	runtime.GOMAXPROCS(alt)
	defer runtime.GOMAXPROCS(old)
	if got := encode(CollectGolden(runner.New(0), nil)); !bytes.Equal(ref, got) {
		t.Fatalf("GOMAXPROCS=%d run differs from GOMAXPROCS=%d run", alt, old)
	}
}

func TestGoldenEncodeDecodeRoundTrip(t *testing.T) {
	g := defaultGolden(t)
	g.Description = "round trip"
	g.GOARCH = runtime.GOARCH
	g.WallMS = 1234
	b, err := EncodeGolden(g)
	if err != nil {
		t.Fatal(err)
	}
	back, err := DecodeGolden(b)
	if err != nil {
		t.Fatal(err)
	}
	if back.WallMS != 1234 || back.GOARCH != runtime.GOARCH {
		t.Fatalf("header fields lost: %+v", back)
	}
	if diffs := g.Compare(back); len(diffs) != 0 {
		t.Fatalf("metrics changed across JSON round trip: %v", diffs)
	}
}

func TestDecodeGoldenRejectsBadInput(t *testing.T) {
	if _, err := DecodeGolden([]byte("not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	if _, err := DecodeGolden([]byte(`{"schema": 99, "points": {}}`)); err == nil {
		t.Fatal("wrong schema accepted")
	}
	if _, err := DecodeGolden([]byte(`{"schema": 1}`)); err == nil {
		t.Fatal("missing points accepted")
	}
}

// TestGateTripsOnPerturbedCostModel demonstrates the acceptance criterion:
// perturbing a single calibrated cost-model constant makes the gate fail
// with a per-point diff naming the affected figure points.
func TestGateTripsOnPerturbedCostModel(t *testing.T) {
	golden := defaultGolden(t)
	m := cluster.DefaultModel()
	m.NVLinkBytesPerSec *= 1.05 // +5% NVLink bandwidth
	perturbed := CollectGolden(runner.New(0), &m)

	diffs := golden.Compare(perturbed)
	if len(diffs) == 0 {
		t.Fatal("perturbing NVLinkBytesPerSec did not trip the gate")
	}
	var hitFig4 bool
	for _, d := range diffs {
		if d.Kind != "drift" {
			t.Fatalf("unexpected non-drift diff: %v", d)
		}
		if strings.HasPrefix(d.Point, "fig4/") {
			hitFig4 = true
		}
	}
	if !hitFig4 {
		t.Fatalf("no fig4 point drifted; diffs: %v", diffs)
	}
	report := FormatDiffs(diffs)
	if !strings.Contains(report, "divergence") || !strings.Contains(report, "fig4/") ||
		!strings.Contains(report, "golden=") || !strings.Contains(report, "benchgate -write") {
		t.Fatalf("report not readable:\n%s", report)
	}

	// A second perturbation axis: the stream-synchronize constant moves the
	// traditional baselines everywhere, including Fig. 2.
	m2 := cluster.DefaultModel()
	m2.StreamSyncCost += 100 // +100ns
	diffs2 := golden.Compare(CollectGolden(runner.New(0), &m2))
	var hitFig2 bool
	for _, d := range diffs2 {
		if strings.HasPrefix(d.Point, "fig2/") {
			hitFig2 = true
		}
	}
	if !hitFig2 {
		t.Fatalf("StreamSyncCost perturbation missed fig2; diffs: %v", diffs2)
	}
}

func TestComparePresenceDiffs(t *testing.T) {
	want := Golden{Schema: GoldenSchema, Points: map[string]runner.Metrics{
		"a": {"x": 1, "y": 2},
		"b": {"x": 1},
	}}
	got := Golden{Schema: GoldenSchema, Points: map[string]runner.Metrics{
		"a": {"x": 1, "z": 3},
		"c": {"x": 1},
	}}
	ds := want.Compare(got)
	kinds := map[string]string{}
	for _, d := range ds {
		kinds[d.Point+"/"+d.Metric] = d.Kind
	}
	if kinds["a/y"] != "metric-missing" || kinds["a/z"] != "metric-extra" ||
		kinds["b/"] != "missing" || kinds["c/"] != "extra" {
		t.Fatalf("diff kinds wrong: %v", kinds)
	}
	for _, d := range ds {
		if d.String() == "" {
			t.Fatal("empty diff string")
		}
	}
	if s := FormatDiffs(nil); !strings.Contains(s, "no drift") {
		t.Fatalf("empty diff report = %q", s)
	}
}

// TestSharedPointsMemoizeAcrossJobs pins the cross-figure deduplication:
// running the gate points twice on one runner computes nothing new, and
// figure jobs sharing configurations with the gate reuse its results.
func TestSharedPointsMemoizeAcrossJobs(t *testing.T) {
	r := runner.New(4)
	pts := GatePoints(nil)
	r.Run(pts)
	_, misses1 := r.Stats()
	r.Run(pts)
	hits2, misses2 := r.Stats()
	if misses2 != misses1 {
		t.Fatalf("second run recomputed: misses %d -> %d", misses1, misses2)
	}
	if hits2 < len(pts) {
		t.Fatalf("second run hit cache only %d times for %d points", hits2, len(pts))
	}
	// A figure job overlapping the gate configs also reuses the cache.
	RunJob(r, Fig4Job(8))
	_, misses3 := r.Stats()
	// Fig4Job(8) covers grids 1,2,4,8 × 3 variants = 12 points; grids 1 and
	// 8 (6 points) are already in the gate set.
	if recomputed := misses3 - misses2; recomputed != 6 {
		t.Fatalf("fig4 job recomputed %d points, want 6 (grids 2,4 only)", recomputed)
	}
}
