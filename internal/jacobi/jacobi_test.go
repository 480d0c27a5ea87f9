package jacobi

import (
	"math"
	"runtime"
	"testing"

	"mpipart/internal/cluster"
	"mpipart/internal/mpi"
)

func TestDecompose(t *testing.T) {
	cases := []struct{ p, px, py int }{
		{1, 1, 1}, {2, 2, 1}, {4, 2, 2}, {8, 4, 2}, {6, 3, 2}, {16, 4, 4},
	}
	for _, c := range cases {
		px, py := Decompose(c.p)
		if px != c.px || py != c.py {
			t.Errorf("Decompose(%d) = %dx%d, want %dx%d", c.p, px, py, c.px, c.py)
		}
		if px*py != c.p {
			t.Errorf("Decompose(%d) does not cover", c.p)
		}
	}
}

func TestConfigValidate(t *testing.T) {
	if err := (Config{PX: 2, PY: 2, NX: 8, NY: 8, Iters: 1}).Validate(4); err != nil {
		t.Fatal(err)
	}
	if err := (Config{PX: 2, PY: 1, NX: 8, NY: 8, Iters: 1}).Validate(4); err == nil {
		t.Fatal("wrong decomposition accepted")
	}
	if err := (Config{PX: 2, PY: 2, NX: 0, NY: 8, Iters: 1}).Validate(4); err == nil {
		t.Fatal("zero tile accepted")
	}
}

// run executes a variant SPMD and returns the per-rank checksums.
func run(t *testing.T, topo cluster.Topology, cfg Config,
	variant func(r *mpi.Rank, cfg Config) Stats) ([]float64, []Stats) {
	t.Helper()
	w := mpi.NewWorld(topo, cluster.DefaultModel(), 1)
	sums := make([]float64, w.Size())
	stats := make([]Stats, w.Size())
	w.Spawn(func(r *mpi.Rank) {
		st := variant(r, cfg)
		sums[r.ID] = st.Checksum()
		stats[r.ID] = st
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return sums, stats
}

func almostEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

func TestTraditionalMatchesReference4GPU(t *testing.T) {
	cfg := Config{PX: 2, PY: 2, NX: 12, NY: 10, Iters: 6}
	want := Reference(cfg)
	got, _ := run(t, cluster.OneNodeGH200(), cfg, Traditional)
	for i := range want {
		if !almostEqual(got[i], want[i]) {
			t.Fatalf("rank %d checksum = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPartitionedMatchesReference4GPU(t *testing.T) {
	cfg := Config{PX: 2, PY: 2, NX: 12, NY: 10, Iters: 6}
	want := Reference(cfg)
	got, _ := run(t, cluster.OneNodeGH200(), cfg, Partitioned)
	for i := range want {
		if !almostEqual(got[i], want[i]) {
			t.Fatalf("rank %d checksum = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestPartitionedMatchesReference8GPU(t *testing.T) {
	cfg := Config{PX: 4, PY: 2, NX: 8, NY: 8, Iters: 5}
	want := Reference(cfg)
	got, _ := run(t, cluster.TwoNodeGH200(), cfg, Partitioned)
	for i := range want {
		if !almostEqual(got[i], want[i]) {
			t.Fatalf("rank %d checksum = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestTraditionalMatchesReference8GPU(t *testing.T) {
	cfg := Config{PX: 4, PY: 2, NX: 8, NY: 8, Iters: 5}
	want := Reference(cfg)
	got, _ := run(t, cluster.TwoNodeGH200(), cfg, Traditional)
	for i := range want {
		if !almostEqual(got[i], want[i]) {
			t.Fatalf("rank %d checksum = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestVariantsAgreeBitwise(t *testing.T) {
	cfg := Config{PX: 2, PY: 2, NX: 16, NY: 16, Iters: 4}
	a, _ := run(t, cluster.OneNodeGH200(), cfg, Traditional)
	b, _ := run(t, cluster.OneNodeGH200(), cfg, Partitioned)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("rank %d: traditional %v vs partitioned %v", i, a[i], b[i])
		}
	}
}

func TestOddIterationCount(t *testing.T) {
	// Odd iteration counts exercise the parity double-buffering.
	cfg := Config{PX: 2, PY: 2, NX: 8, NY: 8, Iters: 7}
	want := Reference(cfg)
	got, _ := run(t, cluster.OneNodeGH200(), cfg, Partitioned)
	for i := range want {
		if !almostEqual(got[i], want[i]) {
			t.Fatalf("rank %d checksum = %v, want %v", i, got[i], want[i])
		}
	}
}

func TestSolutionConvergesTowardBoundary(t *testing.T) {
	// With the top edge at 1 and zero initial guess, heat creeps downward:
	// after a few iterations the checksum must be positive and growing.
	cfg := Config{PX: 2, PY: 2, NX: 8, NY: 8, Iters: 2}
	short := Reference(cfg)
	cfg.Iters = 8
	long := Reference(cfg)
	var s1, s2 float64
	for i := range short {
		s1 += short[i]
		s2 += long[i]
	}
	if !(s2 > s1 && s1 > 0) {
		t.Fatalf("no diffusion: %v then %v", s1, s2)
	}
}

func TestPartitionedSpeedupShape(t *testing.T) {
	// Fig. 8/9 shape: partitioned ≥ traditional in GFLOP/s, with the edge
	// larger on two nodes than one (1.06x vs 1.30x in the paper). Here we
	// only assert the ordering (the exact factors are bench territory).
	cfg := Config{PX: 2, PY: 2, NX: 64, NY: 64, Iters: 4}
	_, st := run(t, cluster.OneNodeGH200(), cfg, Traditional)
	_, sp := run(t, cluster.OneNodeGH200(), cfg, Partitioned)
	if sp[0].GFLOPs <= st[0].GFLOPs {
		t.Fatalf("partitioned GFLOPs %.3f <= traditional %.3f", sp[0].GFLOPs, st[0].GFLOPs)
	}
}

func TestStatsAccounting(t *testing.T) {
	cfg := Config{PX: 2, PY: 2, NX: 8, NY: 8, Iters: 3}
	_, st := run(t, cluster.OneNodeGH200(), cfg, Traditional)
	for i, s := range st {
		if s.Elapsed <= 0 || s.GFLOPs <= 0 {
			t.Fatalf("rank %d stats: %+v", i, s)
		}
	}
}

// TestStencilRowMatchesPointLoop pins the unrolled row helper to the plain
// point-by-point loop, bit for bit, at even, odd and tiny widths.
func TestStencilRowMatchesPointLoop(t *testing.T) {
	for _, nx := range []int{1, 2, 3, 4, 5, 7, 8, 33, 1024} {
		cur, up, down := make([]float64, nx), make([]float64, nx), make([]float64, nx)
		for i := 0; i < nx; i++ {
			// Values of mixed magnitude, so a reordered sum would round
			// differently.
			cur[i] = 1/float64(i+3) + 1e6*float64(i%3)
			up[i] = math.Sqrt(float64(i+2)) * 1e-3
			down[i] = float64(i*i%17) + 1e-9*float64(i)
		}
		west, east := 0.1, 1e8/3
		want := make([]float64, nx)
		for x := 0; x < nx; x++ {
			w, e := west, east
			if x > 0 {
				w = cur[x-1]
			}
			if x < nx-1 {
				e = cur[x+1]
			}
			want[x] = 0.25 * (w + e + up[x] + down[x])
		}
		got := make([]float64, nx)
		stencilRow(got, cur, up, down, west, east)
		for x := range want {
			if math.Float64bits(got[x]) != math.Float64bits(want[x]) {
				t.Fatalf("nx=%d x=%d: got %v, want %v", nx, x, got[x], want[x])
			}
		}
	}
}

var variants = []struct {
	name string
	fn   func(*mpi.Rank, Config) Stats
}{{"traditional", Traditional}, {"partitioned", Partitioned}}

// requireReference runs both variants and requires every rank's checksum
// to equal Reference exactly: both sum the same values in the same order.
func requireReference(t *testing.T, topo cluster.Topology, cfg Config) {
	t.Helper()
	want := Reference(cfg)
	for _, v := range variants {
		got, _ := run(t, topo, cfg, v.fn)
		for i := range want {
			if got[i] != want[i] {
				t.Errorf("%s rank %d checksum = %v, want %v", v.name, i, got[i], want[i])
			}
		}
	}
}

// TestOddTileMatchesReferenceExactly covers a tile whose width is odd, so
// the unrolled row ends on its single-point tail, and whose height differs
// from its width.
func TestOddTileMatchesReferenceExactly(t *testing.T) {
	requireReference(t, cluster.OneNodeGH200(), Config{PX: 2, PY: 2, NX: 33, NY: 37, Iters: 5})
}

// TestConeChecksumMatchesReference: rank 0's checksum from the dependency
// cone is bit-identical to the full sequential sweep, across the paper's
// decompositions, odd and non-square tiles, and iteration counts up to and
// past the tile edge, where the crop clamps to the global grid.
func TestConeChecksumMatchesReference(t *testing.T) {
	for _, d := range []struct{ px, py int }{{1, 1}, {2, 1}, {2, 2}, {4, 2}} {
		for _, tile := range []struct{ nx, ny int }{{3, 3}, {5, 4}, {7, 11}, {16, 9}} {
			for _, iters := range []int{1, 2, 4, 7, 13, 25} {
				cfg := Config{PX: d.px, PY: d.py, NX: tile.nx, NY: tile.ny, Iters: iters}
				want := Reference(cfg)[0]
				if got := ConeChecksum(cfg); math.Float64bits(got) != math.Float64bits(want) {
					t.Errorf("%+v: ConeChecksum = %v, Reference = %v", cfg, got, want)
				}
			}
		}
	}
}

// TestRowsBelowFrontStayZero pins ConeChecksum's row crop: from a zero
// interior with only the top edge hot, a sweep moves the heat front down
// one row, so every tile whose first global row is at or below Iters sums
// to exactly +0, while every tile the front has reached sums positive.
func TestRowsBelowFrontStayZero(t *testing.T) {
	for _, d := range []struct{ px, py int }{{2, 1}, {2, 2}, {4, 2}} {
		const nx, ny = 5, 6
		for iters := 1; iters < d.py*ny; iters++ {
			cfg := Config{PX: d.px, PY: d.py, NX: nx, NY: ny, Iters: iters}
			for tile, sum := range Reference(cfg) {
				first := tile / d.px * ny
				if first >= iters && math.Float64bits(sum) != 0 {
					t.Errorf("%+v: tile %d (first row %d) sums to %v, want +0", cfg, tile, first, sum)
				}
				if first < iters && !(sum > 0) {
					t.Errorf("%+v: tile %d (first row %d) sums to %v, want > 0", cfg, tile, first, sum)
				}
			}
		}
	}
}

// TestConeChecksumAllocBound: the crop grows with the tile width and
// Iters, not with the tile area, so a 4×2 world of 4096×4096 tiles at the
// catalog's 4 sweeps allocates well under 8 MB, where a crop of the whole
// (NX+Iters)×(NY+Iters) cone would allocate about 269 MB.
func TestConeChecksumAllocBound(t *testing.T) {
	cfg := Config{PX: 4, PY: 2, NX: 4096, NY: 4096, Iters: 4}
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	ConeChecksum(cfg)
	runtime.ReadMemStats(&after)
	if got := after.TotalAlloc - before.TotalAlloc; got >= 8<<20 {
		t.Fatalf("ConeChecksum(%+v) allocated %d bytes, want < %d", cfg, got, 8<<20)
	}
}

// BenchmarkConeChecksumCatalog computes the checksums of the 24 catalog
// Jacobi points of Figs. 8/9: 2×2 and 4×2 decompositions, tiles 32·2^k
// for k = 0..5, 4 sweeps, each config once per variant.
func BenchmarkConeChecksumCatalog(b *testing.B) {
	var cfgs []Config
	for _, d := range []struct{ px, py int }{{2, 2}, {4, 2}} {
		for tile := 32; tile <= 32<<5; tile *= 2 {
			cfg := Config{PX: d.px, PY: d.py, NX: tile, NY: tile, Iters: 4}
			cfgs = append(cfgs, cfg, cfg)
		}
	}
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		for _, cfg := range cfgs {
			ConeChecksum(cfg)
		}
	}
}

// TestTimingOnlyChecksumIsNaN: a timing-only world computes no tile, so
// every rank's checksum is NaN rather than the sum of the zero backing.
func TestTimingOnlyChecksumIsNaN(t *testing.T) {
	cfg := Config{PX: 2, PY: 2, NX: 8, NY: 8, Iters: 2}
	for _, v := range variants {
		w := mpi.NewWorld(cluster.OneNodeGH200(), cluster.DefaultModel(), 1)
		w.K.SetTimingOnly()
		sums := make([]float64, w.Size())
		w.Spawn(func(r *mpi.Rank) { sums[r.ID] = v.fn(r, cfg).Checksum() })
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		for id, sum := range sums {
			if !math.IsNaN(sum) {
				t.Errorf("%s rank %d: timing-only checksum %v, want NaN", v.name, id, sum)
			}
		}
	}
}
