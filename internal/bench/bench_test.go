package bench

import (
	"bytes"
	"math"
	"strconv"
	"strings"
	"testing"

	"mpipart/internal/cluster"
	"mpipart/internal/core"
	"mpipart/internal/jacobi"
	"mpipart/internal/mpi"
	"mpipart/internal/runner"
	"mpipart/internal/sim"
)

// testRunner is shared by this package's table tests, so a point that
// several of them declare is simulated once.
var testRunner = runner.New(0)

func cellF(t *testing.T, tb *Table, row int, col string) float64 {
	t.Helper()
	v, err := strconv.ParseFloat(tb.Cell(row, col), 64)
	if err != nil {
		t.Fatalf("cell %d/%s: %v", row, col, err)
	}
	return v
}

func TestTablePrintAndCSV(t *testing.T) {
	tb := &Table{Title: "T", Columns: []string{"a", "b"}}
	tb.AddRow(1, 2.5)
	tb.AddRow("x", "y")
	tb.Note("n%d", 1)
	var buf bytes.Buffer
	tb.Fprint(&buf)
	out := buf.String()
	for _, want := range []string{"== T ==", "a", "b", "2.500", "note: n1"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Fprint missing %q in %q", want, out)
		}
	}
	buf.Reset()
	tb.CSV(&buf)
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 3 || lines[0] != "a,b" || lines[1] != "1,2.500" {
		t.Fatalf("CSV = %q", lines)
	}
	if tb.Cell(0, "b") != "2.500" {
		t.Fatalf("Cell = %q", tb.Cell(0, "b"))
	}
}

func TestTableUnknownColumnPanics(t *testing.T) {
	tb := &Table{Columns: []string{"a"}}
	tb.AddRow(1)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	tb.Cell(0, "nope")
}

func TestGridSweep(t *testing.T) {
	gs := gridSweep(8)
	want := []int{1, 2, 4, 8}
	if len(gs) != len(want) {
		t.Fatalf("sweep = %v", gs)
	}
	for i := range want {
		if gs[i] != want[i] {
			t.Fatalf("sweep = %v", gs)
		}
	}
}

func TestFig2SyncConstantAndShareDeclines(t *testing.T) {
	tb := RunJob(testRunner, Fig2Job(2048))
	syncRef := cellF(t, tb, 0, "sync_us")
	if syncRef != 7.8 {
		t.Fatalf("sync = %v, want 7.8", syncRef)
	}
	prevShare := 101.0
	for i := range tb.Rows {
		if s := cellF(t, tb, i, "sync_us"); s != syncRef {
			t.Fatalf("row %d sync = %v, not constant", i, s)
		}
		share := cellF(t, tb, i, "sync_share_pct")
		if share > prevShare {
			t.Fatalf("sync share not non-increasing at row %d", i)
		}
		prevShare = share
	}
	// Paper band for grids <= 256 (first 9 rows: 1..256).
	if s := cellF(t, tb, 0, "sync_share_pct"); s < 70 || s > 80 {
		t.Fatalf("small-kernel sync share = %v, want ~71.6-78.9", s)
	}
}

func TestFig3RatiosMatchPaper(t *testing.T) {
	tb := RunJob(testRunner, Fig3Job())
	last := len(tb.Rows) - 1
	thread := cellF(t, tb, last, "thread_us")
	warp := cellF(t, tb, last, "warp_us")
	block := cellF(t, tb, last, "block_us")
	if r := thread / block; r < 240 || r > 310 {
		t.Fatalf("thread/block = %.1f, want ~271.5", r)
	}
	if r := warp / block; r < 7.5 || r > 11.5 {
		t.Fatalf("warp/block = %.1f, want ~9.4", r)
	}
	// Monotone growth of thread-level cost with thread count.
	prev := 0.0
	for i := range tb.Rows {
		v := cellF(t, tb, i, "thread_us")
		if v < prev {
			t.Fatalf("thread cost not monotone at row %d", i)
		}
		prev = v
	}
}

func TestFig4OrderingAndBound(t *testing.T) {
	tb := RunJob(testRunner, Fig4Job(64))
	for i := range tb.Rows {
		tr := cellF(t, tb, i, "sendrecv_GBps")
		pe := cellF(t, tb, i, "prog_engine_GBps")
		kc := cellF(t, tb, i, "kernel_copy_GBps")
		if !(kc > pe && pe > tr) {
			t.Fatalf("row %d ordering violated: kc=%v pe=%v tr=%v", i, kc, pe, tr)
		}
		if kc > 150 {
			t.Fatalf("row %d kernel copy exceeds NVLink bound: %v", i, kc)
		}
	}
}

func TestFig5SpeedupDeclines(t *testing.T) {
	tb := RunJob(testRunner, Fig5Job(256))
	first := cellF(t, tb, 0, "pe_speedup")
	lastR := len(tb.Rows) - 1
	last := cellF(t, tb, lastR, "pe_speedup")
	if first < 2.0 {
		t.Fatalf("one-grid speedup = %v, want ~2.8", first)
	}
	if last >= first {
		t.Fatalf("speedup should decline: first %v, last %v", first, last)
	}
}

func TestFig6Ordering(t *testing.T) {
	tb := RunJob(testRunner, Fig6Job(256))
	for i := range tb.Rows {
		mpiT := cellF(t, tb, i, "mpi_allreduce_us")
		part := cellF(t, tb, i, "partitioned_us")
		nccl := cellF(t, tb, i, "nccl_us")
		if !(nccl < part && part < mpiT) {
			t.Fatalf("row %d: nccl=%v part=%v mpi=%v", i, nccl, part, mpiT)
		}
		if mpiT/part < 5 {
			t.Fatalf("row %d: MPI/part gap too small: %v", i, mpiT/part)
		}
	}
}

func TestTableIWithinPaperBands(t *testing.T) {
	tb := RunJob(testRunner, TableIJob())
	checks := []struct {
		row      int
		lo, hi   float64
		whatever string
	}{
		{0, 7.0, 27.4, "psend init"},        // 17.2 ± 10.2
		{1, 50.0, 75.0, "pallreduce init"},  // 62.3 ± 6.2 (±band widened)
		{2, 72.9, 148.5, "prequest create"}, // 110.7 ± 37.8
		{3, 150.0, 240.0, "pbuf first"},     // 193.4
		{4, 0.5, 6.0, "pbuf subsequent"},    // 3.4 ± 1.4 (model under-counts slightly)
	}
	for _, c := range checks {
		v := cellF(t, tb, c.row, "measured_us")
		if v < c.lo || v > c.hi {
			t.Fatalf("%s = %v, want in [%v, %v]", c.whatever, v, c.lo, c.hi)
		}
	}
}

func TestMeasureTraditionalScalesWithSize(t *testing.T) {
	small := MeasureTraditional(P2PConfig{Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: 1, Parts: 1})
	big := MeasureTraditional(P2PConfig{Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: 512, Parts: 1})
	if big <= small {
		t.Fatalf("traditional time should grow with size: %v vs %v", small, big)
	}
}

func TestMeasurePartitionedDeterministic(t *testing.T) {
	cfg := P2PConfig{Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: 16, Parts: 2}
	a := MeasurePartitioned(cfg, core.ProgressionEngine)
	b := MeasurePartitioned(cfg, core.ProgressionEngine)
	if a != b {
		t.Fatalf("measurements not deterministic: %v vs %v", a, b)
	}
	if a <= 0 {
		t.Fatalf("non-positive measurement %v", a)
	}
}

// TestMeasurePartitionedRejectsUnevenGrid: a grid that does not split
// evenly into partitions would leave the last partition with more blocks
// than its aggregation threshold (sent before its last block ran), or
// overrun it (Kernel Copy). Both mechanisms refuse it with one message.
func TestMeasurePartitionedRejectsUnevenGrid(t *testing.T) {
	cfg := P2PConfig{Topo: cluster.OneNodeGH200(), Receiver: 1, Grid: 3, Parts: 2}
	const want = "bench: grid 3 is not a multiple of the partition count 2"
	if err := cfg.Validate(); err == nil || err.Error() != want {
		t.Fatalf("Validate() = %v, want %q", err, want)
	}
	for _, mech := range []core.Mechanism{core.ProgressionEngine, core.KernelCopy} {
		func() {
			defer func() {
				rec := recover()
				err, ok := rec.(error)
				if !ok || err.Error() != want {
					t.Errorf("%v: panic %v, want %q", mech, rec, want)
				}
			}()
			MeasurePartitioned(cfg, mech)
		}()
	}
}

func TestMeasureJacobiVariantsAgree(t *testing.T) {
	cfg := jacobi.Config{PX: 2, PY: 2, NX: 16, NY: 16, Iters: 3}
	tr := MeasureJacobi(cluster.OneNodeGH200(), cfg, jacobi.Traditional)
	pa := MeasureJacobi(cluster.OneNodeGH200(), cfg, jacobi.Partitioned)
	if tr.Checksum() != pa.Checksum() {
		t.Fatalf("checksums differ: %v vs %v", tr.Checksum(), pa.Checksum())
	}
	if pa.GFLOPs <= tr.GFLOPs {
		t.Fatalf("partitioned should lead: %v vs %v", pa.GFLOPs, tr.GFLOPs)
	}
}

// TestMeasureJacobiStatsOutliveFree: MeasureJacobi's stats outlive the
// world they were measured in: device buffers allocated and overwritten
// by a later world leave rank 0's checksum unchanged.
func TestMeasureJacobiStatsOutliveFree(t *testing.T) {
	cfg := jacobi.Config{PX: 2, PY: 2, NX: 23, NY: 19, Iters: 3}
	topo := cluster.OneNodeGH200()
	want := jacobi.Reference(cfg)[0]
	for _, variant := range []func(*mpi.Rank, jacobi.Config) jacobi.Stats{jacobi.Traditional, jacobi.Partitioned} {
		st := MeasureJacobi(topo, cfg, variant)
		w := mpi.NewWorld(topo, cluster.DefaultModel(), 1)
		for i := 0; i < 4*w.Size(); i++ {
			buf := w.Rank(0).Dev.Alloc(cfg.NX * cfg.NY)
			for j := range buf {
				buf[j] = math.NaN()
			}
		}
		if got := st.Checksum(); got != want {
			t.Fatalf("checksum after a later world = %v, want %v", got, want)
		}
	}
}

func TestGoodputHelper(t *testing.T) {
	// 8 KiB in 8 µs = 1.024 GB/s
	g := goodput(1, sim.Duration(8*sim.Microsecond))
	if g < 1.0 || g > 1.05 {
		t.Fatalf("goodput = %v", g)
	}
	if bytesOf(2) != 16384 {
		t.Fatalf("bytesOf(2) = %d", bytesOf(2))
	}
}

func TestPingpongLatencyGrowsWithSizeAndDistance(t *testing.T) {
	intraSmall := Pingpong(cluster.OneNodeGH200(), 1, 1, 5)
	intraBig := Pingpong(cluster.OneNodeGH200(), 1, 1<<15, 5)
	interSmall := Pingpong(cluster.TwoNodeGH200(), 4, 1, 5)
	if intraBig <= intraSmall {
		t.Fatalf("latency should grow with size: %v vs %v", intraSmall, intraBig)
	}
	if interSmall <= intraSmall {
		t.Fatalf("inter-node latency should exceed intra-node: %v vs %v", intraSmall, interSmall)
	}
}

func TestBandwidthApproachesLinkRate(t *testing.T) {
	// Large messages over NVLink should reach a healthy fraction of the
	// 150 GB/s bound; inter-node should be below the 48 GB/s IB rate.
	intra := Bandwidth(cluster.OneNodeGH200(), 1, 1<<17, 8, 3)
	if intra < 75 || intra > 150 {
		t.Fatalf("intra-node bw = %v GB/s, want 75..150", intra)
	}
	inter := Bandwidth(cluster.TwoNodeGH200(), 4, 1<<17, 8, 3)
	if inter < 24 || inter > 48 {
		t.Fatalf("inter-node bw = %v GB/s, want 24..48", inter)
	}
}

func TestBiBandwidthExceedsUni(t *testing.T) {
	uni := Bandwidth(cluster.OneNodeGH200(), 1, 1<<16, 8, 3)
	bi := BiBandwidth(cluster.OneNodeGH200(), 1, 1<<16, 8, 3)
	if bi <= uni {
		t.Fatalf("bi-bw (%v) should exceed uni-bw (%v): links are full duplex", bi, uni)
	}
}

func TestPartitionedLatencySteadyState(t *testing.T) {
	lat := PartitionedLatency(cluster.OneNodeGH200(), 1, 1024, 4, 5)
	if lat <= 0 || lat > sim.Microseconds(100) {
		t.Fatalf("partitioned epoch latency = %v", lat)
	}
}

func TestOSUTableKinds(t *testing.T) {
	for _, kind := range []string{"latency", "bw", "bibw", "platency"} {
		j, err := OSUJob(kind, cluster.OneNodeGH200(), 1, 64)
		if err != nil {
			t.Fatal(err)
		}
		if tb := RunJob(testRunner, j); len(tb.Rows) == 0 {
			t.Fatalf("%s produced no rows", kind)
		}
	}
	if _, err := OSUJob("nope", cluster.OneNodeGH200(), 1, 4); err == nil {
		t.Fatal("unknown kind should be an error")
	}
}

func TestHaloNeighbours(t *testing.T) {
	// 2x2 decomposition: rank 0 at (0,0) has south (rank 2) and east
	// (rank 1) neighbours only.
	n := haloNeighbours(0, 4)
	if n[0] != -1 || n[1] != 2 || n[2] != -1 || n[3] != 1 {
		t.Fatalf("rank 0 neighbours = %v", n)
	}
	// 4x2: rank 5 at (1,1) has north 1, west 4, east 6, no south.
	n = haloNeighbours(5, 8)
	if n[0] != 1 || n[1] != -1 || n[2] != 4 || n[3] != 6 {
		t.Fatalf("rank 5 neighbours = %v", n)
	}
	// Opposite sides pair up.
	for s := 0; s < 4; s++ {
		if haloOpposite[haloOpposite[s]] != s {
			t.Fatalf("haloOpposite not an involution at %d", s)
		}
	}
}

func TestHaloPartitionedBeatsTraditional(t *testing.T) {
	cfg := HaloConfig{Topo: cluster.TwoNodeGH200(), Elems: 1024}
	tr := MeasureHaloTraditional(cfg)
	pa := MeasureHaloPartitioned(cfg)
	if pa >= tr {
		t.Fatalf("partitioned halo (%v) should beat traditional (%v)", pa, tr)
	}
}

func TestHaloTableShape(t *testing.T) {
	tb := RunJob(testRunner, HaloJob(cluster.OneNodeGH200(), 1024))
	if len(tb.Rows) == 0 {
		t.Fatal("no rows")
	}
	for i := range tb.Rows {
		if s := cellF(t, tb, i, "speedup"); s <= 0 {
			t.Fatalf("row %d speedup = %v", i, s)
		}
	}
}
