package cluster

import (
	"math"
	"testing"
	"testing/quick"

	"mpipart/internal/sim"
)

func TestTopologyHelpers(t *testing.T) {
	topo := TwoNodeGH200()
	if topo.TotalGPUs() != 8 {
		t.Fatalf("TotalGPUs = %d, want 8", topo.TotalGPUs())
	}
	if topo.NodeOf(0) != 0 || topo.NodeOf(3) != 0 || topo.NodeOf(4) != 1 || topo.NodeOf(7) != 1 {
		t.Fatal("NodeOf mapping wrong")
	}
	if !topo.SameNode(1, 2) || topo.SameNode(3, 4) {
		t.Fatal("SameNode mapping wrong")
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := (Topology{}).Validate(); err == nil {
		t.Fatal("empty topology should be invalid")
	}
	one := OneNodeGH200()
	if one.TotalGPUs() != 4 || one.Nodes != 1 {
		t.Fatal("OneNodeGH200 wrong")
	}
}

func TestStreamSyncCostMatchesPaper(t *testing.T) {
	m := DefaultModel()
	if m.StreamSyncCost != sim.Microseconds(7.8) {
		t.Fatalf("StreamSyncCost = %v, want 7.8us", m.StreamSyncCost)
	}
}

func TestOccupancyRules(t *testing.T) {
	m := DefaultModel()
	cases := []struct {
		block, want int
	}{
		{1024, 2}, // 2048/1024
		{512, 4},  // 2048/512
		{256, 8},  // 2048/256
		{64, 32},  // capped by MaxBlocksPerSM
		{32, 32},  // capped
		{1, 32},   // capped
		{2048, 1}, // oversize clamps to 1
		{0, 32},   // degenerate treated as 1 thread
	}
	for _, c := range cases {
		if got := m.ResidentBlocksPerSM(c.block); got != c.want {
			t.Errorf("ResidentBlocksPerSM(%d) = %d, want %d", c.block, got, c.want)
		}
	}
}

func TestBlocksPerWave1024(t *testing.T) {
	m := DefaultModel()
	if got := m.BlocksPerWave(1024); got != 264 {
		t.Fatalf("BlocksPerWave(1024) = %d, want 264 (132 SMs x 2)", got)
	}
}

func TestWaveCounts(t *testing.T) {
	m := DefaultModel()
	cases := []struct {
		grid, want int
	}{
		{0, 0}, {1, 1}, {264, 1}, {265, 2}, {2048, 8}, {131072, 497},
	}
	for _, c := range cases {
		if got := m.Waves(c.grid, 1024); got != c.want {
			t.Errorf("Waves(%d) = %d, want %d", c.grid, got, c.want)
		}
	}
}

// Fig. 2 calibration: a 128K-grid vector add kernel must execute in roughly
// the paper's 933 µs, and a one-wave kernel must make the synchronize cost
// 71.6–78.9% of the total launch+exec+sync time.
func TestFig2Calibration(t *testing.T) {
	m := DefaultModel()
	exec := m.KernelExecTime(131072, 1024, m.VecAddWaveTime)
	if exec < sim.Microseconds(900) || exec > sim.Microseconds(970) {
		t.Fatalf("128K-grid exec = %v, want ~933us", exec)
	}
	small := m.KernelLaunchCost + m.KernelExecTime(1, 1024, m.VecAddWaveTime)
	share := float64(m.StreamSyncCost) / float64(m.StreamSyncCost+small)
	if share < 0.70 || share > 0.80 {
		t.Fatalf("sync share of small kernel = %.3f, want within paper's 0.716-0.789 band (±tolerance)", share)
	}
}

// Fig. 3 calibration: serialized host flag writes must make a 1024-thread
// Pready ≈271.5× a block-level one, and warp-level ≈9.4× block-level.
func TestFig3Calibration(t *testing.T) {
	m := DefaultModel()
	block := sim.Duration(m.SyncThreadsCost + m.HostFlagWriteGap + m.HostFlagWriteLatency)
	thread := sim.Duration(1024)*m.HostFlagWriteGap + m.HostFlagWriteLatency
	warp := sim.Duration(32)*(m.HostFlagWriteGap) + m.HostFlagWriteLatency + m.SyncWarpCost
	rt := float64(thread) / float64(block)
	rw := float64(warp) / float64(block)
	if rt < 200 || rt > 340 {
		t.Fatalf("thread/block ratio = %.1f, want ~271.5", rt)
	}
	if rw < 7 || rw > 12 {
		t.Fatalf("warp/block ratio = %.1f, want ~9.4", rw)
	}
}

func TestMemMapCostGrowsWithSize(t *testing.T) {
	m := DefaultModel()
	small := m.MemMapCost(4096)
	big := m.MemMapCost(64 << 20)
	if big <= small {
		t.Fatalf("MemMapCost not monotonic: %v vs %v", small, big)
	}
	if small < m.MemMapBase {
		t.Fatalf("MemMapCost below base")
	}
}

func TestScaledWaveTime(t *testing.T) {
	m := DefaultModel()
	if m.ScaledWaveTime(1) != m.VecAddWaveTime {
		t.Fatal("ScaledWaveTime(1) should equal VecAddWaveTime")
	}
	if m.ScaledWaveTime(3) != sim.Duration(3*int64(m.VecAddWaveTime)) {
		t.Fatal("ScaledWaveTime(3) wrong")
	}
}

// Property: wave count is monotone in grid size and every wave holds at
// most BlocksPerWave blocks.
func TestWavesMonotoneProperty(t *testing.T) {
	m := DefaultModel()
	f := func(a, b uint16) bool {
		ga, gb := int(a), int(b)
		if ga > gb {
			ga, gb = gb, ga
		}
		wa, wb := m.Waves(ga, 1024), m.Waves(gb, 1024)
		if wa > wb {
			return false
		}
		// enough waves to cover the grid, not more than one spare
		per := m.BlocksPerWave(1024)
		return wb*per >= gb && (wb-1)*per < gb || gb == 0
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

// Property: resident blocks per SM respects both CUDA limits for any block
// size.
func TestOccupancyBoundsProperty(t *testing.T) {
	m := DefaultModel()
	f := func(bs uint16) bool {
		b := int(bs)
		r := m.ResidentBlocksPerSM(b)
		if r < 1 || r > m.MaxBlocksPerSM {
			return false
		}
		if b > 0 && b <= m.MaxThreadsPerSM && r > m.MaxThreadsPerSM/b && r != 1 {
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Fatal(err)
	}
}

func TestModelValidate(t *testing.T) {
	if err := DefaultModel().Validate(); err != nil {
		t.Fatalf("default model rejected: %v", err)
	}
	bad := map[string]func(m *Model){
		"zero model":           func(m *Model) { *m = Model{} },
		"negative duration":    func(m *Model) { m.StreamSyncCost = -1 },
		"NaN bandwidth":        func(m *Model) { m.IBBytesPerSec = math.NaN() },
		"infinite per-byte":    func(m *Model) { m.MemMapPerByte = math.Inf(1) },
		"zero SMs":             func(m *Model) { m.SMs = 0 },
		"zero poll interval":   func(m *Model) { m.ProgressPollInterval = 0 },
		"zero shm bandwidth":   func(m *Model) { m.ShmBytesPerSec = 0 },
		"negative eager limit": func(m *Model) { m.EagerThresholdBytes = -1 },
	}
	for name, mutate := range bad {
		m := DefaultModel()
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
	// Zero costs are legal: they make an operation free, not endless.
	m := DefaultModel()
	m.DeviceFlagPollCost = 0
	if err := m.Validate(); err != nil {
		t.Errorf("zero poll cost rejected: %v", err)
	}
}
