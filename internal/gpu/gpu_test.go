package gpu

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"mpipart/internal/cluster"
	"mpipart/internal/fabric"
	"mpipart/internal/sim"
)

func newTestDevice() (*sim.Kernel, *cluster.Model, *Device) {
	k := sim.NewKernel(1)
	m := cluster.DefaultModel()
	f := fabric.New(k, &m, cluster.TwoNodeGH200())
	return k, &m, NewDevice(k, &m, f, 0)
}

func TestVectorAddKernelComputesCorrectly(t *testing.T) {
	k, _, d := newTestDevice()
	const n = 4096
	a, b, c := d.Alloc(n), d.Alloc(n), d.Alloc(n)
	for i := 0; i < n; i++ {
		a[i], b[i] = float64(i), 2*float64(i)
	}
	s := d.NewStream("s")
	k.Go("host", func(p *sim.Proc) {
		s.Launch(KernelSpec{
			Name: "vecadd", Grid: n / 1024, Block: 1024,
			Body: func(bc *BlockCtx) {
				bc.ForEachThread(func(i int) { c[i] = a[i] + b[i] })
			},
		})
		s.Synchronize(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if c[i] != 3*float64(i) {
			t.Fatalf("c[%d] = %v, want %v", i, c[i], 3*float64(i))
		}
	}
}

func TestKernelTimingOneWave(t *testing.T) {
	k, m, d := newTestDevice()
	s := d.NewStream("s")
	var elapsed sim.Duration
	k.Go("host", func(p *sim.Proc) {
		t0 := p.Now()
		s.Launch(KernelSpec{Name: "k", Grid: 1, Block: 1024, Body: func(bc *BlockCtx) {}})
		s.Synchronize(p)
		elapsed = sim.Duration(p.Now() - t0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := m.KernelLaunchCost + m.VecAddWaveTime + m.StreamSyncCost
	if elapsed != want {
		t.Fatalf("one-wave kernel+sync = %v, want %v", elapsed, want)
	}
}

func TestKernelTimingMultipleWaves(t *testing.T) {
	k, m, d := newTestDevice()
	s := d.NewStream("s")
	var elapsed sim.Duration
	grid := 2048 // 8 waves at 264 blocks/wave
	k.Go("host", func(p *sim.Proc) {
		t0 := p.Now()
		s.Launch(KernelSpec{Name: "k", Grid: grid, Block: 1024, Body: func(bc *BlockCtx) {}})
		s.Synchronize(p)
		elapsed = sim.Duration(p.Now() - t0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := m.KernelLaunchCost + 8*m.VecAddWaveTime + m.StreamSyncCost
	if elapsed != want {
		t.Fatalf("8-wave kernel+sync = %v, want %v", elapsed, want)
	}
}

func TestStreamSynchronizeCostWhenIdle(t *testing.T) {
	k, m, d := newTestDevice()
	s := d.NewStream("s")
	var elapsed sim.Duration
	k.Go("host", func(p *sim.Proc) {
		t0 := p.Now()
		s.Synchronize(p)
		elapsed = sim.Duration(p.Now() - t0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if elapsed != m.StreamSyncCost {
		t.Fatalf("idle sync = %v, want %v", elapsed, m.StreamSyncCost)
	}
}

func TestStreamFIFOOrdering(t *testing.T) {
	k, _, d := newTestDevice()
	s := d.NewStream("s")
	var order []string
	k.Go("host", func(p *sim.Proc) {
		s.Launch(KernelSpec{Name: "k1", Grid: 1, Block: 32, Body: func(bc *BlockCtx) {
			order = append(order, "k1")
		}})
		s.Launch(KernelSpec{Name: "k2", Grid: 1, Block: 32, Body: func(bc *BlockCtx) {
			order = append(order, "k2")
		}})
		s.Synchronize(p)
		order = append(order, "sync")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != "k1" || order[1] != "k2" || order[2] != "sync" {
		t.Fatalf("order = %v", order)
	}
}

func TestLaunchGateOpensOnCompletion(t *testing.T) {
	k, m, d := newTestDevice()
	s := d.NewStream("s")
	var doneAt sim.Time
	k.Go("host", func(p *sim.Proc) {
		g := s.Launch(KernelSpec{Name: "k", Grid: 1, Block: 64, Body: func(bc *BlockCtx) {}})
		g.Wait(p)
		doneAt = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(int64(m.KernelLaunchCost + m.VecAddWaveTime))
	if doneAt != want {
		t.Fatalf("kernel done at %v, want %v", doneAt, want)
	}
}

func TestInvalidLaunchPanics(t *testing.T) {
	_, _, d := newTestDevice()
	s := d.NewStream("s")
	assertPanics := func(name string, fn func()) {
		defer func() {
			if recover() == nil {
				t.Errorf("%s: expected panic", name)
			}
		}()
		fn()
	}
	assertPanics("zero grid", func() { s.Launch(KernelSpec{Grid: 0, Block: 32}) })
	assertPanics("big block", func() { s.Launch(KernelSpec{Grid: 1, Block: 2048}) })
}

func TestWriteHostFlagSerializes(t *testing.T) {
	k, m, d := newTestDevice()
	s := d.NewStream("s")
	flags := NewFlags(k, "f", 1024)
	var lastVisible sim.Time
	var kernelDone sim.Time
	k.Go("host", func(p *sim.Proc) {
		g := s.Launch(KernelSpec{
			Name: "pready-thread", Grid: 1, Block: 1024,
			Body: func(bc *BlockCtx) {
				bc.ForEachThread(func(i int) { bc.WriteHostFlag(flags, i, 1) })
			},
		})
		g.Wait(p)
		kernelDone = p.Now()
		flags.WaitCountNonZero(p, 1024)
		lastVisible = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	// All 1024 stores serialize at HostFlagWriteGap each; last visibility
	// must be ≈ kernel-done + 1024*gap.
	gap := sim.Time(1024 * int64(m.HostFlagWriteGap))
	if lastVisible < kernelDone+gap/2 {
		t.Fatalf("flag stores did not serialize: kernel done %v, last visible %v", kernelDone, lastVisible)
	}
	if flags.CountNonZero() != 1024 {
		t.Fatalf("flags set = %d", flags.CountNonZero())
	}
}

func TestBlockLevelSignalMuchCheaperThanThreadLevel(t *testing.T) {
	// Reproduces the mechanism behind Fig. 3 at the gpu layer: last-flag
	// visibility for 1 block-level write vs 1024 thread-level writes.
	measure := func(writes int) sim.Duration {
		k, _, d := newTestDevice()
		s := d.NewStream("s")
		flags := NewFlags(k, "f", writes)
		var visible sim.Time
		k.Go("host", func(p *sim.Proc) {
			s.Launch(KernelSpec{
				Name: "k", Grid: 1, Block: 1024,
				Body: func(bc *BlockCtx) {
					if writes == 1 {
						bc.SyncThreads()
						bc.WriteHostFlag(flags, 0, 1)
					} else {
						bc.ForEachThread(func(i int) { bc.WriteHostFlag(flags, i, 1) })
					}
				},
			})
			flags.WaitCountNonZero(p, writes)
			visible = p.Now()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return sim.Duration(visible)
	}
	block := measure(1)
	thread := measure(1024)
	ratio := float64(thread-block) / float64(block)
	if ratio < 20 {
		t.Fatalf("thread-level should be far costlier than block-level; got ratio %.1f", ratio)
	}
}

func TestAtomicAddAccumulatesAcrossBlocks(t *testing.T) {
	k, _, d := newTestDevice()
	s := d.NewStream("s")
	var ctr int64
	var reached int64
	k.Go("host", func(p *sim.Proc) {
		g := s.Launch(KernelSpec{
			Name: "agg", Grid: 500, Block: 128,
			Body: func(bc *BlockCtx) {
				if bc.AtomicAdd(&ctr, 1) == 500 {
					reached = 500
				}
			},
		})
		g.Wait(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if ctr != 500 || reached != 500 {
		t.Fatalf("ctr = %d, reached = %d", ctr, reached)
	}
}

func TestRemoteCopyDeliversData(t *testing.T) {
	k, m, d := newTestDevice()
	s := d.NewStream("s")
	src := []float64{1, 2, 3, 4}
	dst := make([]float64, 4)
	pipe := sim.NewPipe(k, "nv", m.NVLinkLatency, m.NVLinkBytesPerSec)
	var deliveredAt sim.Time
	var kernelEnd sim.Time
	k.Go("host", func(p *sim.Proc) {
		g := s.Launch(KernelSpec{
			Name: "copy", Grid: 1, Block: 32,
			Body: func(bc *BlockCtx) {
				bc.RemoteCopy(pipe, dst, src, func() { deliveredAt = k.Now() })
			},
		})
		g.Wait(p)
		kernelEnd = p.Now()
		p.Wait(sim.Microseconds(100))
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dst[3] != 4 {
		t.Fatalf("dst = %v", dst)
	}
	if deliveredAt <= kernelEnd {
		t.Fatal("remote copy should deliver after NVLink latency")
	}
}

func TestRemoteCopyShortDstPanics(t *testing.T) {
	k, m, d := newTestDevice()
	s := d.NewStream("s")
	pipe := sim.NewPipe(k, "nv", m.NVLinkLatency, m.NVLinkBytesPerSec)
	panicked := false
	k.Go("host", func(p *sim.Proc) {
		g := s.Launch(KernelSpec{
			Name: "copy", Grid: 1, Block: 1,
			Body: func(bc *BlockCtx) {
				defer func() {
					if recover() != nil {
						panicked = true
					}
				}()
				bc.RemoteCopy(pipe, make([]float64, 1), make([]float64, 2), nil)
			},
		})
		g.Wait(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if !panicked {
		t.Fatal("expected panic for short destination")
	}
}

func TestMemcpyChargesC2C(t *testing.T) {
	k, m, d := newTestDevice()
	var h2d, d2h sim.Duration
	k.Go("host", func(p *sim.Proc) {
		t0 := p.Now()
		d.MemcpyH2D(p, 45_000_000) // 100µs at 450GB/s
		h2d = sim.Duration(p.Now() - t0)
		t0 = p.Now()
		d.MemcpyD2H(p, 45_000_000)
		d2h = sim.Duration(p.Now() - t0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	wantMin := sim.Microseconds(100) + m.H2DCopyBase
	if h2d < wantMin || d2h < wantMin {
		t.Fatalf("memcpy = %v/%v, want ≥ %v", h2d, d2h, wantMin)
	}
}

func TestFlagsPrimitives(t *testing.T) {
	k := sim.NewKernel(1)
	f := NewFlags(k, "t", 4)
	if f.Len() != 4 {
		t.Fatal("len")
	}
	f.Set(1, 5)
	if f.Get(1) != 5 {
		t.Fatal("get/set")
	}
	if f.Add(1, 2) != 7 {
		t.Fatal("add")
	}
	if f.CountNonZero() != 1 {
		t.Fatal("count")
	}
	f.Reset()
	if f.CountNonZero() != 0 {
		t.Fatal("reset")
	}
}

func TestFlagsWaitNonZero(t *testing.T) {
	k := sim.NewKernel(1)
	f := NewFlags(k, "t", 2)
	var at sim.Time
	k.Go("waiter", func(p *sim.Proc) {
		f.WaitNonZero(p, 1)
		at = p.Now()
	})
	k.Go("setter", func(p *sim.Proc) {
		p.Wait(100)
		f.Set(0, 1) // wrong index, waiter keeps waiting
		p.Wait(100)
		f.Set(1, 1)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if at != 200 {
		t.Fatalf("woke at %v, want 200", at)
	}
}

func TestBlockCtxGeometry(t *testing.T) {
	k, _, d := newTestDevice()
	s := d.NewStream("s")
	var bases []int
	var warps int
	k.Go("host", func(p *sim.Proc) {
		g := s.Launch(KernelSpec{
			Name: "geom", Grid: 3, Block: 96,
			Body: func(bc *BlockCtx) {
				bases = append(bases, bc.ThreadBase())
				warps = bc.Warps()
				n := 0
				bc.ForEachThread(func(gt int) { n++ })
				if n != 96 {
					t.Errorf("ForEachThread ran %d times", n)
				}
			},
		})
		g.Wait(p)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(bases) != 3 || bases[0] != 0 || bases[1] != 96 || bases[2] != 192 {
		t.Fatalf("bases = %v", bases)
	}
	if warps != 3 {
		t.Fatalf("warps = %d, want 3", warps)
	}
}

func TestChargeExtendsWaveByMaxAcrossBlocks(t *testing.T) {
	k, m, d := newTestDevice()
	s := d.NewStream("s")
	var end sim.Time
	k.Go("host", func(p *sim.Proc) {
		g := s.Launch(KernelSpec{
			Name: "charge", Grid: 4, Block: 32,
			Body: func(bc *BlockCtx) {
				// Block 2 charges the most; wave extends by its charge only.
				bc.Charge(sim.Duration((bc.Idx + 1) * 100))
			},
		})
		g.Wait(p)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(int64(m.KernelLaunchCost+m.VecAddWaveTime) + 400)
	if end != want {
		t.Fatalf("end = %v, want %v (max charge, not sum)", end, want)
	}
}

func TestPendingAndWaitIdle(t *testing.T) {
	k, _, d := newTestDevice()
	s := d.NewStream("s")
	k.Go("host", func(p *sim.Proc) {
		s.Launch(KernelSpec{Name: "a", Grid: 1, Block: 32, Body: func(bc *BlockCtx) {}})
		s.Launch(KernelSpec{Name: "b", Grid: 1, Block: 32, Body: func(bc *BlockCtx) {}})
		if s.Pending() != 2 {
			t.Errorf("pending = %d, want 2", s.Pending())
		}
		s.WaitIdle(p)
		if s.Pending() != 0 {
			t.Errorf("pending after idle = %d", s.Pending())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: for any grid/block geometry, every thread index is visited
// exactly once across all blocks.
func TestThreadCoverageProperty(t *testing.T) {
	f := func(g, b uint8) bool {
		grid, block := int(g%32)+1, int(b%64)+1
		k, _, d := newTestDevice()
		s := d.NewStream("s")
		seen := make([]int, grid*block)
		k.Go("host", func(p *sim.Proc) {
			gd := s.Launch(KernelSpec{
				Name: "cover", Grid: grid, Block: block,
				Body: func(bc *BlockCtx) {
					bc.ForEachThread(func(i int) { seen[i]++ })
				},
			})
			gd.Wait(p)
		})
		if err := k.Run(); err != nil {
			return false
		}
		for _, c := range seen {
			if c != 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestDeviceString(t *testing.T) {
	_, _, d := newTestDevice()
	if d.String() == "" {
		t.Fatal("empty String")
	}
	if len(d.Streams()) != 0 {
		t.Fatal("fresh device has no streams")
	}
	d.NewStream("x")
	if len(d.Streams()) != 1 {
		t.Fatal("stream not registered")
	}
}

func TestConcurrentStreamsContendForSMs(t *testing.T) {
	// Two full-occupancy kernels on different streams of one device must
	// time-share the SMs: total completion ≈ serial sum, not max.
	k, m, d := newTestDevice()
	s1 := d.NewStream("s1")
	s2 := d.NewStream("s2")
	const waves = 8
	var end sim.Time
	k.Go("host", func(p *sim.Proc) {
		g1 := s1.Launch(KernelSpec{Name: "a", Grid: 264 * waves, Block: 1024})
		g2 := s2.Launch(KernelSpec{Name: "b", Grid: 264 * waves, Block: 1024})
		g1.Wait(p)
		g2.Wait(p)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	serial := sim.Time(int64(m.KernelLaunchCost) + 2*waves*int64(m.VecAddWaveTime))
	if end < serial {
		t.Fatalf("concurrent kernels finished at %v, below serial bound %v (no contention modeled)", end, serial)
	}
}

func TestSingleStreamTimingUnchangedByContentionModel(t *testing.T) {
	// With one stream the wave-claim arithmetic must reduce to the plain
	// sequential model.
	k, m, d := newTestDevice()
	s := d.NewStream("s")
	var end sim.Time
	k.Go("host", func(p *sim.Proc) {
		g := s.Launch(KernelSpec{Name: "k", Grid: 2048, Block: 1024})
		g.Wait(p)
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := sim.Time(int64(m.KernelLaunchCost) + 8*int64(m.VecAddWaveTime))
	if end != want {
		t.Fatalf("end = %v, want %v", end, want)
	}
}

// TestClaimWaveOverflow: a wave ending past the end of virtual time panics
// with a virtual time overflow instead of wrapping the SMs' busy horizon
// negative, which would let every later wave start at once.
func TestClaimWaveOverflow(t *testing.T) {
	_, _, d := newTestDevice()
	if got := d.ClaimWave(1 << 62); got != 1<<62 {
		t.Fatalf("first wave ends at %d", got)
	}
	defer func() {
		if r := recover(); !strings.Contains(fmt.Sprint(r), "virtual time overflow") {
			t.Fatalf("second wave: recovered %v, want a virtual time overflow", r)
		}
	}()
	d.ClaimWave(1 << 62)
}

// TestTimingOnlyAllocIsLengthOnly: a timing-only device hands out the
// shared length-only backing, a full-payload one fresh zeroed memory.
func TestTimingOnlyAllocIsLengthOnly(t *testing.T) {
	const n = 5*1024 + 3
	_, _, d := newTestDevice()
	buf := d.Alloc(n)
	if len(buf) != n || &buf[0] == &LengthOnly(1)[0] {
		t.Fatal("full-payload Alloc returned the length-only backing")
	}
	for i, v := range buf {
		if v != 0 {
			t.Fatalf("element %d = %v, want 0", i, v)
		}
	}
	k, _, d := newTestDevice()
	k.SetTimingOnly()
	if lo := d.Alloc(n); len(lo) != n || &lo[0] != &LengthOnly(1)[0] {
		t.Fatal("timing-only Alloc did not return a LengthOnly buffer")
	}
}

// chargeBody is a kernel body that captures nothing, so launching it
// allocates no closure.
func chargeBody(b *BlockCtx) { b.Charge(1) }

// TestWaveBlocksAllocFree pins that block bodies run against the stream's
// one reused BlockCtx: a full wave of blocks allocates exactly what a
// one-block kernel does.
func TestWaveBlocksAllocFree(t *testing.T) {
	run := func(grid int) float64 {
		return testing.AllocsPerRun(20, func() {
			k, _, d := newTestDevice()
			s := d.NewStream("s")
			k.Go("host", func(p *sim.Proc) {
				s.Launch(KernelSpec{Name: "k", Grid: grid, Block: 1024, Body: chargeBody})
				s.Synchronize(p)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
		})
	}
	m := cluster.DefaultModel()
	wave := m.BlocksPerWave(1024)
	if one, full := run(1), run(wave); full != one {
		t.Fatalf("a %d-block wave made %v allocs, a one-block kernel %v: blocks allocate", wave, full, one)
	}
}
