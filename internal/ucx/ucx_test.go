package ucx

import (
	"testing"
	"testing/quick"

	"mpipart/internal/cluster"
	"mpipart/internal/fabric"
	"mpipart/internal/gpu"
	"mpipart/internal/sim"
)

// testWorld builds a two-node fabric with one worker per GPU.
func testWorld(t *testing.T) (*sim.Kernel, *Context, []*Worker) {
	t.Helper()
	k := sim.NewKernel(1)
	m := cluster.DefaultModel()
	f := fabric.New(k, &m, cluster.TwoNodeGH200())
	ctx := NewContext(k, &m, f, NewRegistry())
	ws := make([]*Worker, 8)
	for i := range ws {
		ws[i] = ctx.NewWorker(WorkerAddr(i), i)
	}
	return k, ctx, ws
}

func TestAMDeliveryAndPop(t *testing.T) {
	k, _, ws := testWorld(t)
	var got AM
	k.Go("recv", func(p *sim.Proc) {
		got = ws[1].WaitAM(p, 7, nil)
	})
	k.Go("send", func(p *sim.Proc) {
		ws[0].AMSend(1, 7, "hello", 64)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if got.Src != 0 || got.ID != 7 || got.Payload.(string) != "hello" {
		t.Fatalf("got %+v", got)
	}
}

func TestAMPredicateMatching(t *testing.T) {
	k, _, ws := testWorld(t)
	var first string
	k.Go("recv", func(p *sim.Proc) {
		am := ws[1].WaitAM(p, 3, func(a AM) bool { return a.Payload.(string) == "b" })
		first = am.Payload.(string)
	})
	k.Go("send", func(p *sim.Proc) {
		ws[0].AMSend(1, 3, "a", 16)
		ws[0].AMSend(1, 3, "b", 16)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if first != "b" {
		t.Fatalf("predicate match = %q", first)
	}
	// "a" must still be in the mailbox.
	if am, ok := ws[1].PopAM(3, nil); !ok || am.Payload.(string) != "a" {
		t.Fatal("unmatched AM lost")
	}
}

func TestPopAMEmptyMailbox(t *testing.T) {
	_, _, ws := testWorld(t)
	if _, ok := ws[0].PopAM(1, nil); ok {
		t.Fatal("pop on empty mailbox succeeded")
	}
}

func TestAMInterNodeSlowerThanIntraNode(t *testing.T) {
	k, _, ws := testWorld(t)
	var intra, inter sim.Time
	k.Go("r1", func(p *sim.Proc) { ws[1].WaitAM(p, 1, nil); intra = p.Now() })
	k.Go("r4", func(p *sim.Proc) { ws[4].WaitAM(p, 1, nil); inter = p.Now() })
	k.Go("send", func(p *sim.Proc) {
		ws[0].AMSend(1, 1, nil, 64)
		ws[0].AMSend(4, 1, nil, 64)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if intra >= inter {
		t.Fatalf("intra-node AM (%v) should beat inter-node (%v)", intra, inter)
	}
}

func TestMemMapChargesBySize(t *testing.T) {
	k, ctx, ws := testWorld(t)
	var small, big sim.Duration
	k.Go("p", func(p *sim.Proc) {
		t0 := p.Now()
		ws[0].MemMap(p, [][]float64{make([]float64, 8)}, nil)
		small = sim.Duration(p.Now() - t0)
		t0 = p.Now()
		ws[0].MemMap(p, [][]float64{make([]float64, 1<<22)}, nil)
		big = sim.Duration(p.Now() - t0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if small < ctx.M.MemMapBase || big <= small {
		t.Fatalf("memmap costs: small=%v big=%v", small, big)
	}
}

func TestPutPartitionDeliversDataAndDefersCallback(t *testing.T) {
	k, _, ws := testWorld(t)
	dst := make([]float64, 4)
	flags := gpu.NewFlags(k, "f", 1)
	var cbRan sim.Time
	k.Go("recv", func(p *sim.Proc) {
		h := ws[1].MemMap(p, [][]float64{dst}, flags)
		rk := h.RkeyPack()
		ws[1].AMSend(0, 9, rk, 128)
	})
	k.Go("send", func(p *sim.Proc) {
		am := ws[0].WaitAM(p, 9, nil)
		rk := am.Payload.(Rkey)
		ep := ws[0].EpTo(p, 1)
		rk2, err := ep.RkeyUnpack(p, rk)
		if err != nil {
			t.Error(err)
			return
		}
		ep.PutPartition(p, rk2, 0, []float64{1, 2, 3, 4}, func(pp *sim.Proc) { cbRan = pp.Now() })
		// Callback must NOT run until we progress.
		p.Wait(sim.Microseconds(50))
		if cbRan != 0 {
			t.Error("callback ran without Progress")
		}
		if ws[0].Outstanding() != 0 {
			// Transfer long since delivered at 50µs.
			t.Errorf("outstanding = %d after delivery", ws[0].Outstanding())
		}
		if !ws[0].HasPending() {
			t.Error("completion callback should be pending")
		}
		ws[0].Progress(p)
		if cbRan == 0 {
			t.Error("callback did not run on Progress")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1 || dst[3] != 4 {
		t.Fatalf("dst = %v", dst)
	}
}

func TestPutFlagSetsRemoteFlag(t *testing.T) {
	k, _, ws := testWorld(t)
	flags := gpu.NewFlags(k, "f", 4)
	dst := make([]float64, 1)
	var rk Rkey
	k.Go("setup", func(p *sim.Proc) {
		h := ws[1].MemMap(p, [][]float64{dst}, flags)
		rk = h.RkeyPack()
	})
	k.Go("send", func(p *sim.Proc) {
		p.Wait(sim.Microseconds(100))
		ep := ws[0].EpTo(p, 1)
		ep.PutFlag(p, rk, 2, 1, nil)
		flags.WaitNonZero(p, 2)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if flags.Get(2) != 1 {
		t.Fatal("flag not set")
	}
}

func TestPutFlagWithoutFlagsPanics(t *testing.T) {
	k, _, ws := testWorld(t)
	k.Go("p", func(p *sim.Proc) {
		h := ws[1].MemMap(p, [][]float64{make([]float64, 1)}, nil)
		rk := h.RkeyPack()
		ep := ws[0].EpTo(p, 1)
		defer func() {
			if recover() == nil {
				t.Error("expected panic")
			}
		}()
		ep.PutFlag(p, rk, 0, 1, nil)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPutPartitionBoundsChecks(t *testing.T) {
	k, _, ws := testWorld(t)
	k.Go("p", func(p *sim.Proc) {
		h := ws[1].MemMap(p, [][]float64{make([]float64, 2)}, nil)
		rk := h.RkeyPack()
		ep := ws[0].EpTo(p, 1)
		check := func(fn func()) {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			fn()
		}
		check(func() { ep.PutPartition(p, rk, 1, nil, nil) })
		check(func() { ep.PutPartition(p, rk, 0, make([]float64, 3), nil) })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRkeyUnpackWrongOwner(t *testing.T) {
	k, _, ws := testWorld(t)
	k.Go("p", func(p *sim.Proc) {
		h := ws[2].MemMap(p, [][]float64{make([]float64, 1)}, nil)
		rk := h.RkeyPack()
		ep := ws[0].EpTo(p, 1)
		if _, err := ep.RkeyUnpack(p, rk); err == nil {
			t.Error("expected owner mismatch error")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestEndpointCaching(t *testing.T) {
	k, _, ws := testWorld(t)
	k.Go("p", func(p *sim.Proc) {
		t0 := p.Now()
		e1 := ws[0].EpTo(p, 1)
		first := p.Now() - t0
		t0 = p.Now()
		e2 := ws[0].EpTo(p, 1)
		second := p.Now() - t0
		if e1 != e2 {
			t.Error("endpoint not cached")
		}
		if first == 0 || second != 0 {
			t.Errorf("ep create costs: first=%v second=%v", first, second)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRkeyPtrIntraNodeOnly(t *testing.T) {
	k, _, ws := testWorld(t)
	k.Go("p", func(p *sim.Proc) {
		buf := make([]float64, 4)
		fl := gpu.NewFlags(k, "f", 2)
		h := ws[1].MemMap(p, [][]float64{buf}, fl)
		rk := h.RkeyPack()
		// Intra-node: direct mapping.
		ep := ws[0].EpTo(p, 1)
		parts, flags, err := ep.RkeyPtr(rk)
		if err != nil {
			t.Errorf("intra-node RkeyPtr failed: %v", err)
		} else {
			parts[0][0] = 42
			if buf[0] != 42 {
				t.Error("RkeyPtr mapping is not direct")
			}
			if flags != fl {
				t.Error("flag mapping is not direct")
			}
		}
		// Inter-node: must fail like the real IPC transport.
		h4 := ws[4].MemMap(p, [][]float64{make([]float64, 1)}, nil)
		ep4 := ws[0].EpTo(p, 4)
		if _, _, err := ep4.RkeyPtr(h4.RkeyPack()); err == nil {
			t.Error("inter-node RkeyPtr should fail")
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestDuplicateWorkerAddressPanics(t *testing.T) {
	_, ctx, _ := testWorld(t)
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	ctx.NewWorker(0, 0)
}

func TestUnknownWorkerLookupPanics(t *testing.T) {
	reg := NewRegistry()
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	reg.Lookup(99)
}

func TestRkeyAccessors(t *testing.T) {
	k, _, ws := testWorld(t)
	k.Go("p", func(p *sim.Proc) {
		h := ws[0].MemMap(p, [][]float64{make([]float64, 3), make([]float64, 5)}, nil)
		rk := h.RkeyPack()
		if rk.Parts() != 2 || len(rk.parts[0]) != 3 || len(rk.parts[1]) != 5 {
			t.Errorf("rkey accessors wrong: %d %d %d", rk.Parts(), len(rk.parts[0]), len(rk.parts[1]))
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

// Property: puts of random sizes to random intra-node partitions always
// deliver exactly the bytes sent, in order, and outstanding drains to zero
// after progression.
func TestPutDeliveryProperty(t *testing.T) {
	f := func(sizes []uint8) bool {
		if len(sizes) == 0 {
			return true
		}
		if len(sizes) > 16 {
			sizes = sizes[:16]
		}
		k := sim.NewKernel(1)
		m := cluster.DefaultModel()
		fb := fabric.New(k, &m, cluster.OneNodeGH200())
		ctx := NewContext(k, &m, fb, NewRegistry())
		w0 := ctx.NewWorker(0, 0)
		w1 := ctx.NewWorker(1, 1)
		parts := make([][]float64, len(sizes))
		srcs := make([][]float64, len(sizes))
		for i, s := range sizes {
			n := int(s)%64 + 1
			parts[i] = make([]float64, n)
			srcs[i] = make([]float64, n)
			for j := range srcs[i] {
				srcs[i][j] = float64(i*1000 + j)
			}
		}
		ok := true
		k.Go("p", func(p *sim.Proc) {
			h := w1.MemMap(p, parts, nil)
			rk := h.RkeyPack()
			ep := w0.EpTo(p, 1)
			for i := range srcs {
				ep.PutPartition(p, rk, i, srcs[i], nil)
			}
			p.Wait(sim.Second)
			w0.Progress(p)
			if w0.Outstanding() != 0 || w0.HasPending() {
				ok = false
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		for i := range parts {
			for j := range parts[i] {
				if parts[i][j] != srcs[i][j] {
					return false
				}
			}
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}
