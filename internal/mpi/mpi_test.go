package mpi

import (
	"math"
	"testing"
	"testing/quick"

	"mpipart/internal/cluster"
	"mpipart/internal/sim"
)

func newTwoNodeWorld() *World {
	return NewWorld(cluster.TwoNodeGH200(), cluster.DefaultModel(), 1)
}

func TestWorldConstruction(t *testing.T) {
	w := newTwoNodeWorld()
	if w.Size() != 8 {
		t.Fatalf("size = %d, want 8", w.Size())
	}
	for i := 0; i < 8; i++ {
		r := w.Rank(i)
		if r.ID != i || r.Dev.ID != i || r.Worker == nil || r.Stream == nil || r.Engine == nil {
			t.Fatalf("rank %d misconstructed", i)
		}
	}
}

func TestSendRecvDeliversData(t *testing.T) {
	w := newTwoNodeWorld()
	src := []float64{1, 2, 3}
	dst := make([]float64, 3)
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		switch r.ID {
		case 0:
			r.Send(p, 1, 42, src)
		case 1:
			r.Recv(p, 0, 42, dst)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 1 || dst[2] != 3 {
		t.Fatalf("dst = %v", dst)
	}
	if s, rr := w.PendingMessages(); s != 0 || rr != 0 {
		t.Fatalf("pending = %d/%d", s, rr)
	}
}

func TestSendBeforeRecvAndRecvBeforeSend(t *testing.T) {
	for _, order := range []string{"send-first", "recv-first"} {
		w := newTwoNodeWorld()
		got := make([]float64, 1)
		w.Spawn(func(r *Rank) {
			p := r.Proc()
			switch r.ID {
			case 0:
				if order == "recv-first" {
					p.Wait(sim.Microseconds(50))
				}
				r.Send(p, 1, 1, []float64{7})
			case 1:
				if order == "send-first" {
					p.Wait(sim.Microseconds(50))
				}
				r.Recv(p, 0, 1, got)
			}
		})
		if err := w.Run(); err != nil {
			t.Fatalf("%s: %v", order, err)
		}
		if got[0] != 7 {
			t.Fatalf("%s: got %v", order, got)
		}
	}
}

func TestTagMatchingSeparatesMessages(t *testing.T) {
	w := newTwoNodeWorld()
	a, b := make([]float64, 1), make([]float64, 1)
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		switch r.ID {
		case 0:
			r.Send(p, 1, 10, []float64{10})
			r.Send(p, 1, 20, []float64{20})
		case 1:
			// Receive in reverse tag order; matching must be by tag.
			r.Recv(p, 0, 20, b)
			r.Recv(p, 0, 10, a)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if a[0] != 10 || b[0] != 20 {
		t.Fatalf("a=%v b=%v", a, b)
	}
}

func TestSameTagFIFOOrdering(t *testing.T) {
	w := newTwoNodeWorld()
	var got []float64
	recv := make([]float64, 1)
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		switch r.ID {
		case 0:
			for i := 1; i <= 3; i++ {
				r.Send(p, 1, 5, []float64{float64(i)})
			}
		case 1:
			for i := 0; i < 3; i++ {
				r.Recv(p, 0, 5, recv)
				got = append(got, recv[0])
			}
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Fatalf("got %v", got)
	}
}

func TestMessageTruncationIsAnError(t *testing.T) {
	w := newTwoNodeWorld()
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		switch r.ID {
		case 0:
			r.Send(p, 1, 1, make([]float64, 4))
		case 1:
			r.Recv(p, 0, 1, make([]float64, 2))
		}
	})
	if err := w.Run(); err == nil {
		t.Fatal("expected truncation error from Run")
	}
}

func TestEagerSendCompletesWithoutRecv(t *testing.T) {
	w := newTwoNodeWorld()
	src := []float64{3}
	dst := make([]float64, 1)
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		switch r.ID {
		case 0:
			r.Send(p, 1, 1, src) // eager: returns before recv posted
			src[0] = 99          // must not corrupt the in-flight message
		case 1:
			p.Wait(sim.Microseconds(100))
			r.Recv(p, 0, 1, dst)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if dst[0] != 3 {
		t.Fatalf("eager payload corrupted: got %v", dst[0])
	}
}

func TestLargeSendRendezvousBlocks(t *testing.T) {
	w := newTwoNodeWorld()
	n := int(w.Model.EagerThresholdBytes/8) + 1
	var sendDone, recvPosted sim.Time
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		switch r.ID {
		case 0:
			r.Send(p, 1, 1, make([]float64, n))
			sendDone = p.Now()
		case 1:
			p.Wait(sim.Microseconds(200))
			recvPosted = p.Now()
			r.Recv(p, 0, 1, make([]float64, n))
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if sendDone <= recvPosted {
		t.Fatalf("rendezvous send completed at %v before recv posted at %v", sendDone, recvPosted)
	}
}

func TestInterNodeSlowerThanIntraNode(t *testing.T) {
	const n = 1 << 16
	measure := func(dst int) sim.Duration {
		w := newTwoNodeWorld()
		var elapsed sim.Duration
		w.Spawn(func(r *Rank) {
			p := r.Proc()
			switch r.ID {
			case 0:
				t0 := p.Now()
				r.Send(p, dst, 1, make([]float64, n))
				elapsed = sim.Duration(p.Now() - t0)
			case dst:
				r.Recv(p, 0, 1, make([]float64, n))
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return elapsed
	}
	intra := measure(1)
	inter := measure(4)
	if intra >= inter {
		t.Fatalf("intra=%v should beat inter=%v", intra, inter)
	}
}

func TestSendrecvNoDeadlockOnRing(t *testing.T) {
	w := newTwoNodeWorld()
	P := w.Size()
	results := make([]float64, P)
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		next, prev := (r.ID+1)%P, (r.ID-1+P)%P
		out := []float64{float64(r.ID)}
		in := make([]float64, 1)
		rop := r.Irecv(p, prev, 9, in)
		sop := r.Isend(p, next, 9, out)
		rop.Wait(p)
		sop.Wait(p)
		results[r.ID] = in[0]
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < P; i++ {
		want := float64((i - 1 + P) % P)
		if results[i] != want {
			t.Fatalf("rank %d got %v, want %v", i, results[i], want)
		}
	}
}

func TestBarrierSynchronizes(t *testing.T) {
	w := newTwoNodeWorld()
	var maxBefore, minAfter sim.Time
	minAfter = math.MaxInt64
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		p.Wait(sim.Duration(r.ID) * sim.Microseconds(10))
		if p.Now() > maxBefore {
			maxBefore = p.Now()
		}
		r.Barrier(p)
		if p.Now() < minAfter {
			minAfter = p.Now()
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if minAfter < maxBefore {
		t.Fatalf("barrier leaked: last arrival %v, first departure %v", maxBefore, minAfter)
	}
}

func TestBarrierReusable(t *testing.T) {
	w := newTwoNodeWorld()
	count := 0
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		for i := 0; i < 3; i++ {
			r.Barrier(p)
		}
		count++
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if count != 8 {
		t.Fatalf("count = %d", count)
	}
}

func TestAllreduceSumCorrect(t *testing.T) {
	w := newTwoNodeWorld()
	P := w.Size()
	const n = 1000
	bufs := make([][]float64, P)
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(n)
		for i := range buf {
			buf[i] = float64(r.ID + i)
		}
		bufs[r.ID] = buf
		r.Allreduce(p, buf, OpSum)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		want := 0.0
		for rk := 0; rk < P; rk++ {
			want += float64(rk + i)
		}
		for rk := 0; rk < P; rk++ {
			if math.Abs(bufs[rk][i]-want) > 1e-9 {
				t.Fatalf("rank %d elem %d = %v, want %v", rk, i, bufs[rk][i], want)
			}
		}
	}
}

func TestAllreduceMax(t *testing.T) {
	w := NewWorld(cluster.OneNodeGH200(), cluster.DefaultModel(), 1)
	P := w.Size()
	bufs := make([][]float64, P)
	w.Spawn(func(r *Rank) {
		buf := []float64{float64(r.ID), float64(-r.ID)}
		bufs[r.ID] = buf
		r.Allreduce(r.Proc(), buf, OpMax)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	for rk := 0; rk < P; rk++ {
		if bufs[rk][0] != float64(P-1) || bufs[rk][1] != 0 {
			t.Fatalf("rank %d = %v", rk, bufs[rk])
		}
	}
}

func TestAllreduceSingleRankNoop(t *testing.T) {
	w := NewWorld(cluster.Topology{Nodes: 1, GPUsPerNode: 1}, cluster.DefaultModel(), 1)
	w.Spawn(func(r *Rank) {
		buf := []float64{1, 2}
		r.Allreduce(r.Proc(), buf, OpSum)
		if buf[0] != 1 || buf[1] != 2 {
			t.Error("single-rank allreduce must be identity")
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestAllreduceChargesHostStaging(t *testing.T) {
	// The traditional allreduce must be far slower than the pure network
	// alpha-beta bound because of host staging + CPU reduction.
	w := NewWorld(cluster.OneNodeGH200(), cluster.DefaultModel(), 1)
	const n = 1 << 20 // 8 MiB
	var elapsed sim.Duration
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(n)
		r.Barrier(p)
		t0 := p.Now()
		r.Allreduce(p, buf, OpSum)
		if r.ID == 0 {
			elapsed = sim.Duration(p.Now() - t0)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	// Loose lower bound: staging 2x8MiB over C2C + CPU reduce of ~3/4
	// buffer + ring transfers over shm.
	if elapsed < sim.Microseconds(500) {
		t.Fatalf("host-staged allreduce suspiciously fast: %v", elapsed)
	}
}

func TestReduceOpApply(t *testing.T) {
	dst := []float64{1, 5}
	OpSum.Apply(dst, []float64{2, 3})
	if dst[0] != 3 || dst[1] != 8 {
		t.Fatalf("sum: %v", dst)
	}
	OpMax.Apply(dst, []float64{10, 0})
	if dst[0] != 10 || dst[1] != 8 {
		t.Fatalf("max: %v", dst)
	}
}

func TestSplitChunksProperty(t *testing.T) {
	f := func(n uint16, p uint8) bool {
		P := int(p)%16 + 1
		N := int(n)
		cs := splitChunks(N, P)
		if len(cs) != P {
			return false
		}
		total, off := 0, 0
		for _, c := range cs {
			if c.off != off || c.n < 0 {
				return false
			}
			off += c.n
			total += c.n
		}
		// Sizes differ by at most one.
		mn, mx := cs[0].n, cs[0].n
		for _, c := range cs {
			if c.n < mn {
				mn = c.n
			}
			if c.n > mx {
				mx = c.n
			}
		}
		return total == N && mx-mn <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: allreduce(SUM) equals the sequential sum for random inputs.
func TestAllreduceMatchesSequentialProperty(t *testing.T) {
	f := func(vals [4]int8, n uint8) bool {
		N := int(n)%32 + 1
		w := NewWorld(cluster.OneNodeGH200(), cluster.DefaultModel(), 1)
		P := w.Size()
		bufs := make([][]float64, P)
		w.Spawn(func(r *Rank) {
			buf := make([]float64, N)
			for i := range buf {
				buf[i] = float64(vals[r.ID]) * float64(i+1)
			}
			bufs[r.ID] = buf
			r.Allreduce(r.Proc(), buf, OpSum)
		})
		if err := w.Run(); err != nil {
			return false
		}
		for i := 0; i < N; i++ {
			want := 0.0
			for rk := 0; rk < P; rk++ {
				want += float64(vals[rk]) * float64(i+1)
			}
			for rk := 0; rk < P; rk++ {
				if math.Abs(bufs[rk][i]-want) > 1e-9 {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestEngineRegisterAndDrain(t *testing.T) {
	w := newTwoNodeWorld()
	var ticks int
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		if r.ID != 0 {
			return
		}
		r.Engine.Register(progressFunc(func() (bool, bool) {
			ticks++
			return true, ticks < 5
		}))
		p.Wait(sim.Microseconds(100))
		if r.Engine.Active() != 0 {
			t.Errorf("engine still active: %d", r.Engine.Active())
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if ticks != 5 {
		t.Fatalf("ticks = %d, want 5", ticks)
	}
}

type progressFunc func() (bool, bool)

func (f progressFunc) ProgressTask(t *sim.Task, done func(didWork, stillActive bool)) { done(f()) }

func TestIsendIrecvTestDone(t *testing.T) {
	w := newTwoNodeWorld()
	n := int(w.Model.EagerThresholdBytes/8) * 4 // rendezvous-sized
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		switch r.ID {
		case 0:
			op := r.Isend(p, 1, 3, make([]float64, n))
			if op.Done() {
				t.Error("rendezvous op done before match")
			}
			op.Wait(p)
			if !op.Done() {
				t.Error("op not done after wait")
			}
		case 1:
			p.Wait(sim.Microseconds(10))
			r.Recv(p, 0, 3, make([]float64, n))
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestInterNodeEagerStagingCost(t *testing.T) {
	// Small device-buffer sends crossing nodes pay the host staging cost;
	// intra-node eager sends do not.
	measurePost := func(dst int) sim.Duration {
		w := newTwoNodeWorld()
		var d sim.Duration
		w.Spawn(func(r *Rank) {
			p := r.Proc()
			switch r.ID {
			case 0:
				t0 := p.Now()
				r.Send(p, dst, 1, make([]float64, 8)) // eager, completes locally
				d = sim.Duration(p.Now() - t0)
			case dst:
				r.Recv(p, 0, 1, make([]float64, 8))
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	intra := measurePost(1)
	inter := measurePost(4)
	m := cluster.DefaultModel()
	if inter-intra < m.GPUEagerStagingCost {
		t.Fatalf("inter-node eager send (%v) should exceed intra (%v) by the staging cost %v",
			inter, intra, m.GPUEagerStagingCost)
	}
}

func TestHostBufferPathUsesShm(t *testing.T) {
	// Host-path bulk transfers ride the (slower) shared-memory pipe, not
	// NVLink: for a large message the host path must be slower.
	const n = 1 << 17
	measure := func(host bool) sim.Duration {
		w := newTwoNodeWorld()
		var d sim.Duration
		w.Spawn(func(r *Rank) {
			p := r.Proc()
			buf := make([]float64, n)
			switch r.ID {
			case 0:
				t0 := p.Now()
				if host {
					r.SendHostBuf(p, 1, 1, buf)
				} else {
					r.Send(p, 1, 1, buf)
				}
				d = sim.Duration(p.Now() - t0)
			case 1:
				if host {
					r.RecvHostBuf(p, 0, 1, buf)
				} else {
					r.Recv(p, 0, 1, buf)
				}
			}
		})
		if err := w.Run(); err != nil {
			t.Fatal(err)
		}
		return d
	}
	dev := measure(false)
	host := measure(true)
	if host <= dev {
		t.Fatalf("host path (%v) should be slower than NVLink device path (%v)", host, dev)
	}
}

func TestSendrecvHostPath(t *testing.T) {
	w := NewWorld(cluster.OneNodeGH200(), cluster.DefaultModel(), 1)
	got := make([]float64, 2)
	w.Spawn(func(r *Rank) {
		p := r.Proc()
		switch r.ID {
		case 0:
			rop := r.IrecvHost(p, 1, 2, got)
			sop := r.IsendHost(p, 1, 1, []float64{1, 2})
			rop.Wait(p)
			sop.Wait(p)
		case 1:
			out := []float64{3, 4}
			in := make([]float64, 2)
			rop := r.IrecvHost(p, 0, 1, in)
			sop := r.IsendHost(p, 0, 2, out)
			rop.Wait(p)
			sop.Wait(p)
		}
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	if got[0] != 3 || got[1] != 4 {
		t.Fatalf("got %v", got)
	}
}
