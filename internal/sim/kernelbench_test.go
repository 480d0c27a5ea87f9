package sim

// Kernel microbenchmarks for the discrete-event scheduler hot path. Every
// figure reproduction bottoms out here, so these are the numbers that bound
// benchgate wall time. The four workloads cover the distinct hot paths:
//
//   - TimerChurn:          WaitUntil + timer event dispatch + proc handoff
//   - EventChurn:          pure event-callback dispatch (no proc handoff)
//   - ProcPingPong:        Cond signal/wake alternation between two procs
//   - CondBroadcastStorm:  one broadcast waking a wide waiter set
//   - MixedWorkload:       queue + pipe + timers together (realistic shape)
//   - KernelScale10k/100k: broadcast rounds over 10k/100k mixed Task/Proc
//                          waiters — the fabric-scale world the goroutine
//                          design could not reasonably hold
//
// Companion allocation assertions live in kernelalloc_test.go.

import (
	"runtime"
	"testing"
)

// BenchmarkTimerChurn measures one Wait(1) round trip per op: push a timer
// event, park the proc, pop the event, resume the proc.
func BenchmarkTimerChurn(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	k.Go("churn", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkEventChurn measures the pure event path: each callback schedules
// the next, so per op = one heap push + one heap pop + one dispatch, with no
// proc handoff at all.
func BenchmarkEventChurn(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	n := 0
	var tick func()
	tick = func() {
		n++
		if n < b.N {
			k.After(1, tick)
		}
	}
	k.After(1, tick)
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	if n != b.N {
		b.Fatalf("ticks = %d, want %d", n, b.N)
	}
}

// BenchmarkProcPingPong measures two procs handing a turn back and forth
// through a Cond: per op = two broadcasts, two wakes, two handoffs.
func BenchmarkProcPingPong(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	c := NewCond(k, "turn")
	turn := 0
	waitZero := func() bool { return turn == 0 }
	waitOne := func() bool { return turn == 1 }
	k.Go("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			turn = 1
			c.Broadcast()
			c.WaitFor(p, waitZero)
		}
	})
	k.Go("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			c.WaitFor(p, waitOne)
			turn = 0
			c.Broadcast()
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkCondBroadcastStorm measures one broadcast waking 64 parked procs
// per op — the completion-counter shape (Counter.Add under WaitAtLeast) that
// partitioned-arrival tracking produces.
func BenchmarkCondBroadcastStorm(b *testing.B) {
	b.ReportAllocs()
	const W = 64
	k := NewKernel(1)
	c := NewCond(k, "storm")
	round := 0
	for w := 0; w < W; w++ {
		k.Go("w", func(p *Proc) {
			for r := 1; r <= b.N; r++ {
				for round < r {
					c.Wait(p)
				}
			}
		})
	}
	k.Go("driver", func(p *Proc) {
		for r := 1; r <= b.N; r++ {
			p.Wait(1)
			round = r
			c.Broadcast()
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// BenchmarkMixedWorkload measures a producer/consumer pair exchanging work
// through a Queue with pipe transfers and completion events — the shape of a
// simulated rank: queue ops, timer waits, event callbacks, counter wakes.
func BenchmarkMixedWorkload(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(7)
	pipe := NewPipe(k, "link", 100, 1e9)
	q := NewQueue[int](k, "work")
	done := NewCounter(k, "done")
	incr := func() { done.Add(1) }
	k.Go("producer", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			q.Push(i)
			p.Wait(50)
		}
	})
	k.GoDaemon("consumer", func(p *Proc) {
		for {
			v := q.Pop(p)
			pipe.TransferThen(int64(256+v%256), incr)
			p.Wait(10)
		}
	})
	k.Go("joiner", func(p *Proc) {
		done.WaitAtLeast(p, b.N)
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}

// benchmarkKernelScale is the scale workload: `actors` waiters — one Proc
// per 64 actors, the rest continuation Tasks — all parked on a single Cond,
// with each benchmark op broadcasting once and waiting for every actor to
// wake and re-park. Per op = `actors` wake dispatches. The reported metrics
// are heap-B/actor (heap growth of building and parking the world, divided
// by the actor count; Proc stacks are not heap so this is dominated by Task
// structs and the waiter ring) and allocs/dispatch over the measured rounds,
// which must sit at zero in steady state. A sidecar-reporting twin lives in
// internal/bench/scale.go (MeasureKernelScale) so BENCH_PERF.json tracks
// these numbers across commits.
func benchmarkKernelScale(b *testing.B, actors int) {
	b.ReportAllocs()
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)

	k := NewKernel(1)
	c := NewCond(k, "scale")
	procs := actors / 64
	for i := 0; i < procs; i++ {
		k.GoDaemonID("sp", i, func(p *Proc) {
			for {
				c.Wait(p)
			}
		})
	}
	for i := procs; i < actors; i++ {
		k.SpawnTaskDaemonID("st", i, func(t *Task) { c.Await(t) })
	}

	var bytesPerActor, allocsPerDispatch float64
	k.Go("driver", func(p *Proc) {
		p.Wait(1) // every waiter has run once and parked
		runtime.GC()
		var ms1 runtime.MemStats
		runtime.ReadMemStats(&ms1)
		bytesPerActor = float64(ms1.HeapAlloc-ms0.HeapAlloc) / float64(actors)
		c.Broadcast() // warm round: size the wake ring once
		p.Wait(1)
		d0 := k.Dispatched() // per-kernel count is live; TotalDispatched flushes at Run exit
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for r := 0; r < b.N; r++ {
			c.Broadcast()
			p.Wait(1)
		}
		runtime.ReadMemStats(&after)
		allocsPerDispatch = float64(after.Mallocs-before.Mallocs) /
			float64(k.Dispatched()-d0)
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
	b.ReportMetric(bytesPerActor, "heap-B/actor")
	b.ReportMetric(allocsPerDispatch, "allocs/dispatch")
}

// BenchmarkKernelScale10k broadcasts over 10k mixed actors: 156 procs +
// 9,844 tasks.
func BenchmarkKernelScale10k(b *testing.B) { benchmarkKernelScale(b, 10_000) }

// BenchmarkKernelScale100k broadcasts over 100k mixed actors — 1,562 procs +
// 98,438 tasks. Holding 100k goroutine-procs would pin ~800 MB of stacks;
// the continuation world holds the same actor count in tens of MB of heap.
func BenchmarkKernelScale100k(b *testing.B) { benchmarkKernelScale(b, 100_000) }

// BenchmarkSpawnReap measures proc lifecycle cost: spawn, immediate exit,
// reap — the per-world setup overhead the sweep runner pays for every rank,
// stream and engine.
func BenchmarkSpawnReap(b *testing.B) {
	b.ReportAllocs()
	k := NewKernel(1)
	k.Go("spawner", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			k.Go("child", func(c *Proc) {})
			p.Wait(1)
		}
	})
	if err := k.Run(); err != nil {
		b.Fatal(err)
	}
}
