package sim

// Allocation assertions for the scheduler hot path, companion to the
// microbenchmarks in kernelbench_test.go. The perf contract (see the
// "Scheduler internals" section of the package doc) is that At and WaitUntil
// allocate nothing in steady state — after warm-up has sized the event heap
// and ring buffers — and that a stopped kernel releases every parked
// goroutine.

import (
	"runtime"
	"strings"
	"testing"
)

// TestAtSteadyStateAllocFree pins the pure event path: once the heap has
// capacity, an After push + Run dispatch cycle performs zero allocations.
func TestAtSteadyStateAllocFree(t *testing.T) {
	k := NewKernel(1)
	ticks := 0
	tick := func() { ticks++ }
	for i := 0; i < 64; i++ {
		k.After(Duration(i), tick) // warm the heap's capacity
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	allocs := testing.AllocsPerRun(200, func() {
		k.After(1, tick)
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("At/Run steady state: %.2f allocs/op, want 0", allocs)
	}
}

// TestWaitUntilLoneTimerAllocFree pins the fused lone-timer path: a proc
// advancing its own clock with nothing else pending must not allocate.
func TestWaitUntilLoneTimerAllocFree(t *testing.T) {
	k := NewKernel(1)
	var perOp float64
	k.Go("churn", func(p *Proc) {
		for i := 0; i < 100; i++ {
			p.Wait(1) // warm-up
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const n = 5000
		for i := 0; i < n; i++ {
			p.Wait(1)
		}
		runtime.ReadMemStats(&after)
		perOp = float64(after.Mallocs-before.Mallocs) / n
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if perOp >= 0.01 {
		t.Fatalf("lone-timer WaitUntil: %.4f allocs/op, want 0", perOp)
	}
}

// TestWaitUntilParkedAllocFree pins the full park/handoff path: two procs
// whose timers interleave, so every WaitUntil pushes a heap event, parks on
// its coroutine and is resumed by the scheduler. Steady state must still
// be allocation-free.
func TestWaitUntilParkedAllocFree(t *testing.T) {
	k := NewKernel(1)
	const warm, n = 100, 5000
	var perOp float64
	k.Go("a", func(p *Proc) {
		for i := 0; i < warm; i++ {
			p.Wait(2)
		}
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for i := 0; i < n; i++ {
			p.Wait(2)
		}
		runtime.ReadMemStats(&after)
		perOp = float64(after.Mallocs-before.Mallocs) / n
	})
	k.Go("b", func(p *Proc) {
		p.Wait(1) // offset so the two timers always interleave
		for i := 0; i < warm+n+10; i++ {
			p.Wait(2)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if perOp >= 0.01 {
		t.Fatalf("parked WaitUntil: %.4f allocs/op, want 0", perOp)
	}
}

// TestTaskSleepParkedAllocFree pins the Task timer path: two tasks whose
// sleeps interleave, so every Sleep pushes a heap event and every wake is a
// full runTask dispatch. Steady state — heap and run-queue ring warmed — must
// allocate nothing: a parked Task is an event-heap entry, not a goroutine.
func TestTaskSleepParkedAllocFree(t *testing.T) {
	k := NewKernel(1)
	const warm, n = 100, 5000
	var before, after runtime.MemStats
	var perOp float64
	steps := 0
	k.SpawnTask("a", func(tk *Task) {
		steps++
		if steps == warm {
			runtime.ReadMemStats(&before)
		}
		if steps == warm+n {
			runtime.ReadMemStats(&after)
			perOp = float64(after.Mallocs-before.Mallocs) / n
			return
		}
		tk.Sleep(2)
	})
	k.SpawnTask("b", func(tk *Task) {
		// Offset partner so the two timers always interleave and neither
		// task ever takes the fused lone-timer fast path.
		if tk.Now() == 0 {
			tk.Sleep(1)
			return
		}
		if tk.Now() < Time(2*(warm+n)+20) {
			tk.Sleep(2)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if perOp >= 0.01 {
		t.Fatalf("parked Task Sleep: %.4f allocs/op, want 0", perOp)
	}
}

// TestTaskAwaitSignalAllocFree pins the Task waiter-ring path: a daemon task
// parked on a Cond is signalled once per round by a driver task. Each round
// is a ring push + pop + runTask dispatch and must be allocation-free in
// steady state.
func TestTaskAwaitSignalAllocFree(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "ping")
	const warm, n = 100, 5000
	var before, after runtime.MemStats
	var perOp float64
	wakes := 0
	k.SpawnTaskDaemon("waiter", func(tk *Task) {
		wakes++
		if wakes == warm {
			runtime.ReadMemStats(&before)
		}
		if wakes == warm+n {
			runtime.ReadMemStats(&after)
			perOp = float64(after.Mallocs-before.Mallocs) / n
		}
		c.Await(tk)
	})
	rounds := 0
	k.SpawnTask("driver", func(tk *Task) {
		c.Signal()
		rounds++
		if rounds < warm+n+10 {
			tk.Sleep(1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if wakes < warm+n {
		t.Fatalf("waiter woke %d times, want at least %d", wakes, warm+n)
	}
	if perOp >= 0.01 {
		t.Fatalf("Task Await/Signal: %.4f allocs/op, want 0", perOp)
	}
}

// TestTaskThenInlineAllocFree pins the trampoline: a chain of Then
// continuations runs entirely inside one dispatch and must not allocate per
// step (the armed TaskFn is a stored method value or captured func, not a
// fresh closure).
func TestTaskThenInlineAllocFree(t *testing.T) {
	k := NewKernel(1)
	const warm, n = 100, 5000
	var before, after runtime.MemStats
	var perOp float64
	steps := 0
	var step TaskFn
	step = func(tk *Task) {
		steps++
		if steps == warm {
			runtime.ReadMemStats(&before)
		}
		if steps == warm+n {
			runtime.ReadMemStats(&after)
			perOp = float64(after.Mallocs-before.Mallocs) / n
			return
		}
		tk.Then(step)
	}
	k.SpawnTask("chain", step)
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if perOp >= 0.01 {
		t.Fatalf("inline Then chain: %.4f allocs/op, want 0", perOp)
	}
}

// TestKernelScaleTaskAllocFree pins the scale contract behind the KernelScale
// benchmarks: with 10k Task waiters parked on one Cond, a broadcast round —
// 10k ring pops, runTask dispatches and re-parks — must be allocation-free
// once the wake ring is sized. This is the "0 allocs/dispatch on Task paths"
// half of the 100k-actor acceptance bar; the benchmark reports the same
// number as a metric over the mixed world.
func TestKernelScaleTaskAllocFree(t *testing.T) {
	const actors = 10_000
	k := NewKernel(1)
	c := NewCond(k, "scale")
	for i := 0; i < actors; i++ {
		k.SpawnTaskDaemonID("st", i, func(tk *Task) { c.Await(tk) })
	}
	var perDispatch float64
	k.Go("driver", func(p *Proc) {
		p.Wait(1)     // all tasks parked
		c.Broadcast() // warm round sizes the wake ring
		p.Wait(1)
		d0 := k.Dispatched() // per-kernel count is live; TotalDispatched flushes at Run exit
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		const rounds = 5
		for r := 0; r < rounds; r++ {
			c.Broadcast()
			p.Wait(1)
		}
		runtime.ReadMemStats(&after)
		perDispatch = float64(after.Mallocs-before.Mallocs) /
			float64(k.Dispatched()-d0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if perDispatch >= 0.01 {
		t.Fatalf("scale broadcast round: %.4f allocs/dispatch, want 0", perDispatch)
	}
}

// TestStopReleasesParkedGoroutines is the regression test for the Stop leak:
// abandoned procs used to stay parked forever, pinning one goroutine (plus
// stack) per proc for the life of the process. Run on a stopped kernel must
// drain them all.
func TestStopReleasesParkedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for round := 0; round < 5; round++ {
		k := NewKernel(int64(round))
		c := NewCond(k, "parked")
		for i := 0; i < 20; i++ {
			k.Go("cond-parked", func(p *Proc) { c.Wait(p) })
		}
		k.Go("timer-parked", func(p *Proc) { p.Wait(1 << 40) })
		k.GoDaemon("daemon-parked", func(p *Proc) { c.Wait(p) })
		k.Go("stopper", func(p *Proc) {
			p.Wait(10)
			// Spawned-but-never-dispatched procs must be drained too.
			k.Go("never-ran", func(p *Proc) { c.Wait(p) })
			k.Stop()
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		if live := k.LiveProcs(); live != 0 {
			t.Fatalf("round %d: %d procs still live after stopped Run", round, live)
		}
	}
	if !goroutinesBackTo(before + 2) {
		t.Fatalf("goroutine leak: %d before, %d after stopped runs",
			before, runtime.NumGoroutine())
	}
}

// TestStopDuringEventCallback stops the kernel from an event callback rather
// than a proc, which exercises drain on procs parked at every lifecycle
// stage without any proc observing the stop.
func TestStopDuringEventCallback(t *testing.T) {
	k := NewKernel(7)
	c := NewCond(k, "never")
	k.Go("parked", func(p *Proc) { c.Wait(p) })
	k.Go("timed", func(p *Proc) { p.Wait(1 << 30) })
	k.After(5, func() { k.Stop() })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("procs still live after event-callback Stop")
	}
	if k.Now() != 5 {
		t.Fatalf("clock = %v, want 5", k.Now())
	}
}

// goroutinesBackTo reports whether the goroutine count returns to at most
// want, giving exiting goroutines a chance to finish.
func goroutinesBackTo(want int) bool {
	for i := 0; i < 1000; i++ {
		if runtime.NumGoroutine() <= want {
			return true
		}
		runtime.Gosched()
	}
	return false
}

// TestRunReleasesParkedGoroutines extends the Stop leak test to every other
// way Run returns. Daemon procs and a daemon Task parked at clean
// completion, the blocked procs of a deadlock and the survivors of a proc
// panic must all be drained, leaving no live procs and no goroutines.
func TestRunReleasesParkedGoroutines(t *testing.T) {
	cases := []struct {
		name    string
		build   func(k *Kernel)
		wantErr string
	}{
		{"completed", func(k *Kernel) {
			c := NewCond(k, "idle")
			for i := 0; i < 10; i++ {
				k.GoDaemon("daemon", func(p *Proc) { c.Wait(p) })
			}
			k.SpawnTaskDaemon("idle-task", func(t *Task) { c.Await(t) })
			k.Go("worker", func(p *Proc) { p.Wait(10) })
		}, ""},
		{"deadlock", func(k *Kernel) {
			c := NewCond(k, "never")
			for i := 0; i < 10; i++ {
				k.Go("stuck", func(p *Proc) { c.Wait(p) })
			}
			k.GoDaemon("daemon", func(p *Proc) { c.Wait(p) })
		}, "stuck[blocked on cond:never]"},
		{"panic", func(k *Kernel) {
			c := NewCond(k, "never")
			for i := 0; i < 10; i++ {
				k.Go("parked", func(p *Proc) { c.Wait(p) })
			}
			k.Go("timed", func(p *Proc) { p.Wait(1 << 40) })
			k.Go("boom", func(p *Proc) {
				p.Wait(1)
				k.Go("never-ran", func(p *Proc) { c.Wait(p) })
				panic("boom")
			})
		}, `proc "boom" panicked: boom`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			before := runtime.NumGoroutine()
			for round := 0; round < 3; round++ {
				k := NewKernel(int64(round))
				tc.build(k)
				err := k.Run()
				if tc.wantErr == "" && err != nil {
					t.Fatal(err)
				}
				if tc.wantErr != "" && (err == nil || !strings.Contains(err.Error(), tc.wantErr)) {
					t.Fatalf("Run error = %v, want it to contain %q", err, tc.wantErr)
				}
				if live := k.LiveProcs(); live != 0 {
					t.Fatalf("round %d: %d procs still live after Run", round, live)
				}
			}
			if !goroutinesBackTo(before) {
				t.Fatalf("goroutine leak: %d before, %d after three runs", before, runtime.NumGoroutine())
			}
		})
	}
}
