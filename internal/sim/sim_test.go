package sim

import (
	"math/rand"
	"strings"
	"testing"
	"testing/quick"
)

func TestClockStartsAtZero(t *testing.T) {
	k := NewKernel(1)
	if k.Now() != 0 {
		t.Fatalf("new kernel clock = %v, want 0", k.Now())
	}
}

func TestSingleProcWaitAdvancesClock(t *testing.T) {
	k := NewKernel(1)
	var end Time
	k.Go("p", func(p *Proc) {
		p.Wait(500)
		p.Wait(Microseconds(1.5))
		end = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if end != 2000 {
		t.Fatalf("end time = %v, want 2000ns", end)
	}
	if k.Now() != 2000 {
		t.Fatalf("kernel time = %v, want 2000ns", k.Now())
	}
}

func TestNegativeWaitIsZero(t *testing.T) {
	k := NewKernel(1)
	k.Go("p", func(p *Proc) {
		p.Wait(-100)
		if p.Now() != 0 {
			t.Errorf("negative wait advanced clock to %v", p.Now())
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a0")
		p.Wait(10)
		order = append(order, "a10")
		p.Wait(20)
		order = append(order, "a30")
	})
	k.Go("b", func(p *Proc) {
		order = append(order, "b0")
		p.Wait(15)
		order = append(order, "b15")
		p.Wait(15)
		order = append(order, "b30")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a0", "b0", "a10", "b15", "a30", "b30"}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestSameTimeWakeupsAreFIFO(t *testing.T) {
	k := NewKernel(1)
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		k.Go("p", func(p *Proc) {
			p.Wait(100) // all wake at t=100
			order = append(order, i)
		})
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time wakeup order = %v, want ascending", order)
		}
	}
}

func TestEventCallbacksRunInTimeOrder(t *testing.T) {
	k := NewKernel(1)
	var order []Time
	k.At(300, func() { order = append(order, k.Now()) })
	k.At(100, func() { order = append(order, k.Now()) })
	k.At(200, func() { order = append(order, k.Now()) })
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(order) != 3 || order[0] != 100 || order[1] != 200 || order[2] != 300 {
		t.Fatalf("event order = %v", order)
	}
}

func TestAfterSchedulesRelative(t *testing.T) {
	k := NewKernel(1)
	var fired Time
	k.Go("p", func(p *Proc) {
		p.Wait(50)
		p.k.After(25, func() { fired = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 75 {
		t.Fatalf("After fired at %v, want 75", fired)
	}
}

func TestAtInThePastClampsToNow(t *testing.T) {
	k := NewKernel(1)
	var fired Time = -1
	k.Go("p", func(p *Proc) {
		p.Wait(100)
		k.At(10, func() { fired = k.Now() })
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if fired != 100 {
		t.Fatalf("past event fired at %v, want clamp to 100", fired)
	}
}

func TestSpawnFromRunningProc(t *testing.T) {
	k := NewKernel(1)
	var childEnd Time
	k.Go("parent", func(p *Proc) {
		p.Wait(10)
		k.Go("child", func(c *Proc) {
			c.Wait(5)
			childEnd = c.Now()
		})
		p.Wait(100)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if childEnd != 15 {
		t.Fatalf("child end = %v, want 15", childEnd)
	}
}

func TestCondSignalWakesFIFO(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "t")
	var woke []string
	for _, name := range []string{"w1", "w2", "w3"} {
		name := name
		k.Go(name, func(p *Proc) {
			c.Wait(p)
			woke = append(woke, name)
		})
	}
	k.Go("signaller", func(p *Proc) {
		p.Wait(10)
		c.Signal()
		p.Wait(10)
		c.Signal()
		c.Signal()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(woke) != 3 || woke[0] != "w1" || woke[1] != "w2" || woke[2] != "w3" {
		t.Fatalf("wake order = %v", woke)
	}
}

func TestCondBroadcastWakesAll(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "t")
	n := 0
	for i := 0; i < 5; i++ {
		k.Go("w", func(p *Proc) {
			c.Wait(p)
			n++
		})
	}
	k.Go("b", func(p *Proc) {
		p.Wait(1)
		if c.Waiters() != 5 {
			t.Errorf("waiters = %d, want 5", c.Waiters())
		}
		c.Broadcast()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("woke %d, want 5", n)
	}
}

func TestCondWaitForPredicate(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "flag")
	flag := 0
	var sawAt Time
	k.Go("waiter", func(p *Proc) {
		c.WaitFor(p, func() bool { return flag >= 3 })
		sawAt = p.Now()
	})
	k.Go("setter", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(100)
			flag++
			c.Broadcast()
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if sawAt != 300 {
		t.Fatalf("predicate satisfied at %v, want 300", sawAt)
	}
}

func TestDeadlockDetected(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "never")
	k.Go("stuck", func(p *Proc) { c.Wait(p) })
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error")
	}
}

// TestTaskDeadlockDetected pins the diagnostics for a deadlock involving only
// continuation Tasks: Run must fail, and describeBlocked must name the parked
// Task (with its lazily rendered id suffix), its state, and the Cond it is
// blocked on — the same quality of report a stuck Proc gets.
func TestTaskDeadlockDetected(t *testing.T) {
	k := NewKernel(1)
	c := NewCond(k, "never-signalled")
	k.SpawnTaskID("stuck-task", 7, func(tk *Task) { c.Await(tk) })
	k.SpawnTask("timed-task", func(tk *Task) {
		if tk.Now() < 50 {
			tk.Sleep(50) // runs once more at 50, then parks on the Cond
			return
		}
		c.Await(tk)
	})
	err := k.Run()
	if err == nil {
		t.Fatal("expected deadlock error for Task-only deadlock")
	}
	msg := err.Error()
	for _, want := range []string{
		"deadlock",
		"stuck-task7[blocked on cond:never-signalled]",
		"timed-task[blocked on cond:never-signalled]",
	} {
		if !strings.Contains(msg, want) {
			t.Fatalf("deadlock error %q missing %q", msg, want)
		}
	}
}

func TestGateOpenReleasesWaitersAndFutureCallers(t *testing.T) {
	k := NewKernel(1)
	g := NewGate(k, "rtr")
	var t1, t2 Time
	k.Go("early", func(p *Proc) {
		g.Wait(p)
		t1 = p.Now()
	})
	k.Go("opener", func(p *Proc) {
		p.Wait(100)
		g.Open()
		g.Open() // idempotent
	})
	k.Go("late", func(p *Proc) {
		p.Wait(200)
		g.Wait(p) // already open: returns immediately
		t2 = p.Now()
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if t1 != 100 || t2 != 200 {
		t.Fatalf("gate times = %v,%v want 100,200", t1, t2)
	}
	if !g.IsOpen() {
		t.Fatal("gate should be open")
	}
}

func TestCounterWaitAtLeast(t *testing.T) {
	k := NewKernel(1)
	c := NewCounter(k, "arrived")
	var doneAt Time
	k.Go("waiter", func(p *Proc) {
		c.WaitAtLeast(p, 4)
		doneAt = p.Now()
	})
	k.Go("adder", func(p *Proc) {
		for i := 0; i < 4; i++ {
			p.Wait(50)
			c.Add(1)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if doneAt != 200 {
		t.Fatalf("counter satisfied at %v, want 200", doneAt)
	}
	if c.Value() != 4 {
		t.Fatalf("counter value = %d, want 4", c.Value())
	}
}

func TestCounterSet(t *testing.T) {
	k := NewKernel(1)
	c := NewCounter(k, "x")
	k.Go("p", func(p *Proc) {
		c.Set(7)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Value() != 7 {
		t.Fatalf("value = %d, want 7", c.Value())
	}
}

func TestQueuePushPopOrdering(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[int](k, "t")
	var got []int
	k.Go("consumer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			got = append(got, q.Pop(p))
		}
	})
	k.Go("producer", func(p *Proc) {
		for i := 0; i < 3; i++ {
			p.Wait(10)
			q.Push(i)
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if len(got) != 3 || got[0] != 0 || got[1] != 1 || got[2] != 2 {
		t.Fatalf("got %v", got)
	}
}

func TestQueueTryPop(t *testing.T) {
	k := NewKernel(1)
	q := NewQueue[string](k, "t")
	if _, ok := q.TryPop(); ok {
		t.Fatal("TryPop on empty queue returned ok")
	}
	q.Push("x")
	q.Push("y")
	if q.Len() != 2 {
		t.Fatalf("len = %d, want 2", q.Len())
	}
	v, ok := q.TryPop()
	if !ok || v != "x" {
		t.Fatalf("TryPop = %v,%v", v, ok)
	}
}

func TestPipeSingleTransfer(t *testing.T) {
	k := NewKernel(1)
	// 1 GB/s, 100ns latency: 1000 bytes -> 1000ns serialize + 100ns latency.
	p := NewPipe(k, "link", 100, 1e9)
	var done Time
	k.Go("sender", func(pr *Proc) {
		done = p.Transfer(1000)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 1100 {
		t.Fatalf("delivery = %v, want 1100", done)
	}
}

func TestPipeSerializesBackToBack(t *testing.T) {
	k := NewKernel(1)
	p := NewPipe(k, "link", 100, 1e9)
	var d1, d2 Time
	k.Go("sender", func(pr *Proc) {
		d1 = p.Transfer(1000)
		d2 = p.Transfer(1000) // queues behind the first occupancy
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if d1 != 1100 {
		t.Fatalf("d1 = %v, want 1100", d1)
	}
	if d2 != 2100 { // starts at 1000 (pipe free), +1000 serialize +100 lat
		t.Fatalf("d2 = %v, want 2100", d2)
	}
}

func TestPipePerOpOverhead(t *testing.T) {
	k := NewKernel(1)
	p := NewPipe(k, "link", 0, 0)
	p.PerOpOverhead = 250
	var done Time
	k.Go("s", func(pr *Proc) {
		p.Transfer(0)
		done = p.Transfer(0)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if done != 500 {
		t.Fatalf("done = %v, want 500", done)
	}
}

func TestPipeTransferThenFiresCallback(t *testing.T) {
	// 100 bytes at 1 B/ns serialize by 100 and, 50 ns of latency later, are
	// delivered at 150. TransferThen fires at delivery; TransferStaged fires
	// onLocal at serialization end and onRemote at delivery, and either side
	// may be nil. never marks a side that must not fire.
	const never Time = -1
	cases := []struct {
		name             string
		book             func(pp *Pipe, local, remote func()) (ser, del Time)
		wantLoc, wantRem Time
	}{
		{"TransferThen", func(pp *Pipe, _, remote func()) (Time, Time) {
			return 100, pp.TransferThen(100, remote)
		}, never, 150},
		{"TransferStaged", func(pp *Pipe, local, remote func()) (Time, Time) {
			return pp.TransferStaged(100, local, remote)
		}, 100, 150},
		{"TransferStaged/nil-local", func(pp *Pipe, _, remote func()) (Time, Time) {
			return pp.TransferStaged(100, nil, remote)
		}, never, 150},
		{"TransferStaged/nil-remote", func(pp *Pipe, local, _ func()) (Time, Time) {
			return pp.TransferStaged(100, local, nil)
		}, 100, never},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			k := NewKernel(1)
			p := NewPipe(k, "link", 50, 1e9)
			local, remote := never, never
			var ser, del Time
			k.Go("s", func(pr *Proc) {
				ser, del = tc.book(p, func() { local = k.Now() }, func() { remote = k.Now() })
				pr.Wait(10000)
			})
			if err := k.Run(); err != nil {
				t.Fatal(err)
			}
			if ser != 100 || del != 150 {
				t.Fatalf("booked (serialized, delivered) = (%v, %v), want (100, 150)", ser, del)
			}
			if local != tc.wantLoc || remote != tc.wantRem {
				t.Fatalf("local fired at %v, remote at %v; want %v and %v (-1 = never)", local, remote, tc.wantLoc, tc.wantRem)
			}
		})
	}
}

func TestPipeStats(t *testing.T) {
	k := NewKernel(1)
	p := NewPipe(k, "link", 10, 1e9)
	k.Go("s", func(pr *Proc) {
		p.Transfer(100)
		p.Transfer(200)
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	ops, bytes, busy := p.Stats()
	if ops != 2 || bytes != 300 || busy != 300 {
		t.Fatalf("stats = %d ops, %d bytes, %v busy", ops, bytes, busy)
	}
}

func TestStopAbandonsSimulation(t *testing.T) {
	k := NewKernel(1)
	n := 0
	k.Go("loop", func(p *Proc) {
		for {
			p.Wait(10)
			n++
			if n == 5 {
				k.Stop()
				p.Wait(10) // never returns from scheduler perspective
			}
		}
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if n != 5 {
		t.Fatalf("iterations = %d, want 5", n)
	}
}

// Property: the clock never goes backwards regardless of the (positive or
// negative) wait durations a proc issues.
func TestClockMonotonicProperty(t *testing.T) {
	f := func(waits []int16) bool {
		k := NewKernel(1)
		last := Time(0)
		ok := true
		k.Go("p", func(p *Proc) {
			for _, w := range waits {
				p.Wait(Duration(w))
				if p.Now() < last {
					ok = false
				}
				last = p.Now()
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: pipe deliveries are FIFO (delivery times are non-decreasing in
// submission order) for any mix of transfer sizes.
func TestPipeFIFOProperty(t *testing.T) {
	f := func(sizes []uint16) bool {
		k := NewKernel(1)
		p := NewPipe(k, "link", 75, 2e9)
		ok := true
		k.Go("s", func(pr *Proc) {
			last := Time(-1)
			for _, s := range sizes {
				d := p.Transfer(int64(s))
				if d < last {
					ok = false
				}
				last = d
			}
		})
		if err := k.Run(); err != nil {
			return false
		}
		return ok
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: for any schedule of events, they execute in nondecreasing time
// order with ties broken by insertion order.
func TestEventOrderingProperty(t *testing.T) {
	f := func(times []uint16) bool {
		k := NewKernel(1)
		type rec struct {
			at  Time
			idx int
		}
		var got []rec
		for i, tm := range times {
			i, tm := i, tm
			k.At(Time(tm), func() { got = append(got, rec{k.Now(), i}) })
		}
		if err := k.Run(); err != nil {
			return false
		}
		for i := 1; i < len(got); i++ {
			if got[i].at < got[i-1].at {
				return false
			}
			if got[i].at == got[i-1].at && got[i].idx < got[i-1].idx {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDeterminismAcrossRuns(t *testing.T) {
	run := func() []Time {
		k := NewKernel(42)
		var trace []Time
		c := NewCond(k, "c")
		for i := 0; i < 4; i++ {
			k.Go("w", func(p *Proc) {
				c.Wait(p)
				trace = append(trace, p.Now())
			})
		}
		rng := rand.New(rand.NewSource(42))
		k.Go("driver", func(p *Proc) {
			for i := 0; i < 4; i++ {
				p.Wait(Duration(rng.Intn(100) + 1))
				c.Signal()
			}
		})
		if err := k.Run(); err != nil {
			t.Fatal(err)
		}
		return trace
	}
	a, b := run(), run()
	if len(a) != len(b) {
		t.Fatalf("trace lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("traces diverge at %d: %v vs %v", i, a, b)
		}
	}
}

func TestDurationHelpers(t *testing.T) {
	if Microseconds(7.8) != 7800 {
		t.Fatalf("Microseconds(7.8) = %v", Microseconds(7.8))
	}
	if Nanoseconds(260) != 260 {
		t.Fatalf("Nanoseconds(260) = %v", Nanoseconds(260))
	}
	if d := Duration(1500); d.Micros() != 1.5 {
		t.Fatalf("Micros = %v", d.Micros())
	}
	if tm := Time(2e9); tm.Seconds() != 2 {
		t.Fatalf("Seconds = %v", tm.Seconds())
	}
	if Time(1500).Micros() != 1.5 {
		t.Fatal("Time.Micros")
	}
	if Duration(3e9).Seconds() != 3 {
		t.Fatal("Duration.Seconds")
	}
	if Time(1500).String() == "" || Duration(1500).String() == "" {
		t.Fatal("String stubs")
	}
}

func TestYieldRunsBehindReadyPeers(t *testing.T) {
	k := NewKernel(1)
	var order []string
	k.Go("a", func(p *Proc) {
		order = append(order, "a1")
		p.Yield()
		order = append(order, "a2")
	})
	k.Go("b", func(p *Proc) {
		order = append(order, "b1")
	})
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	want := []string{"a1", "b1", "a2"}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

func TestLiveProcsAccounting(t *testing.T) {
	k := NewKernel(1)
	k.Go("p", func(p *Proc) { p.Wait(10) })
	if k.LiveProcs() != 1 {
		t.Fatalf("live = %d, want 1", k.LiveProcs())
	}
	if err := k.Run(); err != nil {
		t.Fatal(err)
	}
	if k.LiveProcs() != 0 {
		t.Fatalf("live after run = %d, want 0", k.LiveProcs())
	}
}
