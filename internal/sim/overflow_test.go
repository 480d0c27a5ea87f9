package sim

import (
	"fmt"
	"math"
	"strings"
	"testing"
)

const overflowMsg = "virtual time overflow"

// wantOverflowPanic runs fn and requires it to panic with a virtual time
// overflow.
func wantOverflowPanic(t *testing.T, name string, fn func()) {
	t.Helper()
	defer func() {
		t.Helper()
		if r := recover(); !strings.Contains(fmt.Sprint(r), overflowMsg) {
			t.Errorf("%s: recovered %v, want a %q panic", name, r, overflowMsg)
		}
	}()
	fn()
}

// wantOverflowError runs k and requires Run to return the overflow as an
// error, not hang or finish.
func wantOverflowError(t *testing.T, name string, k *Kernel) {
	t.Helper()
	err := k.Run()
	if err == nil || !strings.Contains(err.Error(), overflowMsg) {
		t.Errorf("%s: Run = %v, want a %q error", name, err, overflowMsg)
	}
}

// TestTimeAddOverflow pins Time.Add: exact in range, a panic on either edge.
func TestTimeAddOverflow(t *testing.T) {
	if got := Time(5).Add(-3); got != 2 {
		t.Fatalf("Time(5).Add(-3) = %d", got)
	}
	if got := Time(math.MaxInt64 - 1).Add(1); got != math.MaxInt64 {
		t.Fatalf("Add up to MaxInt64 = %d", got)
	}
	wantOverflowPanic(t, "Add past MaxInt64", func() { Time(math.MaxInt64).Add(1) })
	wantOverflowPanic(t, "Add past MinInt64", func() { Time(math.MinInt64).Add(-1) })
}

// TestNanosecondsOverflow: a float count that is not a duration panics
// instead of converting to an arbitrary one.
func TestNanosecondsOverflow(t *testing.T) {
	if got := Nanoseconds(1e18); got != 1e18 {
		t.Fatalf("Nanoseconds(1e18) = %d", got)
	}
	for _, ns := range []float64{math.Inf(1), math.Inf(-1), math.NaN(), 1 << 63, 1e300} {
		wantOverflowPanic(t, "Nanoseconds", func() { Nanoseconds(ns) })
	}
	wantOverflowPanic(t, "Microseconds", func() { Microseconds(1e16) })
}

// TestWaitOverflowIsAnError: a Proc.Wait past the end of virtual time
// surfaces from Run as a diagnosed error. Before the guard the sum wrapped
// negative and the wait returned at once, so a polling loop spun forever
// at a fixed clock.
func TestWaitOverflowIsAnError(t *testing.T) {
	k := NewKernel(1)
	k.Go("poller", func(p *Proc) {
		for {
			p.Wait(1 << 62)
		}
	})
	wantOverflowError(t, "Proc.Wait", k)
}

// TestSleepOverflowIsAnError is TestWaitOverflowIsAnError for a Task.
func TestSleepOverflowIsAnError(t *testing.T) {
	k := NewKernel(1)
	var poll TaskFn
	poll = func(tk *Task) {
		tk.Sleep(1 << 62)
		tk.Then(poll)
	}
	k.SpawnTask("poller", poll)
	wantOverflowError(t, "Task.Sleep", k)
}

// TestAfterOverflowIsAnError: a callback armed past the end of virtual time
// is an error, not a callback clamped to run now.
func TestAfterOverflowIsAnError(t *testing.T) {
	k := NewKernel(1)
	k.Go("arm", func(p *Proc) {
		p.Wait(1 << 62)
		k.After(1<<62, func() { t.Error("wrapped callback ran") })
	})
	wantOverflowError(t, "Kernel.After", k)
}

// TestPipeOverflowIsAnError covers both Pipe sites: a serialization time
// that is not a duration (a bandwidth near zero), and a delivery time past
// the end of virtual time. Before the guard the first became a negative
// occupancy, so a slower link delivered sooner.
func TestPipeOverflowIsAnError(t *testing.T) {
	k := NewKernel(1)
	slow := NewPipe(k, "slow", 0, 1e-300)
	k.Go("send", func(p *Proc) { slow.Transfer(8) })
	wantOverflowError(t, "Pipe.serialize", k)

	k = NewKernel(1)
	far := NewPipe(k, "far", math.MaxInt64, 0)
	k.Go("send", func(p *Proc) {
		p.Wait(1)
		far.Transfer(8)
	})
	wantOverflowError(t, "Pipe.Transfer", k)
}
