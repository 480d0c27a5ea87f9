package sim

import (
	"fmt"
	"math/rand"
	"runtime"
	"testing"
)

// runShardScenario builds a shard-confined world — per-shard actor chains
// that compute locally and exchange timestamped messages through Post at or
// beyond the lookahead horizon — and returns the per-shard observable logs.
// The world's structure depends only on (seed, n), so any two executions
// (parallel, serial, repeated) must produce identical logs.
func runShardScenario(t *testing.T, seed int64, n int, serial bool) [][]string {
	t.Helper()
	const lookahead = Duration(3600)
	s := NewShards(n, seed, lookahead)
	logs := make([][]string, n)
	counts := make([]int, n)
	rng := rand.New(rand.NewSource(seed))

	// Each shard: a producer proc that does local timed work and posts
	// tokens to the next shard, a consumer cond the posts signal, and a
	// local task chain. All state is owned by its shard; only Post crosses.
	for i := 0; i < n; i++ {
		i := i
		k := s.Shard(i)
		hops := 3 + rng.Intn(4)
		step := Duration(500 + rng.Int63n(2000))
		k.GoID("prod", i, func(p *Proc) {
			for h := 0; h < hops; h++ {
				p.Wait(step)
				dst := (i + 1) % n
				at := p.Now() + Time(lookahead) + Time(h*10)
				msg := fmt.Sprintf("tok %d.%d", i, h)
				s.Post(i, dst, at, func() {
					logs[dst] = append(logs[dst], fmt.Sprintf("%s arrives at %d", msg, int64(s.Shard(dst).Now())))
					counts[dst]++
				})
				logs[i] = append(logs[i], fmt.Sprintf("prod%d sent hop %d at %d", i, h, int64(p.Now())))
			}
		})
		k.GoID("local", i, func(p *Proc) {
			for j := 0; j < 5; j++ {
				p.Wait(Duration(900 + 37*i))
				logs[i] = append(logs[i], fmt.Sprintf("local%d tick %d at %d", i, j, int64(p.Now())))
			}
		})
	}
	var err error
	if serial {
		err = s.RunSerial()
	} else {
		err = s.Run()
	}
	if err != nil {
		t.Fatalf("seed %d n %d serial=%v: %v", seed, n, serial, err)
	}
	for i := 0; i < n; i++ {
		if counts[i] == 0 {
			t.Fatalf("shard %d received no cross-shard events; scenario degenerate", i)
		}
	}
	return logs
}

// TestShardsParallelMatchesSerial is the LBTS correctness property: the
// concurrent engine must be byte-identical to the serial reference, run to
// run and seed to seed. Run under -race this also exercises the mailbox
// and window-barrier synchronization.
func TestShardsParallelMatchesSerial(t *testing.T) {
	for seed := int64(0); seed < 6; seed++ {
		for _, n := range []int{2, 3, 7} {
			want := runShardScenario(t, seed, n, true)
			got := runShardScenario(t, seed, n, false)
			again := runShardScenario(t, seed, n, false)
			for i := range want {
				if fmt.Sprint(got[i]) != fmt.Sprint(want[i]) {
					t.Fatalf("seed %d n %d shard %d: parallel diverged from serial\n got: %v\nwant: %v", seed, n, i, got[i], want[i])
				}
				if fmt.Sprint(again[i]) != fmt.Sprint(want[i]) {
					t.Fatalf("seed %d n %d shard %d: parallel run not repeatable", seed, n, i)
				}
			}
		}
	}
}

// TestShardsLookaheadEnforced pins the conservative contract: posting
// inside the lookahead horizon is a model bug and must panic.
func TestShardsLookaheadEnforced(t *testing.T) {
	s := NewShards(2, 1, 1000)
	s.Shard(0).Go("bad", func(p *Proc) {
		p.Wait(100)
		defer func() {
			if recover() == nil {
				t.Error("Post inside the lookahead horizon did not panic")
			}
		}()
		s.Post(0, 1, p.Now()+999, func() {})
	})
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestShardsDeadlockReported pins termination: a non-daemon proc parked on
// a cond no post will ever signal is a cross-shard deadlock, not a hang.
func TestShardsDeadlockReported(t *testing.T) {
	s := NewShards(2, 1, 1000)
	k := s.Shard(1)
	c := NewCond(k, "never")
	k.Go("stuck", func(p *Proc) { c.Wait(p) })
	s.Shard(0).Go("fine", func(p *Proc) { p.Wait(50) })
	err := s.Run()
	if err == nil {
		t.Fatal("expected a deadlock error")
	}
}

// TestShardsDispatchAggregation checks the race-safe counter contract: the
// process-wide dispatch and elision totals must grow by exactly the sum of
// the shard kernels' counters after a concurrent run.
func TestShardsDispatchAggregation(t *testing.T) {
	before := TotalDispatched()
	s := NewShards(4, 9, 3600)
	for i := 0; i < 4; i++ {
		i := i
		k := s.Shard(i)
		pp := NewPipe(k, "local", 10, 1e9)
		k.GoID("w", i, func(p *Proc) {
			for j := 0; j < 20; j++ {
				p.Wait(100)
				pp.TransferStaged(0, nil, func() {})
				pp.TransferStaged(0, nil, func() {})
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got, want := TotalDispatched()-before, s.Dispatched(); got != want {
		t.Errorf("process-wide dispatched grew by %d, shard sum is %d", got, want)
	}
	var elided int64
	for i := 0; i < 4; i++ {
		elided += s.Shard(i).Elided()
	}
	if elided == 0 {
		t.Error("coincident staged transfers elided nothing")
	}
}

// TestSharedTracerAcrossShards pins the race-safety contract of satellite
// instrumentation: one Tracer attached to every shard kernel must survive
// concurrent recording (-race) and lose no events.
func TestSharedTracerAcrossShards(t *testing.T) {
	s := NewShards(4, 3, 2000)
	tr := NewTracer()
	const perShard = 50
	for i := 0; i < 4; i++ {
		i := i
		k := s.Shard(i)
		k.SetTracer(tr)
		k.GoID("w", i, func(p *Proc) {
			for j := 0; j < perShard; j++ {
				p.Wait(100)
				k.Tracer().Instant("shard", "tick", p.Now())
			}
		})
	}
	if err := s.Run(); err != nil {
		t.Fatal(err)
	}
	if got := tr.Len(); got != 4*perShard {
		t.Errorf("tracer recorded %d events, want %d", got, 4*perShard)
	}
}

// TestShardsRunReleasesParkedGoroutines is the Shards counterpart of
// TestRunReleasesParkedGoroutines: daemon procs parked in every shard when
// the windows run dry must be drained by both Run and RunSerial.
func TestShardsRunReleasesParkedGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for _, serial := range []bool{false, true} {
		s := NewShards(3, 1, 100)
		for i := 0; i < s.N(); i++ {
			k := s.Shard(i)
			c := NewCond(k, "idle")
			k.GoDaemon("daemon", func(p *Proc) { c.Wait(p) })
			k.Go("worker", func(p *Proc) { p.Wait(50) })
		}
		run := s.Run
		if serial {
			run = s.RunSerial
		}
		if err := run(); err != nil {
			t.Fatal(err)
		}
		for i := 0; i < s.N(); i++ {
			if live := s.Shard(i).LiveProcs(); live != 0 {
				t.Fatalf("serial=%v: shard %d has %d procs live after Run", serial, i, live)
			}
		}
	}
	if !goroutinesBackTo(before) {
		t.Fatalf("goroutine leak: %d before, %d after sharded runs", before, runtime.NumGoroutine())
	}
}
