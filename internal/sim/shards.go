package sim

import (
	"fmt"
	"sort"
	"strings"
	"sync"
)

// Shards runs N independent kernels — one virtual-time shard each, on its
// own goroutine — under a conservative bounded-lag protocol. The classic
// Chandy-Misra-Bryant precondition applies: every cross-shard interaction
// must go through Post with a delivery time at least `lookahead` past the
// sender's clock (the fabric's minimum cross-node latency provides it).
// Each round the coordinator computes the lower bound on timestamps LBTS =
// min over shards of their next local event, opens the window
// [LBTS, LBTS+lookahead), and lets every shard execute it concurrently:
// no event posted during the window can land inside it, so shards never
// see the past change. Cross-shard batches drain between windows in
// deterministic (at, src, srcSeq) order, so a parallel run is
// byte-identical to RunSerial — and to any other interleaving.
//
// Shards complements the in-kernel merged scheduler (SetDomainCount):
// merged domains share one goroutine and one clock and exist for
// byte-identity with the serial kernel on shared-memory worlds; Shards
// kernels share nothing but the mailboxes, so the worlds they run must be
// shard-confined (actors touch only their own shard's state or Post).
type Shards struct {
	ks        []*Kernel
	lookahead Duration
	mail      []shardMailbox
	// sseq[i] stamps shard i's posts; only shard i's goroutine touches it.
	sseq []uint64
}

// shardMailbox buffers events posted to one destination shard between
// windows.
type shardMailbox struct {
	mu sync.Mutex
	xs []xevent
}

// xevent is a cross-shard event in flight: the deterministic drain key is
// (at, src, sseq), independent of mailbox arrival interleaving.
type xevent struct {
	at   Time
	src  int
	sseq uint64
	fn   func()
}

// NewShards creates n shard kernels with a conservative lookahead. Each
// shard derives its RNG from the base seed and its index, so a sharded
// world is deterministic per (seed, n).
func NewShards(n int, seed int64, lookahead Duration) *Shards {
	if n < 1 {
		panic("sim: NewShards needs at least one shard")
	}
	if lookahead <= 0 {
		panic("sim: conservative lookahead must be positive")
	}
	s := &Shards{
		ks:        make([]*Kernel, n),
		lookahead: lookahead,
		mail:      make([]shardMailbox, n),
		sseq:      make([]uint64, n),
	}
	for i := range s.ks {
		s.ks[i] = NewKernel(seed + int64(i)*0x9E3779B9)
	}
	return s
}

// N reports the shard count.
func (s *Shards) N() int { return len(s.ks) }

// Lookahead reports the conservative lookahead.
func (s *Shards) Lookahead() Duration { return s.lookahead }

// Shard returns shard i's kernel, for world construction and local
// scheduling.
func (s *Shards) Shard(i int) *Kernel { return s.ks[i] }

// Post schedules fn on shard dst at absolute time at, from code executing
// on shard src. The conservative contract is enforced: at must be at least
// the sender's clock plus the lookahead, which guarantees the event cannot
// land inside any window the destination is concurrently executing.
func (s *Shards) Post(src, dst int, at Time, fn func()) {
	k := s.ks[src]
	if at < k.now+Time(s.lookahead) {
		panic(fmt.Sprintf("sim: shard %d posted an event at %v, inside its lookahead horizon (now %v + %v)",
			src, at, k.now, s.lookahead))
	}
	s.sseq[src]++
	x := xevent{at: at, src: src, sseq: s.sseq[src], fn: fn}
	mb := &s.mail[dst]
	mb.mu.Lock()
	mb.xs = append(mb.xs, x)
	mb.mu.Unlock()
}

// drainInto moves dst's mailbox into its event heap in deterministic order.
// Runs only between windows, when no shard goroutine is executing.
func (s *Shards) drainInto(dst int) {
	mb := &s.mail[dst]
	mb.mu.Lock()
	xs := mb.xs
	mb.xs = mb.xs[:0]
	mb.mu.Unlock()
	if len(xs) == 0 {
		return
	}
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].at != xs[j].at {
			return xs[i].at < xs[j].at
		}
		if xs[i].src != xs[j].src {
			return xs[i].src < xs[j].src
		}
		return xs[i].sseq < xs[j].sseq
	})
	k := s.ks[dst]
	for i := range xs {
		x := &xs[i]
		if x.at < k.now {
			panic(fmt.Sprintf("sim: lookahead violation: shard %d received an event at %v with clock at %v",
				dst, x.at, k.now))
		}
		k.events.push(event{at: x.at, seq: k.nextSeq(), pri: k.eventPri(), phase: phaseCallback, fn: x.fn})
		x.fn = nil
	}
}

// nextTime reports the earliest time at which shard kernel k can do work:
// its clock if an actor is ready, else its earliest pending event.
func (k *Kernel) nextTime() (Time, bool) {
	if !k.noReady() {
		return k.now, true
	}
	t := maxTime
	found := false
	if len(k.events) > 0 {
		t, found = k.events[0].at, true
	}
	for _, dx := range k.extra {
		if len(dx.events) > 0 && dx.events[0].at < t {
			t, found = dx.events[0].at, true
		}
	}
	return t, found
}

// runWindow executes this shard's work with event times strictly below end:
// the bounded-lag slice of the single-domain scheduler loop. windowEnd also
// clamps the lone-timer fast path (WaitUntil/Task.SleepUntil) so a shard
// cannot jump its clock past the window into territory where an unseen
// cross-shard event may land.
func (k *Kernel) runWindow(end Time) {
	k.windowEnd = end
	for !k.stopped && k.panicked == nil {
		if !k.runq.empty() {
			a := k.runq.pop()
			if a.p != nil {
				k.resume(a.p)
			} else {
				k.runTask(a.t)
			}
			continue
		}
		if len(k.events) > 0 && k.events[0].at < end {
			e := k.events.pop()
			if e.at > k.now {
				k.now = e.at
			}
			k.dispatch(e)
			for k.runq.empty() && !k.stopped && k.panicked == nil &&
				len(k.events) > 0 && k.events[0].at == k.now {
				k.dispatch(k.events.pop())
			}
			continue
		}
		break
	}
	// Restored in place, not via defer: runWindow is per-window scheduler
	// work, and a deferred closure would allocate on every call. A panic
	// inside an event callback escapes with windowEnd still set, but it
	// also unwinds the whole Shards run, so no scheduler observes it.
	k.windowEnd = maxTime
}

// Run executes all shards to completion, one goroutine per shard per
// window, with an LBTS barrier between windows.
func (s *Shards) Run() error { return s.run(true) }

// RunSerial executes the identical protocol with shards run sequentially
// within each window — the reference the parallel engine must match
// byte for byte.
func (s *Shards) RunSerial() error { return s.run(false) }

func (s *Shards) run(concurrent bool) error {
	for i, k := range s.ks {
		if k.running {
			return fmt.Errorf("sim: shard %d is already running", i)
		}
		k.running = true
	}
	defer func() {
		for _, k := range s.ks {
			k.running = false
			k.drain()
			k.flushCounters()
		}
	}()
	var wg sync.WaitGroup
	for {
		for d := range s.ks {
			s.drainInto(d)
		}
		lbts := maxTime
		work := false
		for _, k := range s.ks {
			if t, ok := k.nextTime(); ok {
				work = true
				if t < lbts {
					lbts = t
				}
			}
		}
		if !work {
			break
		}
		end := lbts + Time(s.lookahead)
		// The serial branch comes first so that, in source order, it
		// precedes the go statement: the racelock analyzer roots "the
		// spawner's continuation" at the first go statement, and the serial
		// runWindow calls — which never coexist with worker goroutines —
		// must not be attributed to that concurrent context.
		if !concurrent {
			for _, k := range s.ks {
				k.runWindow(end)
			}
		} else {
			wg.Add(len(s.ks))
			for _, k := range s.ks {
				go func(k *Kernel) {
					defer wg.Done()
					k.runWindow(end)
				}(k)
			}
			wg.Wait()
		}
		for i, k := range s.ks {
			if k.panicked != nil {
				return fmt.Errorf("sim: shard %d: %w", i, k.panicked)
			}
			if k.stopped {
				return fmt.Errorf("sim: shard %d called Stop; Shards does not support partial execution", i)
			}
		}
	}
	var blocked []string
	for i, k := range s.ks {
		ok := true
		for _, p := range k.live {
			if !p.daemon {
				ok = false
			}
		}
		for _, t := range k.liveTasks {
			if !t.daemon {
				ok = false
			}
		}
		if !ok {
			blocked = append(blocked, fmt.Sprintf("shard %d: %s", i, k.describeBlocked()))
		}
	}
	if len(blocked) > 0 {
		return fmt.Errorf("sim: cross-shard deadlock: %s", strings.Join(blocked, "; "))
	}
	return nil
}

// Dispatched sums scheduler dispatches across all shards.
func (s *Shards) Dispatched() int64 {
	var n int64
	for _, k := range s.ks {
		n += k.dispatched
	}
	return n
}

// Now reports the maximum shard clock (the frontier the simulation has
// reached).
func (s *Shards) Now() Time {
	var t Time
	for _, k := range s.ks {
		if k.now > t {
			t = k.now
		}
	}
	return t
}
