package sim

// Pipe models a serialized transmission resource with an alpha-beta cost
// model: a transfer of s bytes occupies the pipe for s/bandwidth and is
// delivered latency after its occupancy finishes. Occupancies are FIFO —
// a transfer enqueued while the pipe is busy starts when the previous one
// ends. Latency is pipelined (it does not occupy the pipe), which matches
// how link serialization vs propagation behave on real interconnects.
//
// Pipe is purely arithmetic over virtual time: callers receive the delivery
// time and schedule their own completion events, so it can be used both from
// Procs and from event callbacks.
type Pipe struct {
	k *Kernel
	// Name identifies the pipe in traces.
	Name string
	// Latency is the propagation delay added after serialization.
	Latency Duration
	// BytesPerSec is the serialization bandwidth. Zero means infinite.
	BytesPerSec float64
	// PerOpOverhead is charged per transfer on the wire (doorbell, header
	// processing); it occupies the pipe.
	PerOpOverhead Duration

	busyUntil Time
	// pend is the staged-delivery group still open for fusion: transfers
	// whose (serialized, delivered) times coincide with it append their
	// callbacks instead of scheduling fresh events (see TransferStaged).
	pend *stagedGroup
	// free is a freelist of retired groups; steady-state staged traffic
	// allocates nothing.
	free *stagedGroup
	// stepped forces the one-event-per-callback path (test hook for the
	// elision equivalence property).
	stepped bool
	// stats
	ops       int64
	bytes     int64
	busyTotal Duration
	elided    int64
}

// NewPipe constructs a pipe attached to kernel k.
func NewPipe(k *Kernel, name string, latency Duration, bytesPerSec float64) *Pipe {
	return &Pipe{k: k, Name: name, Latency: latency, BytesPerSec: bytesPerSec}
}

// serialize returns the occupancy duration of a transfer of size bytes.
func (pp *Pipe) serialize(size int64) Duration {
	d := pp.PerOpOverhead
	if pp.BytesPerSec > 0 && size > 0 {
		d += Nanoseconds(float64(size) / pp.BytesPerSec * 1e9)
	}
	return d
}

// Transfer enqueues a transfer of size bytes at the current virtual time and
// returns the virtual time at which it is delivered at the far end.
func (pp *Pipe) Transfer(size int64) (delivered Time) {
	start := pp.k.now
	if pp.busyUntil > start {
		start = pp.busyUntil
	}
	occ := pp.serialize(size)
	pp.busyUntil = start.Add(occ)
	pp.ops++
	pp.bytes += size
	pp.busyTotal += occ
	return pp.busyUntil.Add(pp.Latency)
}

// TransferThen enqueues a transfer and schedules fn at its delivery time.
func (pp *Pipe) TransferThen(size int64, fn func()) (delivered Time) {
	t := pp.Transfer(size)
	pp.k.At(t, fn)
	return t
}

// BusyUntil reports when the pipe's current backlog drains.
func (pp *Pipe) BusyUntil() Time { return pp.busyUntil }

// Stats reports cumulative transfer count, bytes, and busy time.
func (pp *Pipe) Stats() (ops, bytes int64, busy Duration) {
	return pp.ops, pp.bytes, pp.busyTotal
}

// Elided reports how many scheduler events this pipe absorbed by fusing
// staged callbacks into already-armed delivery groups.
func (pp *Pipe) Elided() int64 { return pp.elided }

// SetStepped forces every staged transfer onto the per-callback stepped
// path, disabling fusion. Test hook: the elision equivalence property runs
// the same scenario stepped and fused and requires identical observables.
func (pp *Pipe) SetStepped(v bool) {
	pp.stepped = v
	pp.pend = nil
}

// stagedGroup batches the callbacks of staged transfers that share one
// (serialized, delivered) pair, so the pipe schedules at most one event per
// firing time regardless of how many coincident transfers pile onto it.
// Within a group callbacks run in append order — the order the transfers
// were booked — so the pipe's FIFO is preserved; relative order against
// unrelated same-time callbacks is the arbitrary ordering class, which the
// schedule-perturbation gate proves observables do not depend on.
type stagedGroup struct {
	pp       *Pipe
	ser, del Time
	local    []func()
	remote   []func()
	// localFired/remoteFired close the group to further fusion: a transfer
	// arriving after a side ran must schedule fresh events.
	localFired  bool
	remoteFired bool
	// armed counts events scheduled for this group; fired counts those that
	// ran. The group returns to the freelist when they meet.
	armed int
	fired int
	next  *stagedGroup
	// Bound once at construction so arming a side costs no closure
	// allocation per transfer.
	runLocalFn  func()
	runRemoteFn func()
}

// newGroup takes a group from the freelist (or allocates the pipe's first
// few) and opens it at (ser, del).
func (pp *Pipe) newGroup(ser, del Time) *stagedGroup {
	g := pp.free
	if g == nil {
		g = &stagedGroup{pp: pp}
		g.runLocalFn = g.runLocal
		g.runRemoteFn = g.runRemote
	} else {
		pp.free = g.next
		g.next = nil
	}
	g.ser, g.del = ser, del
	g.localFired, g.remoteFired = false, false
	g.armed, g.fired = 0, 0
	return g
}

// runLocal fires the serialization-complete side of the group.
func (g *stagedGroup) runLocal() {
	g.localFired = true
	g.fired++
	pp := g.pp
	if pp.pend == g {
		pp.pend = nil
	}
	for i, fn := range g.local {
		g.local[i] = nil
		fn()
	}
	g.local = g.local[:0]
	if g.fired == g.armed {
		g.next = pp.free
		pp.free = g
	}
}

// runRemote fires the delivery side of the group.
func (g *stagedGroup) runRemote() {
	g.remoteFired = true
	g.fired++
	pp := g.pp
	if pp.pend == g {
		pp.pend = nil
	}
	for i, fn := range g.remote {
		g.remote[i] = nil
		fn()
	}
	g.remote = g.remote[:0]
	if g.fired == g.armed {
		g.next = pp.free
		pp.free = g
	}
}

// TransferStaged books a transfer and runs onLocal when its serialization
// finishes (UCX local put completion: source buffer reusable) and onRemote
// when it is delivered at the far end. Either callback may be nil.
//
// Unlike TransferThen, staged transfers with coincident firing times fuse:
// if the pipe's open group already covers this transfer's (serialized,
// delivered) pair, the callbacks append to it and no new events enter the
// heap — the common case is a zero-occupancy flag put riding immediately
// behind the data put it completes, collapsing a four-event chain to two.
// Any contention (non-coincident times, or the group already fired) falls
// back to the stepped path by opening a fresh group, which schedules events
// exactly as TransferThen would.
func (pp *Pipe) TransferStaged(size int64, onLocal, onRemote func()) (serialized, delivered Time) {
	del := pp.Transfer(size)
	ser := del - Time(pp.Latency)
	if pp.stepped {
		if onLocal != nil {
			pp.k.At(ser, onLocal)
		}
		if onRemote != nil {
			pp.k.At(del, onRemote)
		}
		return ser, del
	}
	g := pp.pend
	if g == nil || g.ser != ser || g.del != del || g.localFired || g.remoteFired {
		g = pp.newGroup(ser, del)
		pp.pend = g
	}
	var elided int64
	if onLocal != nil {
		if len(g.local) == 0 {
			pp.k.At(ser, g.runLocalFn)
			g.armed++
		} else {
			elided++
		}
		g.local = append(g.local, onLocal)
	}
	if onRemote != nil {
		if len(g.remote) == 0 {
			pp.k.At(del, g.runRemoteFn)
			g.armed++
		} else {
			elided++
		}
		g.remote = append(g.remote, onRemote)
	}
	if elided > 0 {
		pp.elided += elided
		pp.k.NoteElided(elided)
	}
	return ser, del
}
