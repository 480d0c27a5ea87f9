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
	// stats
	ops       int64
	bytes     int64
	busyTotal Duration
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

// Stats reports cumulative transfer count, bytes, and busy time.
func (pp *Pipe) Stats() (ops, bytes int64, busy Duration) {
	return pp.ops, pp.bytes, pp.busyTotal
}

// TransferStaged books a transfer and runs onLocal when its serialization
// finishes (UCX local put completion: source buffer reusable) and onRemote
// when it is delivered at the far end. Either callback may be nil. Each
// side is one plain event, exactly as TransferThen books its delivery.
func (pp *Pipe) TransferStaged(size int64, onLocal, onRemote func()) (serialized, delivered Time) {
	del := pp.Transfer(size)
	ser := del - Time(pp.Latency)
	if onLocal != nil {
		pp.k.At(ser, onLocal)
	}
	if onRemote != nil {
		pp.k.At(del, onRemote)
	}
	return ser, del
}
