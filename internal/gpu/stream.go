package gpu

import (
	"fmt"
	"strconv"

	"mpipart/internal/sim"
)

// Stream is a CUDA-like in-order execution queue. A continuation Task
// services the FIFO: each kernel launch waits the launch latency, then
// executes wave by wave under the occupancy model. Host code enqueues with
// Launch (cheap, asynchronous) and joins with Synchronize, which charges the
// paper's 7.8 µs cudaStreamSynchronize cost.
//
// The serve loop is a state machine on the event heap (sim.Task), so a world
// with thousands of streams holds no stream goroutines and pays no
// coroutine switches per dispatch. Fused ops (NCCL collectives) are Task
// steps too: the stream runs them on its own Task after the launch latency.
// Host code that is itself a Task joins with SynchronizeTask.
type Stream struct {
	dev   *Device
	name  string
	track string // trace row name, cached (formatting it per span was hot)

	q         *sim.Queue[*streamOp]
	completed *sim.Counter
	enqueued  int
	task      *sim.Task

	// Serve-machine state: the op in flight and its wave cursor.
	cur     *streamOp
	winit   bool         // kernel: wave parameters initialized
	kstart  sim.Time     // kernel: time waves started (span start)
	wave    sim.Duration // kernel: per-wave compute time
	bpw     int          // kernel: blocks per wave
	wstart  int          // kernel: first block of the next wave
	fusedT0 sim.Time     // fused: span start, after the launch latency
	// blk is the BlockCtx every block body of this stream runs against,
	// reset per block, so a wave allocates nothing per block.
	blk BlockCtx

	// SynchronizeTask state: the caller's start time, the op count to
	// drain and its continuation.
	syncT0     sim.Time
	syncTarget int
	syncThen   sim.TaskFn

	// Continuation steps, bound once at construction so the steady state
	// never allocates method-value closures.
	fnServe      sim.TaskFn
	fnWave       sim.TaskFn
	fnWaveBody   sim.TaskFn
	fnFinish     sim.TaskFn
	fnFusedStart sim.TaskFn
	fnFusedDone  sim.TaskFn
	fnSyncIdle   sim.TaskFn
	fnSyncDone   sim.TaskFn
}

// FusedBody is a fused stream op (e.g. an NCCL collective kernel) in Task
// form: it runs as steps of the stream's own Task and must arrange for
// done to run, via Then, once the op is complete.
type FusedBody func(t *sim.Task, done sim.TaskFn)

type streamOp struct {
	spec *KernelSpec
	body FusedBody
	name string
	done *sim.Gate
}

// NewStream creates a stream on the device and starts its service Task. The
// diagnostic names are assembled once from a shared suffix instead of four
// fmt.Sprintf calls — spawning many streams stays cheap.
func (d *Device) NewStream(name string) *Stream {
	sfx := name + "@gpu" + strconv.Itoa(d.ID)
	sname := "stream:" + sfx
	s := &Stream{
		dev:       d,
		name:      name,
		track:     "gpu" + strconv.Itoa(d.ID) + "/" + name,
		q:         sim.NewQueue[*streamOp](d.K, sname),
		completed: sim.NewCounter(d.K, "stream-done:"+sfx),
	}
	s.fnServe = s.stepServe
	s.fnWave = s.stepWave
	s.fnWaveBody = s.stepWaveBody
	s.fnFinish = s.finishKernel
	s.fnFusedStart = s.stepFusedStart
	s.fnFusedDone = s.stepFusedDone
	s.fnSyncIdle = s.stepSyncIdle
	s.fnSyncDone = s.stepSyncDone
	s.task = d.K.SpawnTaskDaemon(sname, s.fnServe)
	d.streams = append(d.streams, s)
	return s
}

// Device returns the owning device.
func (s *Stream) Device() *Device { return s.dev }

// Launch enqueues a kernel and returns a Gate that opens when the kernel
// (all its waves) has executed. Launch itself is nearly free on the host
// (the driver call cost is folded into KernelLaunchCost, charged on the
// stream between dispatch and kernel start, as measured in Fig. 2).
func (s *Stream) Launch(spec KernelSpec) *sim.Gate {
	if spec.Grid <= 0 || spec.Block <= 0 {
		panic(fmt.Sprintf("gpu: invalid launch geometry %dx%d for %q", spec.Grid, spec.Block, spec.Name))
	}
	if spec.Block > 1024 {
		panic(fmt.Sprintf("gpu: block size %d exceeds 1024 for %q", spec.Block, spec.Name))
	}
	op := &streamOp{spec: &spec, done: sim.NewGate(s.dev.K, "kernel:"+spec.Name)}
	s.enqueued++
	s.q.Push(op)
	return op.done
}

// Enqueue places a fused operation on the stream: body runs in stream order
// on the stream's Task after the kernel-launch latency. NCCL-style
// collectives use this — a single persistent kernel that moves data and
// synchronizes with peer devices without host involvement.
func (s *Stream) Enqueue(name string, body FusedBody) *sim.Gate {
	op := &streamOp{body: body, name: name, done: sim.NewGate(s.dev.K, "fused:"+name)}
	s.enqueued++
	s.q.Push(op)
	return op.done
}

// stepServe is the serve machine's idle state: pop the next op or park on
// the queue until one is pushed (the same step re-runs on wake).
func (s *Stream) stepServe(t *sim.Task) {
	op, ok := s.q.PopAwait(t)
	if !ok {
		return
	}
	s.cur = op
	// Charge the launch latency, then run the fused body or the waves.
	if op.body != nil {
		t.Then(s.fnFusedStart)
	} else {
		s.winit = false
		s.wstart = 0
		t.Then(s.fnWave)
	}
	t.Sleep(s.dev.M.KernelLaunchCost)
}

// stepWave claims the next SM wave and arms the block bodies to run at the
// wave's completion time — the continuation form of
// p.WaitUntil(ClaimWave(wave)). With no waves left it closes out the kernel.
func (s *Stream) stepWave(t *sim.Task) {
	spec := s.cur.spec
	if !s.winit {
		// First wave: waves start now (post-launch-latency), as execute's
		// kstart recorded.
		s.winit = true
		s.kstart = t.Now()
		s.wave = spec.WaveTime
		if s.wave == 0 {
			s.wave = s.dev.M.VecAddWaveTime
		}
		s.bpw = s.dev.M.BlocksPerWave(spec.Block)
	}
	if s.wstart >= spec.Grid {
		// Close out as an inline continuation (same dispatch, no event):
		// finishKernel is once-per-kernel, not per-wave, and its tracer
		// formatting keeps it out of the designated hot-path set.
		t.Then(s.fnFinish)
		return
	}
	t.Then(s.fnWaveBody)
	t.SleepUntil(s.dev.ClaimWave(s.wave))
}

// stepWaveBody runs one wave's block bodies at end-of-wave and charges the
// maximum block-local extra cost, exactly as the goroutine loop did.
func (s *Stream) stepWaveBody(t *sim.Task) {
	spec := s.cur.spec
	start := s.wstart
	end := start + s.bpw
	if end > spec.Grid {
		end = spec.Grid
	}
	var maxExtra sim.Duration
	if spec.Body != nil {
		bc := &s.blk
		for blk := start; blk < end; blk++ {
			*bc = BlockCtx{Idx: blk, Dim: spec.Block, Grid: spec.Grid, stream: s}
			spec.Body(bc)
			if bc.extra > maxExtra {
				maxExtra = bc.extra
			}
		}
	}
	s.wstart = end
	t.Then(s.fnWave)
	if maxExtra > 0 {
		t.Sleep(maxExtra)
	}
}

// finishKernel emits the kernel span, opens the completion gate and returns
// the machine to the idle state.
func (s *Stream) finishKernel(t *sim.Task) {
	// Build the span args only when a tracer is attached: formatting the
	// geometry on every launch showed up in untraced benchmark runs.
	if tr := s.dev.K.Tracer(); tr != nil {
		spec := s.cur.spec
		tr.Span(s.track, spec.Name, s.kstart, t.Now(),
			sim.TraceKV{K: "grid", V: fmt.Sprint(spec.Grid)},
			sim.TraceKV{K: "block", V: fmt.Sprint(spec.Block)})
	}
	op := s.cur
	s.cur = nil
	op.done.Open()
	s.completed.Add(1)
	t.Then(s.fnServe)
}

// stepFusedStart records the fused op's span start after the launch
// latency and runs its body's steps.
func (s *Stream) stepFusedStart(t *sim.Task) {
	s.fusedT0 = t.Now()
	s.cur.body(t, s.fnFusedDone)
}

// stepFusedDone completes a fused op after its body's steps finished.
func (s *Stream) stepFusedDone(t *sim.Task) {
	op := s.cur
	s.cur = nil
	s.dev.K.Tracer().Span(s.track, op.name, s.fusedT0, t.Now())
	op.done.Open()
	s.completed.Add(1)
	t.Then(s.fnServe)
}

// Pending reports how many enqueued ops have not completed.
func (s *Stream) Pending() int { return s.enqueued - s.completed.Value() }

// WaitIdle parks p until every op enqueued so far has completed, without
// charging the synchronize cost (used internally, e.g. by collectives that
// poll completion as part of progression).
func (s *Stream) WaitIdle(p *sim.Proc) {
	s.completed.WaitAtLeast(p, s.enqueued)
}

// SynchronizeTask is Synchronize for a Task caller: it parks t until every
// op enqueued so far has completed, charges the synchronization cost and
// the trace span exactly as Synchronize does, then continues with then. One
// Task may synchronize a stream at a time.
func (s *Stream) SynchronizeTask(t *sim.Task, then sim.TaskFn) {
	s.syncT0, s.syncTarget, s.syncThen = t.Now(), s.enqueued, then
	t.Then(s.fnSyncIdle)
}

// stepSyncIdle waits for the stream to drain (re-run on every completion),
// then charges the synchronization cost.
func (s *Stream) stepSyncIdle(t *sim.Task) {
	if !s.completed.AwaitAtLeast(t, s.syncTarget) {
		return
	}
	t.Then(s.fnSyncDone)
	t.Sleep(s.dev.M.StreamSyncCost)
}

// stepSyncDone emits the synchronize span and resumes the caller.
func (s *Stream) stepSyncDone(t *sim.Task) {
	s.dev.K.Tracer().Span(s.track, "streamSynchronize", s.syncT0, t.Now())
	t.Then(s.syncThen)
}

// Synchronize models cudaStreamSynchronize: it parks p until the stream
// drains, then charges the fixed synchronization cost (7.8 µs on GH200,
// independent of kernel size — Fig. 2).
func (s *Stream) Synchronize(p *sim.Proc) {
	t0 := p.Now()
	s.WaitIdle(p)
	p.Wait(s.dev.M.StreamSyncCost)
	s.dev.K.Tracer().Span(s.track, "streamSynchronize", t0, p.Now())
}
