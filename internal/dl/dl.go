// Package dl implements the paper's data-parallel deep-learning proxy
// (Section VI-D2): a CUDA-style Binary Cross-Entropy gradient kernel whose
// gradients are synchronized across GPUs every step with an allreduce —
// the dominant communication pattern of data-parallel training.
//
// Three variants mirror Figs. 10/11:
//
//   - MPIAllreduce: gradient kernel → cudaStreamSynchronize →
//     MPI_Allreduce (host-staged) → SGD update kernel.
//   - PartitionedAllreduce: a persistent MPIX_Pallreduce whose user
//     partitions are marked ready from inside the gradient kernel; the
//     per-step MPI_Start and MPIX_Pbuf_prepare costs are inside the timed
//     region, as in the paper's measurement.
//   - NCCLAllreduce: gradient kernel → ncclAllReduce on the stream → SGD
//     update kernel → one stream synchronize.
package dl

import (
	"fmt"
	"math"

	"mpipart/internal/coll"
	"mpipart/internal/gpu"
	"mpipart/internal/mpi"
	"mpipart/internal/nccl"
	"mpipart/internal/sim"
)

// bceOps scales the BCE gradient kernel's per-wave cost relative to the
// calibrated vector add (sigmoid = exp + divide).
const bceOps = 4.0

// LearningRate is the SGD step size.
const LearningRate = 0.05

// Config describes one training run.
type Config struct {
	// Params is the model size — one gradient element per parameter, 8 B
	// each, matching the paper's "each CUDA thread works on 8 bytes".
	Params int
	// Steps is the number of training iterations.
	Steps int
	// UserParts is the user partition count of the partitioned allreduce.
	UserParts int
	// BlockSize is the kernel block size (defaults to 1024).
	BlockSize int
}

func (c Config) withDefaults() Config {
	if c.BlockSize == 0 {
		c.BlockSize = 1024
	}
	if c.UserParts == 0 {
		c.UserParts = 4
	}
	return c
}

// Validate checks the configuration.
func (c Config) Validate() error {
	c = c.withDefaults()
	if c.Params <= 0 || c.Steps <= 0 || c.UserParts <= 0 {
		return fmt.Errorf("dl: invalid config %+v", c)
	}
	if c.Params%c.BlockSize != 0 {
		return fmt.Errorf("dl: params %d not a multiple of block size %d", c.Params, c.BlockSize)
	}
	return nil
}

// Stats reports one rank's timing and final model checksum.
type Stats struct {
	Elapsed   sim.Duration
	StepTime  sim.Duration // Elapsed / Steps
	WeightSum float64      // checksum of the final weights; NaN when timing-only
}

// model holds one rank's training state.
type model struct {
	r    *mpi.Rank
	cfg  Config
	w    []float64 // parameters (identical on every rank)
	grad []float64 // per-step gradients (the allreduce buffer)
	x, y []float64 // this rank's data shard
	// timingOnly mirrors the world's payload mode: no dataset, no weights,
	// kernels that only fire their hooks.
	timingOnly bool
}

// feature and label are the deterministic per-rank data shard (a fixed
// pseudo-dataset keeps all variants and the sequential reference on
// identical inputs).
func feature(rank, i int) float64 {
	return math.Sin(float64(rank*7919+i) * 0.1) // in [-1, 1]
}

func label(rank, i int) float64 {
	if (rank+i)%3 == 0 {
		return 1
	}
	return 0
}

func newModel(r *mpi.Rank, cfg Config) *model {
	m := &model{
		r: r, cfg: cfg,
		w:          r.Dev.Alloc(cfg.Params),
		grad:       r.Dev.Alloc(cfg.Params),
		timingOnly: r.W.K.TimingOnly(),
	}
	if m.timingOnly {
		return m
	}
	m.x = make([]float64, cfg.Params)
	m.y = make([]float64, cfg.Params)
	for i := 0; i < cfg.Params; i++ {
		m.x[i] = feature(r.ID, i)
		m.y[i] = label(r.ID, i)
		m.w[i] = 0.1
	}
	return m
}

func sigmoid(z float64) float64 { return 1 / (1 + math.Exp(-z)) }

// gradientSpec builds the BCE gradient kernel. onBlockDone hooks the
// partitioned variant's device-side Pready; a timing-only model's kernel
// runs only that hook.
func (m *model) gradientSpec(onBlockDone func(b *gpu.BlockCtx)) gpu.KernelSpec {
	spec := gpu.KernelSpec{
		Name:     "bce-grad",
		Grid:     m.cfg.Params / m.cfg.BlockSize,
		Block:    m.cfg.BlockSize,
		WaveTime: m.r.W.Model.ScaledWaveTime(bceOps),
	}
	if m.timingOnly {
		spec.Body = onBlockDone
		return spec
	}
	spec.Body = func(b *gpu.BlockCtx) {
		// The block's threads cover one contiguous range (Params is a
		// multiple of BlockSize); iterating equal-length subslices lets the
		// compiler drop the per-element bounds checks that dominated this
		// kernel in profiles. Same expressions, same rounding.
		lo := b.ThreadBase()
		hi := lo + b.Dim
		w, x, y, g := m.w[lo:hi], m.x[lo:hi], m.y[lo:hi], m.grad[lo:hi]
		for i, wi := range w {
			pred := sigmoid(wi * x[i])
			g[i] = (pred - y[i]) * x[i]
		}
		if onBlockDone != nil {
			onBlockDone(b)
		}
	}
	return spec
}

// updateSpec builds the SGD update kernel: w -= lr * grad / P (the
// allreduce sums, the update averages).
func (m *model) updateSpec() gpu.KernelSpec {
	spec := gpu.KernelSpec{
		Name:     "sgd-update",
		Grid:     m.cfg.Params / m.cfg.BlockSize,
		Block:    m.cfg.BlockSize,
		WaveTime: m.r.W.Model.ScaledWaveTime(1.5),
	}
	if m.timingOnly {
		return spec
	}
	invP := 1.0 / float64(m.r.Size())
	spec.Body = func(b *gpu.BlockCtx) {
		lo := b.ThreadBase()
		w, g := m.w[lo:lo+b.Dim], m.grad[lo:lo+b.Dim]
		for i := range w {
			w[i] -= LearningRate * g[i] * invP
		}
	}
	return spec
}

func (m *model) stats(elapsed sim.Duration) Stats {
	sum := math.NaN() // a timing-only model has no weights to sum
	if !m.timingOnly {
		sum = 0
		for _, v := range m.w {
			sum += v
		}
	}
	return Stats{
		Elapsed:   elapsed,
		StepTime:  elapsed / sim.Duration(m.cfg.Steps),
		WeightSum: sum,
	}
}

// MPIAllreduce runs the traditional variant (Listing 1 applied to
// training): kernel, synchronize, host-staged MPI_Allreduce, update.
func MPIAllreduce(r *mpi.Rank, cfg Config) Stats {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := r.Proc()
	m := newModel(r, cfg)
	r.Barrier(p)
	t0 := p.Now()
	for s := 0; s < cfg.Steps; s++ {
		r.Stream.Launch(m.gradientSpec(nil))
		r.Stream.Synchronize(p)
		r.Allreduce(p, m.grad, mpi.OpSum)
		r.Stream.Launch(m.updateSpec())
		r.Stream.Synchronize(p)
	}
	r.Barrier(p)
	return m.stats(sim.Duration(p.Now() - t0))
}

// PartitionedAllreduce runs the paper's partitioned variant: the gradient
// kernel marks user partitions ready (block-aggregated device MPIX_Pready)
// and the partitioned allreduce progresses while later blocks still
// compute. Start and Pbuf_prepare are inside the timed loop, as the paper
// measures.
func PartitionedAllreduce(r *mpi.Rank, cfg Config) Stats {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	if cfg.Steps < 2 {
		panic("dl: the partitioned variant needs Steps >= 2 (first step is persistent-channel warmup)")
	}
	if (cfg.Params/cfg.BlockSize)%cfg.UserParts != 0 {
		// An uneven block→partition mapping would let an aggregation
		// counter reach its threshold before every contributing block has
		// written its gradients.
		panic(fmt.Sprintf("dl: grid %d not divisible by %d user partitions", cfg.Params/cfg.BlockSize, cfg.UserParts))
	}
	p := r.Proc()
	m := newModel(r, cfg)

	req := coll.PallreduceInit(p, r, m.grad, cfg.UserParts, mpi.OpSum)
	// First epoch outside the loop performs the one-time rkey exchange and
	// device-handle creation (persistent-channel warmup, as in the
	// paper's micro-benchmarks; Table I separates these one-time costs).
	req.Start(p)
	req.PbufPrepare(p)
	blocksPerUP := (cfg.Params / cfg.BlockSize) / cfg.UserParts
	if blocksPerUP < 1 {
		blocksPerUP = 1
	}
	dev := req.DeviceHandle(p, blocksPerUP)
	upOf := func(blockIdx int) int {
		up := blockIdx / blocksPerUP
		if up >= cfg.UserParts {
			up = cfg.UserParts - 1
		}
		return up
	}
	r.Stream.Launch(m.gradientSpec(func(b *gpu.BlockCtx) {
		dev.PreadyBlockAggregated(b, upOf(b.Idx))
	}))
	req.Wait(p)
	r.Stream.Launch(m.updateSpec())
	r.Stream.Synchronize(p)

	r.Barrier(p)
	t0 := p.Now()
	for s := 1; s < cfg.Steps; s++ {
		req.Start(p)
		req.PbufPrepare(p)
		r.Stream.Launch(m.gradientSpec(func(b *gpu.BlockCtx) {
			dev.PreadyBlockAggregated(b, upOf(b.Idx))
		}))
		req.Wait(p)
		r.Stream.Launch(m.updateSpec())
		r.Stream.Synchronize(p)
	}
	r.Barrier(p)
	elapsed := sim.Duration(p.Now() - t0)
	st := m.stats(elapsed)
	st.StepTime = elapsed / sim.Duration(cfg.Steps-1)
	return st
}

// NCCLAllreduce runs the NCCL baseline: stream-ordered fused collective,
// one synchronize per step.
func NCCLAllreduce(r *mpi.Rank, comm *nccl.Comm, cfg Config) Stats {
	cfg = cfg.withDefaults()
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	p := r.Proc()
	m := newModel(r, cfg)
	r.Barrier(p)
	t0 := p.Now()
	for s := 0; s < cfg.Steps; s++ {
		r.Stream.Launch(m.gradientSpec(nil))
		comm.AllReduce(r, r.Stream, m.grad)
		r.Stream.Launch(m.updateSpec())
		r.Stream.Synchronize(p)
	}
	r.Barrier(p)
	return m.stats(sim.Duration(p.Now() - t0))
}

// Reference trains the same model sequentially over all ranks' shards and
// returns the final weights (within floating-point reduction-order
// tolerance of the distributed runs).
func Reference(cfg Config, P int) []float64 {
	cfg = cfg.withDefaults()
	w := make([]float64, cfg.Params)
	for i := range w {
		w[i] = 0.1
	}
	for s := 0; s < cfg.Steps; s++ {
		for i := 0; i < cfg.Params; i++ {
			g := 0.0
			for rk := 0; rk < P; rk++ {
				x := feature(rk, i)
				g += (sigmoid(w[i]*x) - label(rk, i)) * x
			}
			w[i] -= LearningRate * g / float64(P)
		}
	}
	return w
}
