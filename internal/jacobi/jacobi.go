// Package jacobi implements the paper's first application kernel
// (Section VI-D1): the NVIDIA multi-GPU Jacobi solver adapted to MPI
// Partitioned Communication. The 2-D Poisson problem is decomposed across
// GPUs (2×2 for four GPUs, 4×2 for eight, as in the paper); every iteration
// runs a 5-point stencil kernel and exchanges halos with up to four
// neighbours.
//
// Two variants are provided:
//
//   - Traditional: stencil kernel (which also packs boundary values) →
//     cudaStreamSynchronize → MPI_Sendrecv per neighbour (Listing 1).
//   - Partitioned: persistent partitioned channels per neighbour; boundary
//     blocks mark their halo partitions ready from inside the kernel
//     (device MPIX_Pready, progression-engine mechanism), overlapping halo
//     transfer with interior computation and skipping the stream sync.
//     Channels are duplicated per iteration parity so an epoch's arrivals
//     never land in a halo buffer the current kernel still reads.
package jacobi

import (
	"fmt"
	"math"

	"mpipart/internal/core"
	"mpipart/internal/gpu"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)

// FlopsPerPoint is the stencil's flop count (4 adds + 1 multiply).
const FlopsPerPoint = 5

// stencilOps scales the stencil kernel's per-wave time relative to the
// calibrated vector-add (more loads, more arithmetic per element).
const stencilOps = 2.5

// Config describes one Jacobi run.
type Config struct {
	// PX, PY is the GPU decomposition (PX columns × PY rows of tiles).
	PX, PY int
	// NX, NY is the per-GPU tile size.
	NX, NY int
	// Iters is the number of Jacobi sweeps.
	Iters int
}

// Decompose returns the paper's decomposition for a world size: 2×2 for
// four GPUs, 4×2 for eight; other sizes get a near-square factorization.
func Decompose(P int) (px, py int) {
	switch P {
	case 1:
		return 1, 1
	case 2:
		return 2, 1
	case 4:
		return 2, 2
	case 8:
		return 4, 2
	}
	px = 1
	for f := 1; f*f <= P; f++ {
		if P%f == 0 {
			px = P / f
		}
	}
	return px, P / px
}

// Validate checks the configuration against a world size.
func (c Config) Validate(P int) error {
	if c.PX*c.PY != P {
		return fmt.Errorf("jacobi: decomposition %dx%d does not cover %d ranks", c.PX, c.PY, P)
	}
	if c.NX <= 0 || c.NY <= 0 || c.Iters <= 0 {
		return fmt.Errorf("jacobi: invalid config %+v", c)
	}
	return nil
}

// Stats reports one rank's timing and its final tile, whose sum Checksum
// computes on demand: a caller that reads one rank's checksum sums one
// tile, not one per rank.
type Stats struct {
	Elapsed sim.Duration
	GFLOPs  float64 // virtual GFLOP/s across the whole world

	tile []float64 // the rank's final tile; nil in a timing-only world
}

// Checksum returns the sum of the rank's final tile (for verification),
// or NaN in a timing-only world, which computes no tile (ConeChecksum
// gives rank 0's value from the rows the heat front has reached).
func (s Stats) Checksum() float64 {
	if s.tile == nil {
		return math.NaN()
	}
	sum := 0.0
	for _, v := range s.tile {
		sum += v
	}
	return sum
}

// state holds one rank's tile and halo storage.
type state struct {
	r      *mpi.Rank
	cfg    Config
	px, py int // this rank's tile coordinates

	a, anew []float64 // tile interiors, ny*nx row-major

	// timingOnly mirrors the world's payload mode: no boundary, kernels
	// that only fire their Pready hooks, no tile to sum.
	timingOnly bool

	// Receive halos (what neighbours computed last iteration), duplicated
	// per iteration parity: iteration k's kernel reads set (k+1)%2 while
	// the epoch in flight fills set k%2, so arrivals never race reads.
	haloN, haloS [2][]float64 // nx
	haloW, haloE [2][]float64 // ny
	// cur* are the halo views the in-flight kernel reads.
	curN, curS, curW, curE []float64
	// Send packs (boundary values of anew, packed by the kernel).
	packN, packS []float64
	packW, packE []float64
}

func newState(r *mpi.Rank, cfg Config) *state {
	s := &state{
		r: r, cfg: cfg,
		px: r.ID % cfg.PX, py: r.ID / cfg.PX,
		a:     r.Dev.Alloc(cfg.NX * cfg.NY),
		anew:  r.Dev.Alloc(cfg.NX * cfg.NY),
		packN: r.Dev.Alloc(cfg.NX), packS: r.Dev.Alloc(cfg.NX),
		packW: r.Dev.Alloc(cfg.NY), packE: r.Dev.Alloc(cfg.NY),

		timingOnly: r.W.K.TimingOnly(),
	}
	for par := 0; par < 2; par++ {
		s.haloN[par] = r.Dev.Alloc(cfg.NX)
		s.haloS[par] = r.Dev.Alloc(cfg.NX)
		s.haloW[par] = r.Dev.Alloc(cfg.NY)
		s.haloE[par] = r.Dev.Alloc(cfg.NY)
	}
	if !s.timingOnly {
		s.initBoundary()
	}
	s.selectHalos(1) // iteration 0 reads the pre-initialized set 1
	return s
}

// selectHalos points the kernel-visible halo views at one parity's set.
func (s *state) selectHalos(par int) {
	s.curN, s.curS = s.haloN[par], s.haloS[par]
	s.curW, s.curE = s.haloW[par], s.haloE[par]
}

// neighbour returns the rank at tile offset (dx,dy), or -1 outside the
// domain.
func (s *state) neighbour(dx, dy int) int {
	nx, ny := s.px+dx, s.py+dy
	if nx < 0 || nx >= s.cfg.PX || ny < 0 || ny >= s.cfg.PY {
		return -1
	}
	return ny*s.cfg.PX + nx
}

// initBoundary sets the Dirichlet condition: the global top edge is held
// at 1. Halo buffers covering the physical boundary hold the boundary value
// permanently. The initial guess is zero because gpu.Device.Alloc returns
// zeroed buffers.
func (s *state) initBoundary() {
	if s.py == 0 { // tile touches the global top edge
		for par := 0; par < 2; par++ {
			for i := range s.haloN[par] {
				s.haloN[par][i] = 1
			}
		}
	}
}

// stencilSpec builds the sweep kernel: one block per tile row; each thread
// strides across the row's columns. The body also packs boundary values for
// the halo exchange, and (in the partitioned variant) signals readiness. A
// timing-only state's body only fires that signal.
func (s *state) stencilSpec(onBlockDone func(b *gpu.BlockCtx, row int)) gpu.KernelSpec {
	nx, ny := s.cfg.NX, s.cfg.NY
	block := 256
	if nx < block {
		block = nx
	}
	perThread := (nx + block - 1) / block
	spec := gpu.KernelSpec{
		Name:     "jacobi-sweep",
		Grid:     ny,
		Block:    block,
		WaveTime: s.r.W.Model.ScaledWaveTime(stencilOps * float64(perThread)),
	}
	if s.timingOnly {
		if onBlockDone != nil {
			spec.Body = func(b *gpu.BlockCtx) { onBlockDone(b, b.Idx) }
		}
		return spec
	}
	spec.Body = func(b *gpu.BlockCtx) {
		row := b.Idx
		base := row * nx
		// Resolve the north/south neighbours once per row instead of
		// switching inside at() four times per point; the sum order
		// (west + east + north + south) matches at()-based code exactly,
		// so results are bit-identical.
		cur := s.a[base : base+nx : base+nx]
		up := s.curN
		if row > 0 {
			up = s.a[base-nx : base : base]
		}
		down := s.curS
		if row < ny-1 {
			down = s.a[base+nx : base+2*nx]
		}
		out := s.anew[base : base+nx : base+nx]
		stencilRow(out, cur, up, down, s.curW[row], s.curE[row])
		// Pack boundary values for the halo exchange.
		s.packW[row] = out[0]
		s.packE[row] = out[nx-1]
		if row == 0 {
			copy(s.packN, s.anew[:nx])
		}
		if row == ny-1 {
			copy(s.packS, s.anew[base:base+nx])
		}
		if onBlockDone != nil {
			onBlockDone(b, row)
		}
	}
	return spec
}

// stencilRow computes one tile row: out[x] = 0.25 * (W + E + N + S) of
// point x, where W and E come from cur (or the halo values west and east
// at the row's ends) and N and S from up and down. The sum is evaluated
// left to right in exactly that order, so results are bit-identical to a
// point-by-point loop. Operands are re-sliced to len(out), which lets the
// compiler drop the bounds checks on out, up and down (one check per point
// is left, on cur, where the point loop had three), and the loop is
// unrolled by 2, carrying the left and centre loads into the next pair.
func stencilRow(out, cur, up, down []float64, west, east float64) {
	n := len(out)
	cur, up, down = cur[:n], up[:n], down[:n]
	left, mid := west, cur[0]
	x := 0
	for ; x < n-2; x += 2 {
		c1, c2 := cur[x+1], cur[x+2]
		out[x] = 0.25 * (left + c1 + up[x] + down[x])
		out[x+1] = 0.25 * (mid + c2 + up[x+1] + down[x+1])
		left, mid = c1, c2
	}
	if x+1 < n {
		c1 := cur[x+1]
		out[x] = 0.25 * (left + c1 + up[x] + down[x])
		left = mid
		x++
	}
	out[x] = 0.25 * (left + east + up[x] + down[x])
}

func (s *state) swap() { s.a, s.anew = s.anew, s.a }

func (s *state) stats(elapsed sim.Duration) Stats {
	points := float64(s.cfg.NX*s.cfg.NY) * float64(s.cfg.PX*s.cfg.PY)
	flops := points * FlopsPerPoint * float64(s.cfg.Iters)
	st := Stats{Elapsed: elapsed, GFLOPs: flops / elapsed.Seconds() / 1e9}
	if !s.timingOnly {
		st.tile = s.a
	}
	return st
}

// sideTag gives each halo direction (and iteration parity) a distinct tag.
func sideTag(side, parity int) int { return 4096 + side*2 + parity }

const (
	sideN = 0
	sideS = 1
	sideW = 2
	sideE = 3
)

// Traditional runs the Listing-1 variant: kernel → stream sync → blocking
// halo exchange per neighbour. Call SPMD from every rank's host proc.
func Traditional(r *mpi.Rank, cfg Config) Stats {
	if err := cfg.Validate(r.Size()); err != nil {
		panic(err)
	}
	p := r.Proc()
	s := newState(r, cfg)
	s.selectHalos(0)
	if s.py == 0 && !s.timingOnly {
		// Set 0 carries the boundary too for the single-set variant.
		copy(s.haloN[0], s.haloN[1])
	}
	r.Barrier(p)
	t0 := p.Now()
	for it := 0; it < cfg.Iters; it++ {
		s.r.Stream.Launch(s.stencilSpec(nil))
		s.r.Stream.Synchronize(p)
		s.exchangeTraditional(p)
		s.swap()
	}
	r.Barrier(p)
	return s.stats(sim.Duration(p.Now() - t0))
}

// exchangeTraditional posts all halo sends/recvs and waits for them.
func (s *state) exchangeTraditional(p *sim.Proc) {
	type xfer struct {
		nbr        int
		send, recv []float64
		stag, rtag int
	}
	var xs []xfer
	if n := s.neighbour(0, -1); n >= 0 {
		xs = append(xs, xfer{n, s.packN, s.haloN[0], sideTag(sideN, 0), sideTag(sideS, 0)})
	}
	if n := s.neighbour(0, 1); n >= 0 {
		xs = append(xs, xfer{n, s.packS, s.haloS[0], sideTag(sideS, 0), sideTag(sideN, 0)})
	}
	if n := s.neighbour(-1, 0); n >= 0 {
		xs = append(xs, xfer{n, s.packW, s.haloW[0], sideTag(sideW, 0), sideTag(sideE, 0)})
	}
	if n := s.neighbour(1, 0); n >= 0 {
		xs = append(xs, xfer{n, s.packE, s.haloE[0], sideTag(sideE, 0), sideTag(sideW, 0)})
	}
	ops := make([]*mpi.Op, 0, 2*len(xs))
	for _, x := range xs {
		ops = append(ops, s.r.Irecv(p, x.nbr, x.rtag, x.recv))
	}
	for _, x := range xs {
		ops = append(ops, s.r.Isend(p, x.nbr, x.stag, x.send))
	}
	for _, o := range ops {
		o.Wait(p)
	}
}

// haloChannels is one parity's set of partitioned channels and device
// requests.
type haloChannels struct {
	sends []*core.SendRequest
	recvs []*core.RecvRequest
	preqs []*core.Prequest
	// preadyRow maps a kernel row to the channel indices it must signal
	// (row 0 → north, row ny-1 → south, every row → west/east aggregated).
	north, south, west, east int // indices into sends, -1 if absent
}

// Partitioned runs the partitioned variant with device-initiated halo
// signalling. Call SPMD from every rank's host proc.
func Partitioned(r *mpi.Rank, cfg Config) Stats {
	if err := cfg.Validate(r.Size()); err != nil {
		panic(err)
	}
	p := r.Proc()
	s := newState(r, cfg)

	// Two channel sets, used on alternating iterations, so arrivals for
	// iteration k (consumed at k+1) never race the kernel of iteration k
	// reading the halos filled at k-1.
	var sets [2]*haloChannels
	for parity := 0; parity < 2; parity++ {
		sets[parity] = s.initChannels(p, parity)
	}
	// First epoch setup for both parities (rkey exchange happens once).
	for parity := 0; parity < 2; parity++ {
		ch := sets[parity]
		for _, rr := range ch.recvs {
			rr.Start(p)
		}
		for _, sr := range ch.sends {
			sr.Start(p)
		}
		for _, rr := range ch.recvs {
			rr.PbufPrepare(p)
		}
		for _, sr := range ch.sends {
			sr.PbufPrepare(p)
		}
		for i, sr := range ch.sends {
			preq, err := core.PrequestCreate(p, sr, core.PrequestOpts{
				Mech:               core.ProgressionEngine,
				BlocksPerTransport: s.blocksFor(i, ch),
			})
			if err != nil {
				panic(err)
			}
			ch.preqs[i] = preq
		}
	}

	r.Barrier(p)
	t0 := p.Now()
	for it := 0; it < cfg.Iters; it++ {
		ch := sets[it%2]
		if it >= 2 {
			// Re-arm this parity's channels for a fresh epoch.
			for _, rr := range ch.recvs {
				rr.Start(p)
			}
			for _, sr := range ch.sends {
				sr.Start(p)
			}
			for _, rr := range ch.recvs {
				rr.PbufPrepare(p)
			}
			for _, sr := range ch.sends {
				sr.PbufPrepare(p)
			}
		}
		s.selectHalos((it + 1) % 2)
		s.r.Stream.Launch(s.stencilSpec(func(b *gpu.BlockCtx, row int) {
			ny := s.cfg.NY
			if ch.north >= 0 && row == 0 {
				ch.preqs[ch.north].PreadyBlock(b, 0)
			}
			if ch.south >= 0 && row == ny-1 {
				ch.preqs[ch.south].PreadyBlock(b, 0)
			}
			if ch.west >= 0 {
				ch.preqs[ch.west].PreadyBlockAggregated(b, 0)
			}
			if ch.east >= 0 {
				ch.preqs[ch.east].PreadyBlockAggregated(b, 0)
			}
		}))
		// No cudaStreamSynchronize: wait for partitioned completion, which
		// implies both kernel signalling and data arrival.
		for _, sr := range ch.sends {
			sr.Wait(p)
		}
		for _, rr := range ch.recvs {
			rr.Wait(p)
		}
		// The kernel's waves have all executed once every send signalled;
		// drain the stream so the next launch has a clean FIFO.
		s.r.Stream.WaitIdle(p)
		s.swap()
	}
	r.Barrier(p)
	return s.stats(sim.Duration(p.Now() - t0))
}

// initChannels builds one parity's partitioned halo channels. Each
// direction is one channel with a single transport partition carrying the
// packed boundary.
func (s *state) initChannels(p *sim.Proc, parity int) *haloChannels {
	ch := &haloChannels{north: -1, south: -1, west: -1, east: -1}
	add := func(nbr int, side int, send, recv []float64, rside int) int {
		sr := core.PsendInitParts(p, s.r, nbr, sideTag(side, parity), [][]float64{send})
		rr := core.PrecvInitParts(p, s.r, nbr, sideTag(rside, parity), [][]float64{recv})
		ch.sends = append(ch.sends, sr)
		ch.recvs = append(ch.recvs, rr)
		ch.preqs = append(ch.preqs, nil)
		return len(ch.sends) - 1
	}
	if n := s.neighbour(0, -1); n >= 0 {
		ch.north = add(n, sideN, s.packN, s.haloN[parity], sideS)
	}
	if n := s.neighbour(0, 1); n >= 0 {
		ch.south = add(n, sideS, s.packS, s.haloS[parity], sideN)
	}
	if n := s.neighbour(-1, 0); n >= 0 {
		ch.west = add(n, sideW, s.packW, s.haloW[parity], sideE)
	}
	if n := s.neighbour(1, 0); n >= 0 {
		ch.east = add(n, sideE, s.packE, s.haloE[parity], sideW)
	}
	return ch
}

// blocksFor returns how many kernel blocks contribute to channel i's single
// transport partition: 1 for row halos, NY (every row block) for column
// halos.
func (s *state) blocksFor(i int, ch *haloChannels) int {
	if i == ch.west || i == ch.east {
		return s.cfg.NY
	}
	return 1
}

// Reference computes the same global problem sequentially (single tile,
// same Dirichlet condition) and returns the per-rank tile checksums a
// distributed run must reproduce.
func Reference(cfg Config) []float64 {
	gx, gy := cfg.PX*cfg.NX, cfg.PY*cfg.NY
	a := make([]float64, gx*gy)
	anew := make([]float64, gx*gy)
	at := func(g []float64, y, x int) float64 {
		if y < 0 {
			return 1 // global top edge
		}
		if y >= gy || x < 0 || x >= gx {
			return 0
		}
		return g[y*gx+x]
	}
	for it := 0; it < cfg.Iters; it++ {
		for y := 0; y < gy; y++ {
			for x := 0; x < gx; x++ {
				anew[y*gx+x] = 0.25 * (at(a, y, x-1) + at(a, y, x+1) + at(a, y-1, x) + at(a, y+1, x))
			}
		}
		a, anew = anew, a
	}
	sums := make([]float64, cfg.PX*cfg.PY)
	for y := 0; y < gy; y++ {
		for x := 0; x < gx; x++ {
			tile := (y/cfg.NY)*cfg.PX + x/cfg.NX
			sums[tile] += a[y*gx+x]
		}
	}
	return sums
}

// ConeChecksum returns rank 0's tile checksum, Reference(cfg)[0], from a
// corner crop of the grid. The interior starts at zero and only the top
// edge is hot, so after t sweeps only rows above t can be nonzero: rows at
// or below Iters stay +0, and adding +0 to the tile's non-negative sum
// changes no bit. A point depends only on points within Iters of it, so
// columns past NX+Iters cannot reach the tile. The crop, min(PX·NX,
// NX+Iters) × min(PY·NY, Iters), runs on stencilRow between a ones row
// (the top edge) and a zeros row (global row cy, +0 or the bottom edge),
// and the tile's rows in it are summed in Reference's row-major order: the
// result is bit-identical.
func ConeChecksum(cfg Config) float64 {
	cx := min(cfg.PX*cfg.NX, cfg.NX+cfg.Iters)
	cy := min(cfg.PY*cfg.NY, cfg.Iters)
	a := make([]float64, cx*cy)
	anew := make([]float64, cx*cy)
	ones := make([]float64, cx)
	for i := range ones {
		ones[i] = 1
	}
	zeros := make([]float64, cx)
	for it := 0; it < cfg.Iters; it++ {
		for y := 0; y < cy; y++ {
			base := y * cx
			up := ones
			if y > 0 {
				up = a[base-cx : base]
			}
			down := zeros
			if y < cy-1 {
				down = a[base+cx : base+2*cx]
			}
			stencilRow(anew[base:base+cx], a[base:base+cx], up, down, 0, 0)
		}
		a, anew = anew, a
	}
	sum := 0.0
	for y := 0; y < min(cfg.NY, cy); y++ {
		for _, v := range a[y*cx : y*cx+cfg.NX] {
			sum += v
		}
	}
	return sum
}
