package core

import (
	"mpipart/internal/cluster"
	"mpipart/internal/sim"
)

// This file implements the model-driven transport-partition selection the
// paper points to as follow-on work (its reference [10] dynamically
// optimizes partition aggregation from a performance model): given the
// kernel geometry and the link, choose how many transport partitions to
// aggregate the blocks into.
//
// The trade-off the model captures:
//
//   - More transport partitions start transferring earlier (the first
//     partition becomes ready after grid/parts waves instead of after the
//     whole kernel) — overlap.
//   - Every transport partition costs a host put (detection + issue) and a
//     chained completion signal — per-partition overhead.

// AggregationChoice is one evaluated candidate.
type AggregationChoice struct {
	Parts int
	// Estimate is the modeled kernel-launch→Wait-complete time.
	Estimate sim.Duration
}

// EstimateEpochTime models a progression-engine epoch for a vector-add
// style kernel of the given geometry whose data is split into `parts`
// transport partitions over a link with the given latency and bandwidth.
func EstimateEpochTime(m *cluster.Model, grid, block int, bytes int64, linkLatency sim.Duration, linkBytesPerSec float64, parts int) sim.Duration { //nolint:revive // linkLatency kept for API stability
	if parts < 1 {
		parts = 1
	}
	if parts > grid {
		parts = grid
	}
	bpw := m.BlocksPerWave(block)
	perPart := bytes / int64(parts)
	wire := sim.Nanoseconds(float64(perPart) / linkBytesPerSec * 1e9)
	// Fixed per-partition detection path (flag store + visibility + poll).
	detect := m.HostFlagWriteGap + m.HostFlagWriteLatency + m.ProgressPollInterval
	// Per-partition host issue work: the progression engine serializes the
	// data puts and their chained completion signals.
	issueWork := m.PutDataIssueCost + m.ProgressItemCost + m.PutIssueCost

	// Partition i is ready when the wave containing its last block
	// completes; its put is issued after the engine finishes earlier
	// partitions; its transfer occupies the (FIFO) link after the previous
	// partition's. The sender's epoch ends at the last completion signal's
	// local completion — when the link has serialized everything (puts
	// complete locally; propagation latency is the receiver's problem).
	var engineFree, linkFree, done sim.Duration
	for i := 0; i < parts; i++ {
		lastBlock := (i+1)*grid/parts - 1
		waveEnd := sim.Duration((lastBlock/bpw)+1) * m.VecAddWaveTime
		ready := waveEnd + detect
		issue := ready
		if engineFree > issue {
			issue = engineFree
		}
		engineFree = issue + issueWork
		start := engineFree
		if linkFree > start {
			start = linkFree
		}
		linkFree = start + wire
		done = linkFree
	}
	_ = linkLatency
	return m.KernelLaunchCost + done
}

// ChooseTransportPartitions evaluates power-of-two candidates and returns
// the count with the lowest modeled epoch time, with the candidates for
// inspection.
func ChooseTransportPartitions(m *cluster.Model, grid, block int, bytes int64, linkLatency sim.Duration, linkBytesPerSec float64) (best int, choices []AggregationChoice) {
	best = 1
	var bestT sim.Duration = 1 << 62
	for parts := 1; parts <= grid && parts <= 64; parts *= 2 {
		est := EstimateEpochTime(m, grid, block, bytes, linkLatency, linkBytesPerSec, parts)
		choices = append(choices, AggregationChoice{Parts: parts, Estimate: est})
		if est < bestT {
			best, bestT = parts, est
		}
	}
	return best, choices
}

// AutoPrequestOpts returns PrequestOpts with a model-chosen aggregation for
// a progression-engine channel of the given geometry: the GPU always
// signals per block (the simple programming model the paper advocates) and
// MPI aggregates into the chosen number of transport partitions.
func AutoPrequestOpts(m *cluster.Model, grid, block int, bytes int64, intraNode bool) (PrequestOpts, int) {
	lat, bw := m.IBLatency, m.IBBytesPerSec
	if intraNode {
		lat, bw = m.NVLinkLatency, m.NVLinkBytesPerSec
	}
	parts, _ := ChooseTransportPartitions(m, grid, block, bytes, lat, bw)
	blocksPer := grid / parts
	if blocksPer < 1 {
		blocksPer = 1
	}
	return PrequestOpts{Mech: ProgressionEngine, BlocksPerTransport: blocksPer}, parts
}
