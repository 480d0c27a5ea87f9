package fabric

import (
	"sort"

	"mpipart/internal/sim"
)

// LinkStat is one pipe's cumulative usage.
type LinkStat struct {
	Name  string
	Ops   int64
	Bytes int64
	Busy  sim.Duration
}

// Stats returns the usage of every pipe created so far, sorted by name for
// deterministic output. The pipe tables are lazily-filled slices, so nil
// slots (routes never taken) are skipped.
func (f *Fabric) Stats() []LinkStat {
	var out []LinkStat
	add := func(p *sim.Pipe) {
		if p == nil {
			return
		}
		ops, bytes, busy := p.Stats()
		out = append(out, LinkStat{Name: p.Name, Ops: ops, Bytes: bytes, Busy: busy})
	}
	for _, p := range f.nvlink {
		add(p)
	}
	for _, p := range f.nicOut {
		add(p)
	}
	for _, p := range f.hostDev {
		add(p)
	}
	for _, p := range f.devHost {
		add(p)
	}
	for _, p := range f.flagPipe {
		add(p)
	}
	for _, p := range f.loop {
		add(p)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}
