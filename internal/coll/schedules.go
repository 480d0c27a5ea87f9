package coll

// Additional collective schedules on the generic (I, R, ⊕, O, A) machinery.
// The paper's motivation for a generic schedule is that the MPI Forum
// proposals contain at least 21 partitioned collectives, far too many for
// bespoke implementations; these builders demonstrate the claim: reduce,
// allgather and scan compile to the same step structure Algorithm 2
// progresses.

// BinomialReduceSchedule builds a binomial-tree reduction toward root:
// at step s, every rank whose rotated id has bit 2^s set forwards its
// accumulated partition to id-2^s and is done; the receiver reduces. The
// reduction is in place (MPI_IN_PLACE semantics): non-root ranks' buffers
// hold partial accumulations afterwards.
func BinomialReduceSchedule(rank, P, root int) *Schedule {
	if P < 2 {
		panic("coll: reduce needs P >= 2")
	}
	vrank := (rank - root + P) % P
	s := &Schedule{
		Rank:     rank,
		P:        P,
		Chunks:   1,
		SendUses: map[int]int{},
		RecvUses: map[int]int{},
	}
	for bit := 1; bit < P; bit <<= 1 {
		var st Step
		if vrank&bit != 0 {
			// Forward the accumulated value to the parent, then idle.
			peer := (vrank - bit + root) % P
			st.Out = []EdgeUse{{Nbr: peer, Use: 0, Chunk: 0}}
			st.LocalData = true
			s.SendUses[peer] = 1
			s.Steps = append(s.Steps, st)
			break
		}
		if vrank+bit < P {
			peer := (vrank + bit + root) % P
			st.In = []EdgeUse{{Nbr: peer, Use: 0, Chunk: 0}}
			st.Reduce = true
			s.RecvUses[peer] = 1
		}
		s.Steps = append(s.Steps, st)
	}
	return s
}

// RingAllgatherSchedule builds the ring allgather: the buffer holds P
// chunks; rank r contributes chunk r and forwards what it received on each
// of the P-1 steps. All steps are NOPs with direct writes into the buffer,
// so the collective runs in place.
func RingAllgatherSchedule(rank, P int) *Schedule {
	if P < 2 {
		panic("coll: allgather needs P >= 2")
	}
	steps := P - 1
	prev := (rank - 1 + P) % P
	next := (rank + 1) % P
	s := &Schedule{
		Rank:     rank,
		P:        P,
		Chunks:   P,
		SendUses: map[int]int{next: steps},
		RecvUses: map[int]int{prev: steps},
	}
	for i := 0; i < steps; i++ {
		s.Steps = append(s.Steps, Step{
			Out:       []EdgeUse{{Nbr: next, Use: i, Chunk: (rank + 2*P - i) % P}},
			In:        []EdgeUse{{Nbr: prev, Use: i, Chunk: (rank + 2*P - i - 1) % P}},
			LocalData: i == 0, // the first send is the rank's own chunk
		})
	}
	return s
}

// LinearScanSchedule builds an inclusive prefix scan along the rank chain:
// rank r receives the prefix of ranks 0..r-1 from r-1 at step r-1 (reduced
// into its buffer), then forwards its accumulated value to r+1 at step r.
// Every rank's schedule is padded to P steps so the chain's step indices
// align.
func LinearScanSchedule(rank, P int) *Schedule {
	if P < 2 {
		panic("coll: scan needs P >= 2")
	}
	s := &Schedule{
		Rank:     rank,
		P:        P,
		Chunks:   1,
		SendUses: map[int]int{},
		RecvUses: map[int]int{},
	}
	for i := 0; i < P; i++ {
		var st Step
		if i == rank-1 {
			st.In = []EdgeUse{{Nbr: rank - 1, Use: 0, Chunk: 0}}
			st.Reduce = true
			s.RecvUses[rank-1] = 1
		}
		if i == rank && rank+1 < P {
			st.Out = []EdgeUse{{Nbr: rank + 1, Use: 0, Chunk: 0}}
			st.LocalData = true
			s.SendUses[rank+1] = 1
		}
		s.Steps = append(s.Steps, st)
	}
	return s
}
