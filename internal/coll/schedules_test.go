package coll

import (
	"math"
	"testing"
	"testing/quick"

	"mpipart/internal/cluster"
	"mpipart/internal/mpi"
)

// runCollective executes one collective SPMD on the topology and returns
// every rank's final buffer.
func runCollective(t *testing.T, topo cluster.Topology, n, up int,
	build func(r *mpi.Rank) (*Request, []float64),
	ready func(r *mpi.Rank, req *Request)) [][]float64 {
	t.Helper()
	w := mpi.NewWorld(topo, cluster.DefaultModel(), 1)
	results := make([][]float64, w.Size())
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		req, out := build(r)
		req.Start(p)
		req.PbufPrepare(p)
		ready(r, req)
		req.Wait(p)
		results[r.ID] = append([]float64(nil), out...)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	return results
}

func allReady(r *mpi.Rank, req *Request) {
	for u := 0; u < req.UserPartitions(); u++ {
		req.Pready(r.Proc(), u)
	}
}

func close64(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*(1+math.Abs(a)+math.Abs(b))
}

// ---- schedule structure ----

func TestNewScheduleBuildersValidate(t *testing.T) {
	for _, P := range []int{2, 3, 4, 5, 8} {
		for rank := 0; rank < P; rank++ {
			for name, s := range map[string]*Schedule{
				"reduce":       BinomialReduceSchedule(rank, P, 0),
				"reduce-root2": BinomialReduceSchedule(rank, P, P-1),
				"allgather":    RingAllgatherSchedule(rank, P),
				"scan":         LinearScanSchedule(rank, P),
			} {
				if err := s.Validate(); err != nil {
					t.Fatalf("%s P=%d rank=%d: %v", name, P, rank, err)
				}
			}
		}
	}
}

func TestReduceScheduleEdgesPairUp(t *testing.T) {
	// Every send in a reduce schedule must have a matching receive at the
	// same step on the peer.
	for _, P := range []int{2, 3, 4, 7, 8} {
		for root := 0; root < P; root += P - 1 {
			scheds := make([]*Schedule, P)
			for r := 0; r < P; r++ {
				scheds[r] = BinomialReduceSchedule(r, P, root)
			}
			sends := 0
			for r := 0; r < P; r++ {
				for i, st := range scheds[r].Steps {
					for _, eu := range st.Out {
						sends++
						found := false
						for _, in := range scheds[eu.Nbr].Steps[i].In {
							if in.Nbr == r {
								found = true
							}
						}
						if !found {
							t.Fatalf("P=%d root=%d: rank %d sends to %d at step %d without matching recv", P, root, r, eu.Nbr, i)
						}
					}
				}
			}
			if sends != P-1 {
				t.Fatalf("P=%d root=%d: %d edges, want %d", P, root, sends, P-1)
			}
		}
	}
}

// Property: scan schedules form a single chain 0→1→…→P-1 with reductions
// on every interior rank.
func TestScanScheduleChainProperty(t *testing.T) {
	f := func(pp uint8) bool {
		P := int(pp)%7 + 2
		for r := 0; r < P; r++ {
			s := LinearScanSchedule(r, P)
			outs, ins := 0, 0
			for _, st := range s.Steps {
				outs += len(st.Out)
				ins += len(st.In)
			}
			if r > 0 && ins != 1 {
				return false
			}
			if r == 0 && ins != 0 {
				return false
			}
			if r < P-1 && outs != 1 {
				return false
			}
			if r == P-1 && outs != 0 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// ---- end-to-end correctness ----

func TestPreduceToRoot(t *testing.T) {
	for _, root := range []int{0, 3} {
		const n, up = 24, 2
		res := runCollective(t, cluster.OneNodeGH200(), n, up,
			func(r *mpi.Rank) (*Request, []float64) {
				buf := r.Dev.Alloc(n)
				for i := range buf {
					buf[i] = float64((r.ID + 1) * (i + 1))
				}
				return PreduceInit(r.Proc(), r, buf, up, mpi.OpSum, root), buf
			}, allReady)
		for i := 0; i < n; i++ {
			want := 0.0
			for rk := 0; rk < 4; rk++ {
				want += float64((rk + 1) * (i + 1))
			}
			if !close64(res[root][i], want) {
				t.Fatalf("root %d elem %d = %v, want %v", root, i, res[root][i], want)
			}
		}
	}
}

func TestPreduceMaxTwoNodes(t *testing.T) {
	const n, up = 16, 1
	res := runCollective(t, cluster.TwoNodeGH200(), n, up,
		func(r *mpi.Rank) (*Request, []float64) {
			buf := r.Dev.Alloc(n)
			for i := range buf {
				buf[i] = float64(r.ID*100 - i)
			}
			return PreduceInit(r.Proc(), r, buf, up, mpi.OpMax, 0), buf
		}, allReady)
	for i := 0; i < n; i++ {
		want := float64(7*100 - i)
		if res[0][i] != want {
			t.Fatalf("elem %d = %v, want %v", i, res[0][i], want)
		}
	}
}

func TestPallgather(t *testing.T) {
	// Each rank contributes chunk rank of each user partition; afterwards
	// every rank holds every chunk.
	const up = 2
	P := 4
	chunkLen := 3
	n := up * P * chunkLen
	res := runCollective(t, cluster.OneNodeGH200(), n, up,
		func(r *mpi.Rank) (*Request, []float64) {
			buf := r.Dev.Alloc(n)
			// Fill only our own chunk in each user partition.
			for u := 0; u < up; u++ {
				base := u*P*chunkLen + r.ID*chunkLen
				for j := 0; j < chunkLen; j++ {
					buf[base+j] = float64(1000*r.ID + 10*u + j)
				}
			}
			return PallgatherInit(r.Proc(), r, buf, up), buf
		}, allReady)
	for rk := 0; rk < P; rk++ {
		for u := 0; u < up; u++ {
			for c := 0; c < P; c++ {
				base := u*P*chunkLen + c*chunkLen
				for j := 0; j < chunkLen; j++ {
					want := float64(1000*c + 10*u + j)
					if res[rk][base+j] != want {
						t.Fatalf("rank %d up %d chunk %d elem %d = %v, want %v",
							rk, u, c, j, res[rk][base+j], want)
					}
				}
			}
		}
	}
}

func TestPscanInclusive(t *testing.T) {
	const n = 12
	res := runCollective(t, cluster.TwoNodeGH200(), n, 2,
		func(r *mpi.Rank) (*Request, []float64) {
			buf := r.Dev.Alloc(n)
			for i := range buf {
				buf[i] = float64(r.ID + 1)
			}
			return PscanInit(r.Proc(), r, buf, 2, mpi.OpSum), buf
		}, allReady)
	for rk := 0; rk < 8; rk++ {
		want := 0.0
		for s := 0; s <= rk; s++ {
			want += float64(s + 1)
		}
		for i := 0; i < n; i++ {
			if !close64(res[rk][i], want) {
				t.Fatalf("rank %d elem %d = %v, want %v", rk, i, res[rk][i], want)
			}
		}
	}
}

func TestPersistentScanReuse(t *testing.T) {
	const n, epochs = 8, 3
	w := mpi.NewWorld(cluster.OneNodeGH200(), cluster.DefaultModel(), 1)
	P := w.Size()
	finals := make([][]float64, P)
	w.Spawn(func(r *mpi.Rank) {
		p := r.Proc()
		buf := r.Dev.Alloc(n)
		req := PscanInit(p, r, buf, 1, mpi.OpSum)
		for e := 0; e < epochs; e++ {
			for i := range buf {
				buf[i] = float64((e + 1) * (r.ID + 1))
			}
			req.Start(p)
			req.PbufPrepare(p)
			req.Pready(p, 0)
			req.Wait(p)
			r.Barrier(p)
		}
		finals[r.ID] = append([]float64(nil), buf...)
	})
	if err := w.Run(); err != nil {
		t.Fatal(err)
	}
	e := float64(epochs)
	for rk := 0; rk < P; rk++ {
		want := 0.0
		for s := 0; s <= rk; s++ {
			want += e * float64(s+1)
		}
		if !close64(finals[rk][0], want) {
			t.Fatalf("rank %d = %v, want %v", rk, finals[rk][0], want)
		}
	}
}

// Property: reduce(sum) to a random root equals the sequential sum for
// random rank counts (1 node, 4 ranks fixed topology; vary data).
func TestPreduceProperty(t *testing.T) {
	f := func(seed uint8, rootSel uint8) bool {
		root := int(rootSel) % 4
		const n = 10
		res := runCollective(t, cluster.OneNodeGH200(), n, 1,
			func(r *mpi.Rank) (*Request, []float64) {
				buf := r.Dev.Alloc(n)
				for i := range buf {
					buf[i] = float64((int(seed)+r.ID*7+i*3)%23) - 11
				}
				return PreduceInit(r.Proc(), r, buf, 1, mpi.OpSum, root), buf
			}, allReady)
		for i := 0; i < n; i++ {
			want := 0.0
			for rk := 0; rk < 4; rk++ {
				want += float64((int(seed)+rk*7+i*3)%23) - 11
			}
			if !close64(res[root][i], want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

// ---- multi-edge steps ----
//
// No production schedule has a step with more than one edge, so these
// test-local flat gather and scatter schedules keep the walk over several
// arrivals (the gather root) and several sends (the scatter root) in one
// step covered.

// fanInSchedule is a flat gather to root: every non-root rank sends its own
// chunk (index = its rank) straight to the root in one step, and the root
// collects all P-1 chunks in a single step.
func fanInSchedule(rank, P, root int) *Schedule {
	s := &Schedule{
		Rank:     rank,
		P:        P,
		Chunks:   P,
		SendUses: map[int]int{},
		RecvUses: map[int]int{},
	}
	if rank == root {
		var st Step
		for src := 0; src < P; src++ {
			if src == root {
				continue
			}
			st.In = append(st.In, EdgeUse{Nbr: src, Use: 0, Chunk: src})
			s.RecvUses[src] = 1
		}
		s.Steps = []Step{st}
		return s
	}
	s.SendUses[root] = 1
	s.Steps = []Step{{
		Out:       []EdgeUse{{Nbr: root, Use: 0, Chunk: rank}},
		LocalData: true,
	}}
	return s
}

// fanOutSchedule is a flat scatter from root: the root sends chunk d of its
// buffer to rank d in a single step; every other rank receives its chunk
// into position d of its own buffer.
func fanOutSchedule(rank, P, root int) *Schedule {
	s := &Schedule{
		Rank:     rank,
		P:        P,
		Chunks:   P,
		SendUses: map[int]int{},
		RecvUses: map[int]int{},
	}
	if rank == root {
		st := Step{LocalData: true}
		for dst := 0; dst < P; dst++ {
			if dst == root {
				continue
			}
			st.Out = append(st.Out, EdgeUse{Nbr: dst, Use: 0, Chunk: dst})
			s.SendUses[dst] = 1
		}
		s.Steps = []Step{st}
		return s
	}
	s.RecvUses[root] = 1
	s.Steps = []Step{{
		In: []EdgeUse{{Nbr: root, Use: 0, Chunk: rank}},
	}}
	return s
}

func TestGatherScatterSchedulesValidate(t *testing.T) {
	for _, P := range []int{2, 3, 4, 8} {
		for _, root := range []int{0, P - 1} {
			for rank := 0; rank < P; rank++ {
				if err := fanInSchedule(rank, P, root).Validate(); err != nil {
					t.Fatalf("gather P=%d root=%d rank=%d: %v", P, root, rank, err)
				}
				if err := fanOutSchedule(rank, P, root).Validate(); err != nil {
					t.Fatalf("scatter P=%d root=%d rank=%d: %v", P, root, rank, err)
				}
			}
			if n := len(fanInSchedule(root, P, root).Steps[0].In); n != P-1 {
				t.Fatalf("gather P=%d root step has %d arrivals, want %d", P, n, P-1)
			}
			if n := len(fanOutSchedule(root, P, root).Steps[0].Out); n != P-1 {
				t.Fatalf("scatter P=%d root step has %d sends, want %d", P, n, P-1)
			}
		}
	}
}

func TestPgather(t *testing.T) {
	const root = 1
	P := 4
	chunkLen := 3
	n := P * chunkLen
	res := runCollective(t, cluster.OneNodeGH200(), n, 1,
		func(r *mpi.Rank) (*Request, []float64) {
			buf := r.Dev.Alloc(n)
			for j := 0; j < chunkLen; j++ {
				buf[r.ID*chunkLen+j] = float64(100*r.ID + j)
			}
			return InitWithSchedule(r.Proc(), r, buf, 1, mpi.OpSum, fanInSchedule(r.ID, P, root)), buf
		}, allReady)
	for c := 0; c < P; c++ {
		for j := 0; j < chunkLen; j++ {
			want := float64(100*c + j)
			if res[root][c*chunkLen+j] != want {
				t.Fatalf("root chunk %d elem %d = %v, want %v", c, j, res[root][c*chunkLen+j], want)
			}
		}
	}
}

func TestPscatter(t *testing.T) {
	const root = 0
	P := 4
	chunkLen := 2
	n := P * chunkLen
	res := runCollective(t, cluster.OneNodeGH200(), n, 1,
		func(r *mpi.Rank) (*Request, []float64) {
			buf := r.Dev.Alloc(n)
			if r.ID == root {
				for i := range buf {
					buf[i] = float64(1000 + i)
				}
			}
			return InitWithSchedule(r.Proc(), r, buf, 1, mpi.OpSum, fanOutSchedule(r.ID, P, root)), buf
		}, func(r *mpi.Rank, req *Request) {
			if r.ID == root {
				allReady(r, req)
			}
		})
	for rk := 0; rk < P; rk++ {
		if rk == root {
			continue
		}
		for j := 0; j < chunkLen; j++ {
			want := float64(1000 + rk*chunkLen + j)
			if res[rk][rk*chunkLen+j] != want {
				t.Fatalf("rank %d elem %d = %v, want %v", rk, j, res[rk][rk*chunkLen+j], want)
			}
		}
	}
}

func TestPgatherTwoNodes(t *testing.T) {
	P := 8
	n := P
	res := runCollective(t, cluster.TwoNodeGH200(), n, 1,
		func(r *mpi.Rank) (*Request, []float64) {
			buf := r.Dev.Alloc(n)
			buf[r.ID] = float64(r.ID + 1)
			return InitWithSchedule(r.Proc(), r, buf, 1, mpi.OpSum, fanInSchedule(r.ID, P, 0)), buf
		}, allReady)
	for c := 0; c < P; c++ {
		if res[0][c] != float64(c+1) {
			t.Fatalf("root chunk %d = %v", c, res[0][c])
		}
	}
}
