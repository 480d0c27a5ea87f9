package analysis

import (
	"strings"
	"testing"
)

// Fixtures for the flow-sensitive determinism family (maporder, floatorder,
// selectnondet). Each analyzer has firing and non-firing fixtures, including
// at least one finding that requires path-sensitive dataflow — a sanitizer
// skipped on one branch — which the straight-line v2 engine could not
// express.

func TestDeterminismFixtures(t *testing.T) {
	l := newTestLoader(t)
	fixtures := []fixture{
		{
			name:     "maporder_direct_sink_bad",
			analyzer: "maporder",
			pkgPath:  "mpipart/internal/coll",
			src: `package coll
import "fmt"
func emit(m map[string]int) {
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`,
			want: []string{
				"map-iteration-ordered value k (from range over m",
			},
		},
		{
			// The path-sensitive case: sort.Strings runs on only one branch,
			// so the may-taint survives the join and the emission fires. A
			// straight-line walk that sees the sort call anywhere would
			// wrongly consider keys sanitized.
			name:     "maporder_sort_skipped_on_branch_bad",
			analyzer: "maporder",
			pkgPath:  "mpipart/internal/coll",
			src: `package coll
import (
	"fmt"
	"sort"
)
func emit(m map[string]int, fast bool) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	if !fast {
		sort.Strings(keys)
	}
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}
`,
			want: []string{
				"map-iteration-ordered value k (from range over m",
			},
		},
		{
			// The canonical sanitizer idiom: extract keys, sort, iterate the
			// slice. Silent.
			name:     "maporder_sorted_keys_ok",
			analyzer: "maporder",
			pkgPath:  "mpipart/internal/coll",
			src: `package coll
import (
	"fmt"
	"sort"
)
func emit(m map[string]int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}
`,
		},
		{
			// Order-insensitive consumption (integer reduction, no sink call):
			// silent even though the map is ranged directly.
			name:     "maporder_no_sink_ok",
			analyzer: "maporder",
			pkgPath:  "mpipart/internal/mpi",
			src: `package mpi
func pending(q map[int][]int) int {
	n := 0
	for _, msgs := range q {
		n += len(msgs)
	}
	return n
}
`,
		},
		{
			// Partitioned-API calls in map order: the exact shape of the real
			// finding family fixed in internal/coll this PR.
			name:     "maporder_partitioned_api_bad",
			analyzer: "maporder",
			pkgPath:  "mpipart/internal/coll",
			src: `package coll
import (
	"mpipart/internal/core"
	"mpipart/internal/sim"
)
func start(p *sim.Proc, sends map[int]*core.SendRequest) {
	for _, s := range sends {
		s.Start(p)
	}
}
`,
			want: []string{
				"map-iteration-ordered value s (from range over sends",
			},
		},
		{
			// Request construction in map order: the peer argument of the
			// init is a map key, the shape of the coll channel-building
			// findings fixed when maporder landed.
			name:     "maporder_partitioned_init_bad",
			analyzer: "maporder",
			pkgPath:  "mpipart/internal/coll",
			src: `package coll
import (
	"mpipart/internal/core"
	"mpipart/internal/mpi"
	"mpipart/internal/sim"
)
func build(p *sim.Proc, r *mpi.Rank, uses map[int]int, buf []float64) map[int]*core.SendRequest {
	sends := map[int]*core.SendRequest{}
	for nbr, n := range uses {
		sends[nbr] = core.PsendInit(p, r, nbr, 7, buf, n)
	}
	return sends
}
`,
			want: []string{
				"map-iteration-ordered value nbr (from range over uses at line 9) reaches partitioned-API call core.PsendInit",
			},
		},
		{
			// A map-literal loop handing its keys to a helper with an
			// effect: the shape of the bench gate's figure/topology tables
			// fixed when maporder landed.
			name:     "maporder_helper_effect_bad",
			analyzer: "maporder",
			pkgPath:  "mpipart/internal/bench",
			src: `package bench
import "fmt"
type Topology struct{ Nodes int }
func point(id string, t Topology) string {
	fmt.Println(id, t.Nodes)
	return id
}
func gatePoints() []string {
	var ids []string
	for fig, topo := range map[string]Topology{"fig6": {1}, "fig7": {2}} {
		ids = append(ids, point(fig+"/mpi", topo))
	}
	return ids
}
`,
			want: []string{
				"reaches HostIO via bench.point",
			},
		},
		{
			name:     "floatorder_map_accumulation_bad",
			analyzer: "floatorder",
			pkgPath:  "mpipart/internal/bench",
			src: `package bench
func total(samples map[string]float64) float64 {
	var sum float64
	for _, v := range samples {
		sum += v
	}
	return sum
}
`,
			want: []string{
				"floating-point accumulation into sum",
			},
		},
		{
			// Taint-flow form: the accumulation ranges a key slice, not the
			// map itself; the slice was filled from a map range and never
			// sorted, so the indexed loads arrive in map order.
			name:     "floatorder_unsorted_keys_bad",
			analyzer: "floatorder",
			pkgPath:  "mpipart/internal/bench",
			src: `package bench
func total(samples map[string]float64) float64 {
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	var sum float64
	for _, k := range keys {
		sum += samples[k]
	}
	return sum
}
`,
			want: []string{
				"floating-point accumulation into sum",
			},
		},
		{
			name:     "floatorder_sorted_keys_ok",
			analyzer: "floatorder",
			pkgPath:  "mpipart/internal/bench",
			src: `package bench
import "sort"
func total(samples map[string]float64) float64 {
	keys := make([]string, 0, len(samples))
	for k := range samples {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sum float64
	for _, k := range keys {
		sum += samples[k]
	}
	return sum
}
`,
		},
		{
			// Integer accumulation is exact and commutative: silent.
			name:     "floatorder_int_accumulation_ok",
			analyzer: "floatorder",
			pkgPath:  "mpipart/internal/bench",
			src: `package bench
func count(samples map[string]int) int {
	n := 0
	for _, v := range samples {
		n += v
	}
	return n
}
`,
		},
		{
			name:     "selectnondet_multiready_bad",
			analyzer: "selectnondet",
			pkgPath:  "mpipart/internal/fabric",
			src: `package fabric
func pump(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
`,
			want: []string{
				"select with 2 communication cases",
			},
		},
		{
			name:     "selectnondet_default_poll_bad",
			analyzer: "selectnondet",
			pkgPath:  "mpipart/internal/fabric",
			src: `package fabric
func pump(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	default:
		return 0
	}
}
`,
			want: []string{
				"select with 2 communication cases (plus default)",
			},
		},
		{
			// Single communication case (with or without default) has no
			// ready-order ambiguity: silent.
			name:     "selectnondet_single_case_ok",
			analyzer: "selectnondet",
			pkgPath:  "mpipart/internal/fabric",
			src: `package fabric
func pump(a chan int) int {
	select {
	case v := <-a:
		return v
	default:
		return 0
	}
}
`,
		},
		{
			// CFG reachability: a multi-ready select in dead code does not
			// fire — the flow-sensitive part a plain AST walk cannot decide.
			name:     "selectnondet_unreachable_ok",
			analyzer: "selectnondet",
			pkgPath:  "mpipart/internal/fabric",
			src: `package fabric
func pump(a, b chan int) int {
	return 0
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
`,
		},
		{
			// Outside the sim-driven package set the rule does not apply.
			name:     "selectnondet_host_tooling_ok",
			analyzer: "selectnondet",
			pkgPath:  "mpipart/cmd/figures",
			src: `package main
func pump(a, b chan int) int {
	select {
	case v := <-a:
		return v
	case v := <-b:
		return v
	}
}
`,
		},
		// ---- CFG corner cases the flow-sensitive walks traverse ----
		{
			// defer/recover edges: the deferred closure is its own call-graph
			// node, not part of this CFG, and must not derail the taint walk —
			// the unsorted emission after it still fires.
			name:     "maporder_defer_recover_bad",
			analyzer: "maporder",
			pkgPath:  "mpipart/internal/coll",
			src: `package coll
import "fmt"
func emit(m map[string]int) {
	defer func() {
		if r := recover(); r != nil {
			fmt.Println("recovered")
		}
	}()
	for k, v := range m {
		fmt.Println(k, v)
	}
}
`,
			want: []string{
				"map-iteration-ordered value k (from range over m",
			},
		},
		{
			// Labeled goto back into a loop body: the back edge must keep the
			// labeled block reachable and carry the taint, so the emission at
			// the label fires.
			name:     "maporder_goto_into_loop_bad",
			analyzer: "maporder",
			pkgPath:  "mpipart/internal/coll",
			src: `package coll
import "fmt"
func emit(m map[string]int, n int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	i := 0
	for {
	L:
		if i >= len(keys) || i >= n {
			return
		}
		fmt.Println(keys[i])
		i++
		goto L
	}
}
`,
			want: []string{
				"map-iteration-ordered value",
			},
		},
		{
			// select with default as a join point: the sort runs only on the
			// communication arm, the default arm skips it, so the may-taint
			// survives the join and the emission after the select fires.
			name:     "maporder_select_default_skips_sort_bad",
			analyzer: "maporder",
			pkgPath:  "mpipart/internal/coll",
			src: `package coll
import (
	"fmt"
	"sort"
)
func emit(m map[string]int, ready chan int) {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	select {
	case <-ready:
		sort.Strings(keys)
	default:
	}
	for _, k := range keys {
		fmt.Println(k, m[k])
	}
}
`,
			want: []string{
				"map-iteration-ordered value",
			},
		},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			diags := runFixture(t, l, fx)
			if len(diags) != len(fx.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(fx.want), renderDiags(diags))
			}
			for i, w := range fx.want {
				if !strings.Contains(diags[i].Message, w) {
					t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, w)
				}
			}
		})
	}
}
