package analysis

import (
	"fmt"
	"strings"
	"testing"
)

// TestRaceLockFixtures pins the racelock analyzer: firing cases for
// unsynchronized cross-root access (including a two-hop interprocedural
// write under a self-concurrent HTTP handler), and non-firing cases for the
// sanitizers the serving layer's idioms depend on — branch-correlated
// locking, caller-held locks across calls, the channel flight protocol,
// sync.Once initialization and the WaitGroup barrier.
func TestRaceLockFixtures(t *testing.T) {
	fixtures := []interpFixture{
		{
			// A spawned goroutine increments a package counter the spawner's
			// continuation reads: no lock anywhere.
			name:     "racelock_spawn_vs_continuation_fires",
			analyzer: "racelock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/serve", files: map[string]string{"f.go": `package serve
var hits int
func Spawn() int {
	go worker()
	return hits
}
func worker() { hits++ }
`}},
			},
			want: []string{"possible data race on serve.hits"},
		},
		{
			// The write is two call hops below an HTTP handler registered via
			// HandleFunc; handlers are self-concurrent, so the handler races
			// with another instance of itself. Needs the chain to the write.
			name:     "racelock_handler_two_hops_fires",
			analyzer: "racelock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/serve", files: map[string]string{"f.go": `package serve
import "net/http"
type S struct{ n int }
func (s *S) handle(w http.ResponseWriter, r *http.Request) { s.record() }
func (s *S) record() { s.bump() }
func (s *S) bump()   { s.n++ }
func (s *S) Routes() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/x", s.handle)
	return mux
}
`}},
			},
			want:      []string{"possible data race on serve.S.n"},
			wantChain: []string{"serve.(S).record", "serve.(S).bump"},
		},
		{
			// Branch-correlated locking: the lock is taken on both branches of
			// an if/else, so the must-lockset at the write still holds it. An
			// intra-procedural pattern match on "Lock(); write" would miss the
			// join; the CFG intersection keeps it.
			name:     "racelock_branch_correlated_lock_silent",
			analyzer: "racelock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/serve", files: map[string]string{"f.go": `package serve
import "sync"
var mu sync.Mutex
var n int
var fast bool
func Spawn() {
	go incr()
	mu.Lock()
	_ = n
	mu.Unlock()
}
func incr() {
	if fast {
		mu.Lock()
	} else {
		mu.Lock()
	}
	n++
	mu.Unlock()
}
`}},
			},
			want: nil,
		},
		{
			// The caller holds the lock; the callee does the write. Looking at
			// the callee alone the write is unlocked — the inherited lockset
			// at the call site protects it.
			name:     "racelock_caller_holds_lock_silent",
			analyzer: "racelock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/serve", files: map[string]string{"f.go": `package serve
import "sync"
var mu sync.Mutex
var n int
func Spawn() {
	go locked()
	locked()
}
func locked() {
	mu.Lock()
	set()
	mu.Unlock()
}
func set() { n++ }
`}},
			},
			want: nil,
		},
		{
			// The Batcher flight protocol: the leader writes the result and
			// closes the done channel; the reader receives on the channel
			// first. close/<- on the same channel identity is a
			// happens-before edge, not a race.
			name:     "racelock_flight_protocol_silent",
			analyzer: "racelock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/serve", files: map[string]string{"f.go": `package serve
type flight struct {
	res  int
	done chan struct{}
}
var fl = &flight{done: make(chan struct{})}
func Spawn() int {
	go lead()
	<-fl.done
	return fl.res
}
func lead() {
	fl.res = 42
	close(fl.done)
}
`}},
			},
			want: nil,
		},
		{
			// Removing the close turns the same shape into a real race: the
			// sanitizer requires the publication edge, not just a channel
			// field existing.
			name:     "racelock_no_publication_fires",
			analyzer: "racelock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/serve", files: map[string]string{"f.go": `package serve
type flight struct {
	res  int
	done chan struct{}
}
var fl = &flight{done: make(chan struct{})}
func Spawn() int {
	go lead()
	return fl.res
}
func lead() { fl.res = 42 }
`}},
			},
			want: []string{"possible data race on serve.flight.res"},
		},
		{
			// sync.Once: the callback's writes and post-Do reads share the
			// Once pseudo-lock (bench.Catalog's idiom).
			name:     "racelock_once_silent",
			analyzer: "racelock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/serve", files: map[string]string{"f.go": `package serve
import "sync"
var catalog struct {
	once sync.Once
	m    map[string]int
}
func Get() map[string]int {
	catalog.once.Do(func() {
		catalog.m = map[string]int{"a": 1}
	})
	return catalog.m
}
func Spawn() {
	go func() { _ = Get() }()
	_ = Get()
}
`}},
			},
			want: nil,
		},
		{
			// Accesses through a local struct VALUE are private copies, never
			// shared — the field abstraction must not conflate them across
			// goroutines (the Sweep PointResult idiom).
			name:     "racelock_value_copy_silent",
			analyzer: "racelock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/serve", files: map[string]string{"f.go": `package serve
type res struct{ n int }
func Spawn() {
	go work()
	var r res
	r.n = 1
	_ = r.n
}
func work() {
	var r res
	r.n = 2
}
`}},
			},
			want: nil,
		},
		{
			// The WaitGroup barrier (the Sweep fan-out): a worker's write
			// before its deferred wg.Done is ordered before the spawner's
			// read after wg.Wait.
			name:     "racelock_wg_barrier_silent",
			analyzer: "racelock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/serve", files: map[string]string{"f.go": `package serve
import "sync"
type batch struct{ n int }
func Run(b *batch) int {
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		b.n++
	}()
	wg.Wait()
	return b.n
}
`}},
			},
			want: nil,
		},
		{
			// Done publishes to the waiter, not between siblings: a
			// package-level counter bumped by every worker of a loop
			// fan-out is a real race.
			name:     "racelock_wg_barrier_global_fires",
			analyzer: "racelock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/serve", files: map[string]string{"f.go": `package serve
import "sync"
var hits int
func Run(n int) int {
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func() {
			defer wg.Done()
			hits++
		}()
	}
	wg.Wait()
	return hits
}
`}},
			},
			want: []string{"possible data race on serve.hits"},
		},
		{
			// Host-concurrency rules stop at the host boundary: the same
			// unlocked-counter shape in a sim-driven package is out of scope
			// (the simulation is cooperative, not concurrent).
			name:     "racelock_out_of_scope_silent",
			analyzer: "racelock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/fabric", files: map[string]string{"f.go": `package fabric
var hits int
func Spawn() int {
	go worker()
	return hits
}
func worker() { hits++ }
`}},
			},
			want: nil,
		},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			diags := runInterpFixture(t, fx)
			if len(diags) != len(fx.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(fx.want), raceDiagDump(diags))
			}
			for i, want := range fx.want {
				if !strings.Contains(diags[i].Message, want) {
					t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, want)
				}
			}
			if len(fx.wantChain) > 0 {
				if len(diags) == 0 {
					t.Fatal("wantChain set but no findings")
				}
				chain := renderChain(diags[0].Chain)
				idx := 0
				for _, step := range fx.wantChain {
					at := strings.Index(chain[idx:], step)
					if at < 0 {
						t.Fatalf("chain %q missing %q (in order)", chain, step)
					}
					idx += at
				}
			}
		})
	}
}

func raceDiagDump(diags []Diagnostic) string {
	var b strings.Builder
	for _, d := range diags {
		b.WriteString("  " + d.String() + "\n")
	}
	return b.String()
}

// TestRaceLockSimFixtures pins racelock's internal/sim scope: the package is
// the cooperative kernel, one goroutine per kernel handed off through the
// proc channels, and no file of it is checked. The same unlocked
// spawn-and-read shape in a host package still fires, so the silence comes
// from the scope and not from the shape.
func TestRaceLockSimFixtures(t *testing.T) {
	const src = `package %s
type Box struct{ xs []int }
type Hub struct{ mail []Box }
func (h *Hub) Run() {
	go h.post(1)
	_ = h.mail[0].xs
}
func (h *Hub) post(v int) {
	h.mail[0].xs = append(h.mail[0].xs, v)
}
`
	fixtures := []interpFixture{
		{
			name:     "racelock_sim_package_out_of_scope_silent",
			analyzer: "racelock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/sim", files: map[string]string{"trace.go": fmt.Sprintf(src, "sim")}},
			},
			want: nil,
		},
		{
			name:     "racelock_sim_shape_in_host_package_fires",
			analyzer: "racelock",
			pkgs: []pkgSrc{
				{path: "mpipart/internal/serve", files: map[string]string{"f.go": fmt.Sprintf(src, "serve")}},
			},
			want: []string{"possible data race on serve.Box.xs"},
		},
	}
	for _, fx := range fixtures {
		fx := fx
		t.Run(fx.name, func(t *testing.T) {
			diags := runInterpFixture(t, fx)
			if len(diags) != len(fx.want) {
				t.Fatalf("got %d findings, want %d:\n%s", len(diags), len(fx.want), raceDiagDump(diags))
			}
			for i, want := range fx.want {
				if !strings.Contains(diags[i].Message, want) {
					t.Errorf("finding %d = %q, want substring %q", i, diags[i].Message, want)
				}
			}
		})
	}
}
