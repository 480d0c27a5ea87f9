package sim

// Tests for schedule-perturbation mode (ShuffleTieBreaks / SetShuffleSeed).
// The scenario is deliberately symmetric and covers both sides of the
// same-timestamp contract (see the package doc): proc resumption is defined
// FIFO semantics and must be byte-identical under perturbation, while the
// order of simultaneous callbacks is arbitrary and is what shuffle mode
// randomizes. Virtual time must be untouched either way.

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"sort"
	"strings"
	"testing"
)

// shuffleSteps is the expected step count of the perturbation scenario; the
// tests pin it so the scenario cannot silently lose coverage.
const shuffleSteps = 48

// runShuffleScenario executes the symmetric fixture scenario on a kernel
// with the given shuffle seed (0 = perturbation off) and returns its step
// recording. The worker cohorts exercise every proc-FIFO path (gate
// release, same-time timer wakes, yield, counter release); the pulse
// callbacks are simultaneous completions whose order is the perturbable
// part.
func runShuffleScenario(shuffleSeed int64) goldenTrace {
	k := NewKernel(42)
	if shuffleSeed != 0 {
		k.ShuffleTieBreaks(shuffleSeed)
	}
	var g goldenTrace
	log := func(p *Proc, format string, args ...interface{}) {
		g.Steps = append(g.Steps, goldenRecord{At: p.Now(), What: fmt.Sprintf(format, args...)})
	}
	logK := func(format string, args ...interface{}) {
		g.Steps = append(g.Steps, goldenRecord{At: k.Now(), What: fmt.Sprintf(format, args...)})
	}

	gate := NewGate(k, "go")
	done := NewCounter(k, "done")

	// Eight symmetric workers in four same-time cohorts (Wait of 0/10/20/30),
	// five steps each.
	for i := 0; i < 8; i++ {
		i := i
		k.Go(fmt.Sprintf("worker%d", i), func(p *Proc) {
			gate.Wait(p)
			log(p, "worker%d past gate", i)
			p.Wait(Duration(10 * (i % 4)))
			log(p, "worker%d stepped", i)
			p.Yield()
			log(p, "worker%d yielded", i)
			done.Add(1)
			log(p, "worker%d counted", i)
			done.WaitAtLeast(p, 8)
			log(p, "worker%d released", i)
		})
	}

	// Six callbacks in two simultaneous triples: modelled async completions,
	// the order shuffle mode randomizes.
	for j := 0; j < 6; j++ {
		j := j
		k.At(Time(105+10*(j%2)), func() { logK("pulse %d fired", j) })
	}

	k.Go("driver", func(p *Proc) {
		p.Wait(100)
		logK("gate opens")
		gate.Open()
		done.WaitAtLeast(p, 8)
		log(p, "all counted")
	})

	if err := k.Run(); err != nil {
		panic(err)
	}
	g.EndsAt = k.Now()
	return g
}

// encodeTrace renders a recording to canonical JSON for byte comparison.
func encodeTrace(t *testing.T, g goldenTrace) []byte {
	t.Helper()
	b, err := json.MarshalIndent(g, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// splitSteps separates a recording into the proc-driven steps (defined FIFO
// order) and the callback steps (arbitrary order): "pulse ..." in the
// perturbation scenario, "event ..." in the golden-trace fixture.
func splitSteps(g goldenTrace) (procs, pulses []goldenRecord) {
	for _, s := range g.Steps {
		if strings.HasPrefix(s.What, "pulse ") || strings.HasPrefix(s.What, "event ") {
			pulses = append(pulses, s)
		} else {
			procs = append(procs, s)
		}
	}
	return procs, pulses
}

// stepsByTime groups step descriptions by virtual time, each group sorted,
// so two recordings compare equal iff they perform the same multiset of
// steps at every timestamp (order within a timestamp may differ).
func stepsByTime(g goldenTrace) map[Time][]string {
	m := map[Time][]string{}
	for _, s := range g.Steps {
		m[s.At] = append(m[s.At], s.What)
	}
	for _, v := range m {
		sort.Strings(v)
	}
	return m
}

// TestShuffleSeedDeterminism: a perturbed run is still fully deterministic —
// the same shuffle seed reproduces the identical trace byte for byte.
func TestShuffleSeedDeterminism(t *testing.T) {
	for _, seed := range []int64{1, 2, 3, 17} {
		a := encodeTrace(t, runShuffleScenario(seed))
		b := encodeTrace(t, runShuffleScenario(seed))
		if !bytes.Equal(a, b) {
			t.Fatalf("shuffle seed %d not deterministic:\nrun1:\n%s\nrun2:\n%s", seed, a, b)
		}
	}
}

// TestShuffleScheduleInvariance: across shuffle seeds (and against the
// unperturbed run) everything the kernel defines is untouched — the final
// virtual time, the per-timestamp multiset of steps, and the exact FIFO
// order of all proc-driven steps. Only the order of simultaneous callbacks
// may change, and for at least one seed it must (otherwise the perturbation
// is inert).
func TestShuffleScheduleInvariance(t *testing.T) {
	base := runShuffleScenario(0)
	if len(base.Steps) != shuffleSteps {
		t.Fatalf("scenario has %d steps, want %d", len(base.Steps), shuffleSteps)
	}
	baseByTime := stepsByTime(base)
	baseProcs, basePulses := splitSteps(base)
	perturbed := false
	for seed := int64(1); seed <= 8; seed++ {
		g := runShuffleScenario(seed)
		if g.EndsAt != base.EndsAt {
			t.Errorf("seed %d: EndsAt = %v, want %v", seed, g.EndsAt, base.EndsAt)
		}
		if len(g.Steps) != shuffleSteps {
			t.Errorf("seed %d: %d steps, want %d", seed, len(g.Steps), shuffleSteps)
		}
		if got := stepsByTime(g); !reflect.DeepEqual(got, baseByTime) {
			t.Errorf("seed %d: per-timestamp step multiset diverged from unshuffled run:\ngot  %v\nwant %v",
				seed, got, baseByTime)
		}
		procs, pulses := splitSteps(g)
		if !reflect.DeepEqual(procs, baseProcs) {
			t.Errorf("seed %d: proc-driven steps reordered — FIFO semantics must survive perturbation:\ngot  %v\nwant %v",
				seed, procs, baseProcs)
		}
		if !reflect.DeepEqual(pulses, basePulses) {
			perturbed = true
		}
	}
	if !perturbed {
		t.Error("no shuffle seed perturbed the callback order: the perturbation mode is inert")
	}
}

// TestSetShuffleSeedDerivesPerKernel: the process-wide seed mixes with the
// NewKernel seed, and resetting it to zero restores byte-identical default
// behavior (the golden-trace fixture test covers the unset-from-birth case).
func TestSetShuffleSeedDerivesPerKernel(t *testing.T) {
	SetShuffleSeed(7)
	k := NewKernel(42)
	SetShuffleSeed(0)
	if k.shuffle == nil {
		t.Fatal("SetShuffleSeed(7) did not arm the next kernel")
	}
	if NewKernel(42).shuffle != nil {
		t.Fatal("SetShuffleSeed(0) did not disarm subsequent kernels")
	}
}

// TestGoldenTraceShuffleInvariance ties perturbation mode to the committed
// kernel golden trace: under every shuffle seed the 48-step fixture scenario
// must reproduce the fixture byte for byte, up to the one thing the contract
// declares arbitrary — the relative order of the two simultaneous event
// callbacks ("event A"/"event B" at one timestamp). Canonicalizing steps
// within each timestamp therefore must yield exact byte equality with the
// fixture, the tracer stream and final virtual time included; the
// proc-driven steps must additionally match the fixture's exact FIFO order
// with no canonicalization at all.
func TestGoldenTraceShuffleInvariance(t *testing.T) {
	raw, err := os.ReadFile(goldenPath(t))
	if err != nil {
		t.Fatalf("reading fixture: %v (regenerate with -update-golden)", err)
	}
	var want goldenTrace
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	canon := func(g goldenTrace) []byte {
		steps := append([]goldenRecord(nil), g.Steps...)
		sort.SliceStable(steps, func(i, j int) bool {
			if steps[i].At != steps[j].At {
				return steps[i].At < steps[j].At
			}
			return steps[i].What < steps[j].What
		})
		g.Steps = steps
		b, err := json.MarshalIndent(g, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	wantCanon := canon(want)
	wantProcs, _ := splitSteps(want)
	for seed := int64(1); seed <= 8; seed++ {
		SetShuffleSeed(seed)
		got := runGoldenScenario(t)
		SetShuffleSeed(0)
		if len(got.Steps) != shuffleSteps {
			t.Fatalf("seed %d: fixture scenario ran %d steps, want %d", seed, len(got.Steps), shuffleSteps)
		}
		if !bytes.Equal(canon(got), wantCanon) {
			t.Errorf("seed %d: shuffled golden-trace run diverged from the committed fixture beyond same-timestamp callback order", seed)
		}
		gotProcs, _ := splitSteps(got)
		if !reflect.DeepEqual(gotProcs, wantProcs) {
			t.Errorf("seed %d: proc-driven fixture steps reordered — FIFO semantics must survive perturbation", seed)
		}
	}
}
