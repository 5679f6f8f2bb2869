package core

import (
	"math/rand"
	"reflect"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
)

// lookOutput is what the three exported look kernels produce for the
// coming round, with run pointers replaced by run IDs so two engines can
// be compared.
type lookOutput struct {
	patterns  []MergePattern
	decisions map[int]runDecision // by run ID, run pointer cleared
	starts    []pendingStart
}

// probeLook runs the look kernels over the whole chain between rounds,
// the way a benchmark's probe does: ring order materialised first, then
// merge scan + combine, decide, and start scan.
func probeLook(t *testing.T, a *Algorithm) lookOutput {
	t.Helper()
	n := a.ch.Len()
	a.ch.Handles()
	a.KernelMergeScan(0, 0, n)
	if err := a.CombineMergePlan(); err != nil {
		t.Fatalf("CombineMergePlan: %v", err)
	}
	out := lookOutput{
		patterns:  append([]MergePattern(nil), a.plan.Patterns...),
		decisions: make(map[int]runDecision),
	}
	a.KernelDecide(0, 0, len(a.runs))
	for _, d := range a.scratch.decisions {
		id := d.run.ID
		d.run = nil
		out.decisions[id] = d
	}
	a.KernelStartScan(0, 0, n)
	out.starts = append([]pendingStart(nil), a.scratch.pending...)
	return out
}

// restored builds a fresh engine on a clone of a's state; keep filters the
// run registry.
func restored(t *testing.T, a *Algorithm, keep func(RunSnapshot) bool) *Algorithm {
	t.Helper()
	ch, err := chain.FromSnapshot(a.Chain().Snapshot())
	if err != nil {
		t.Fatal(err)
	}
	snap := a.Snapshot()
	runs := snap.Runs[:0:0]
	for _, rs := range snap.Runs {
		if keep(rs) {
			runs = append(runs, rs)
		}
	}
	snap.Runs = runs
	s, err := RestoreStrategy(StrategyPaper, ch, a.Config(), snap)
	if err != nil {
		t.Fatal(err)
	}
	return s.(*Algorithm)
}

// TestLookKernelsBetweenRounds calls the exported look kernels between
// rounds on every generator family. The edge cache and the run-direction
// table must never be stale: the probe's merge set, decisions and starts
// equal those of a fresh engine built on a clone of the state. Runs
// started in the round just played must be invisible: dropping them from
// the clone leaves every other run's decision unchanged. The probes must
// not perturb the run either: an unprobed twin ends in the same state.
func TestLookKernelsBetweenRounds(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	for _, name := range generate.Names() {
		t.Run(name, func(t *testing.T) {
			ch, err := generate.Named(name, 192, rng)
			if err != nil {
				t.Fatal(err)
			}
			a, err := New(ch.Clone(), DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			twin, err := New(ch, DefaultConfig())
			if err != nil {
				t.Fatal(err)
			}
			hidden := 0
			for round := 0; round < 2000 && !a.Gathered(); round++ {
				got := probeLook(t, a)
				want := probeLook(t, restored(t, a, func(RunSnapshot) bool { return true }))
				if !reflect.DeepEqual(got, want) {
					t.Fatalf("round %d: probe between rounds differs from a fresh engine:\n got %+v\nwant %+v", round, got, want)
				}
				old := probeLook(t, restored(t, a, func(rs RunSnapshot) bool { return !rs.JustStarted }))
				for _, run := range a.runs {
					if run.justStarted {
						hidden++
						continue
					}
					if got.decisions[run.ID] != old.decisions[run.ID] {
						t.Fatalf("round %d: run %d decides %+v, %+v without this round's starts",
							round, run.ID, got.decisions[run.ID], old.decisions[run.ID])
					}
				}
				for _, alg := range []*Algorithm{a, twin} {
					if _, err := alg.Step(); err != nil {
						t.Fatalf("round %d: %v", round, err)
					}
				}
				if !reflect.DeepEqual(a.Chain().Positions(), twin.Chain().Positions()) {
					t.Fatalf("round %d: probed engine diverged from its unprobed twin", round)
				}
			}
			if !a.Gathered() {
				t.Fatal("did not gather")
			}
			t.Logf("%s: %d rounds, %d just-started runs hidden from probes", name, a.Round(), hidden)
		})
	}
}
