package core

import (
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
)

// flatRing2x1 is the Fig 2 U-merge workload: a 2x1 ring whose four merge
// patterns (two k=3 rows, two k=2 ends) give KernelMergeScan something to
// report on both sides of any range boundary.
func flatRing2x1(t *testing.T) *chain.Chain {
	return mustChain(t,
		grid.V(0, 0), grid.V(1, 0), grid.V(2, 0),
		grid.V(2, 1), grid.V(1, 1), grid.V(0, 1))
}

// kernelPatterns runs KernelMergeScan over one explicit range and returns
// its combined spike+U-turn output.
func kernelPatterns(a *Algorithm, lo, hi int) []MergePattern {
	a.Chain().Handles() // materialise the ring order, as the driver would
	a.KernelMergeScan(0, lo, hi)
	return append(append([]MergePattern{}, a.spikes...), a.uturns...)
}

// TestKernelMergeScanRanges drives KernelMergeScan over hand-picked ranges
// of the Fig 2 flat ring: a range reports exactly the patterns whose first
// black lies inside it, an empty range reports nothing, and a range ending
// mid-merge still reports the whole pattern (the scan reads past hi).
func TestKernelMergeScanRanges(t *testing.T) {
	c := flatRing2x1(t)
	cfg := DefaultConfig()
	alg, err := New(c, cfg)
	if err != nil {
		t.Fatal(err)
	}
	n := c.Len()
	ref := DetectMerges(alg.Chain(), cfg.MaxMergeLen)
	if len(ref) != 4 {
		t.Fatalf("reference patterns = %d, want 4: %+v", len(ref), ref)
	}

	owned := func(lo, hi int) []MergePattern {
		var out []MergePattern
		for _, p := range ref {
			if lo <= p.FirstBlack && p.FirstBlack < hi {
				out = append(out, p)
			}
		}
		return out
	}
	cases := []struct {
		name   string
		lo, hi int
	}{
		{"empty", 2, 2},
		{"empty_at_zero", 0, 0},
		{"single_handle_first_black", ref[0].FirstBlack, ref[0].FirstBlack + 1},
		{"single_handle_mid_pattern", ref[0].FirstBlack + 1, ref[0].FirstBlack + 2},
		// The range ends strictly inside the black range of ref's widest
		// pattern: the scan must read past hi and report it whole.
		{"ends_mid_merge", 0, widestMid(t, ref)},
		{"starts_mid_merge", widestMid(t, ref), n},
		{"full", 0, n},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := kernelPatterns(alg, tc.lo, tc.hi)
			want := owned(tc.lo, tc.hi)
			if len(got) != len(want) {
				t.Fatalf("[%d,%d): got %+v, want %+v", tc.lo, tc.hi, got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Errorf("[%d,%d) pattern %d: got %+v, want %+v", tc.lo, tc.hi, i, got[i], want[i])
				}
			}
		})
	}
}

// widestMid returns an index strictly inside the black range of the widest
// reference pattern, so a range ending there ends mid-merge.
func widestMid(t *testing.T, ref []MergePattern) int {
	t.Helper()
	best := ref[0]
	for _, p := range ref {
		if p.Len > best.Len {
			best = p
		}
	}
	if best.Len < 2 {
		t.Fatal("workload has no multi-black pattern to cut through")
	}
	return best.FirstBlack + 1
}

// TestKernelDecideRanges checks that KernelDecide is range-local: the empty
// range decides nothing and a single-slot range reproduces that slot of
// the full-range output.
func TestKernelDecideRanges(t *testing.T) {
	const s = 16
	alg := newAlg(t, true, squareRing(s)...)
	alg.InjectRun(3*s, -1)
	alg.InjectRun(2*s, +1)
	alg.InjectRun(s, +1)

	// Reproduce the driver's look-phase setup for one round.
	alg.Chain().Handles()
	alg.active = nil
	alg.KernelMergeScan(0, 0, alg.Chain().Len())
	if err := alg.CombineMergePlan(); err != nil {
		t.Fatal(err)
	}
	for _, run := range alg.runs {
		run.justStarted = false
	}

	nr := len(alg.runs)
	decide := func(lo, hi int) []runDecision {
		alg.KernelDecide(0, lo, hi)
		return append([]runDecision{}, alg.scratch.decisions...)
	}
	full := decide(0, nr)
	if len(full) != nr {
		t.Fatalf("full range: %d decisions for %d runs", len(full), nr)
	}
	if got := decide(1, 1); len(got) != 0 {
		t.Errorf("empty range decided %d runs", len(got))
	}
	for slot := 0; slot < nr; slot++ {
		got := decide(slot, slot+1)
		if len(got) != 1 || got[0] != full[slot] {
			t.Errorf("single slot [%d,%d): got %+v, want %+v", slot, slot+1, got, full[slot])
		}
	}
}

// TestKernelStartScanRanges checks the same range-locality for the Fig 5
// start scan, pending starts and corner-cut hops alike: empty ranges find
// nothing and a single corner finds exactly its own starts.
func TestKernelStartScanRanges(t *testing.T) {
	const s = 16
	alg := newAlg(t, false, squareRing(s)...)
	alg.Chain().Handles()
	alg.active = nil
	n := alg.Chain().Len()
	alg.KernelMergeScan(0, 0, n)
	if err := alg.CombineMergePlan(); err != nil {
		t.Fatal(err)
	}

	scan := func(lo, hi int) ([]pendingStart, []chain.Handle) {
		alg.KernelStartScan(0, lo, hi)
		sc := &alg.scratch
		return append([]pendingStart{}, sc.pending...), append([]chain.Handle{}, sc.startHops.Keys()...)
	}
	fullPending, fullHops := scan(0, n)
	// A square ring starts two runs per corner with a corner-cut hop each.
	if len(fullPending) != 8 || len(fullHops) != 4 {
		t.Fatalf("full scan found %d pending / %d hops, want 8 / 4", len(fullPending), len(fullHops))
	}
	if p, h := scan(3, 3); len(p) != 0 || len(h) != 0 {
		t.Errorf("empty range found %d pending / %d hops", len(p), len(h))
	}
	// The single-handle range over a corner finds exactly its two starts.
	if p, h := scan(0, 1); len(p) != 2 || len(h) != 1 {
		t.Errorf("corner range found %d pending / %d hops, want 2 / 1", len(p), len(h))
	}
}
