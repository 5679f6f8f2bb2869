// Allocation regression tests for the per-round simulation hot path: the
// scratch-state reuse in internal/core and internal/sim (DESIGN.md §5)
// must keep the steady-state round loop nearly allocation-free. The bench
// trajectory (BENCH_*.json, cmd/gatherbench -bench-out) records the same
// numbers across PRs; this test is the cheap tripwire that runs with the
// ordinary suite.
package gridgather_test

import (
	"testing"

	gridgather "gridgather"
	"gridgather/internal/core"
)

// TestStepAllocsRegression pins the average per-round allocation count of
// core.Algorithm.Step on a mid-size square (n = 512). Rounds that start
// runs allocate the new Run objects (real state, every L-th round) and the
// reusable buffers may still grow early on; everything else — merge
// planning, decisions, hop tables, registry rebuild, report slices — must
// come from reused scratch. The bound is ~4x the measured steady-state
// average (≈2 allocs/round), far below the ~69 allocs/round of the
// allocate-per-round implementation it guards against.
func TestStepAllocsRegression(t *testing.T) {
	ch, err := gridgather.Rectangle(128, 128) // n = 512; gathers in ~773 rounds
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.New(ch, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	// Warm up: first rounds grow the reusable buffers to working size.
	for i := 0; i < 60; i++ {
		if _, err := alg.Step(); err != nil {
			t.Fatal(err)
		}
	}
	const rounds = 200 // well before gathering at ~773
	avg := testing.AllocsPerRun(rounds, func() {
		if alg.Gathered() {
			t.Fatal("chain gathered mid-measurement; enlarge the workload")
		}
		if _, err := alg.Step(); err != nil {
			t.Fatal(err)
		}
	})
	const maxAllocsPerRound = 8.0
	if avg > maxAllocsPerRound {
		t.Errorf("Algorithm.Step allocates %.1f objects/round on average, want <= %.1f (scratch reuse regressed)", avg, maxAllocsPerRound)
	}
}

// TestStartRoundAllocsSpiral pins the allocation cost of the rounds that
// start runs on a paper spiral (Spiral(16), n = 4352, measured at
// n ≈ 4050…2900). Every start round also runs the Lemma 1/2 pair walk
// (core.Algorithm.pairStarts), which parses each new run's quasi line over
// an unbounded view. With the streaming EndpointAhead that walk allocates
// nothing, leaving the new Run objects themselves: ≈1.45 allocations per
// started run. An O(n) walk that buffers the groups of the whole chain
// costs ≈3.9 per started run at this size, so the bound of 2 catches a
// return to it.
func TestStartRoundAllocsSpiral(t *testing.T) {
	ch, err := gridgather.Spiral(16)
	if err != nil {
		t.Fatal(err)
	}
	alg, err := core.New(ch, core.DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	started := 0
	period := func() {
		for i := 0; i < core.DefaultRunPeriod; i++ {
			rep, err := alg.Step()
			if err != nil {
				t.Fatal(err)
			}
			started += len(rep.Starts)
		}
	}
	period() // warm up: the first start round grows the reusable buffers
	started = 0
	const periods = 3 // AllocsPerRun adds one warm-up call of its own
	avg := testing.AllocsPerRun(periods, period)
	if alg.Gathered() || started == 0 {
		t.Fatalf("no start rounds measured (gathered=%v, started=%d); enlarge the workload", alg.Gathered(), started)
	}
	perRun := avg / (float64(started) / (periods + 1))
	const maxAllocsPerStartedRun = 2.0
	if perRun > maxAllocsPerStartedRun {
		t.Errorf("start rounds allocate %.2f objects per started run, want <= %.1f (pair walk no longer allocation-free?)", perRun, maxAllocsPerStartedRun)
	}
	t.Logf("%.2f allocations per started run (%.0f per period)", perRun, avg)
}
