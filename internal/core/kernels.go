package core

import (
	"fmt"

	"gridgather/internal/chain"
	"gridgather/internal/view"
)

// This file holds the phase kernels StepActivated is built from
// (DESIGN.md §9). Each look-phase kernel reads the frozen round state over
// a half-open range [lo, hi) and writes only its own output buffers, which
// it resets on entry; the mutation kernels (move, merge-resolve, apply)
// then run over the combined round state.

// KernelMergeScan detects the merge patterns whose first black robot lies
// in [lo, hi): spikes (k=1 direction reversals) and straight U-turns
// (k>=2), exactly the pattern set of DetectMerges restricted to the range.
// A U-turn run starting near hi is scanned past it, so a merge straddling
// the range's end is reported whole by the range holding its first black.
// The scan caps at MaxMergeLen edges: a longer run is rejected whatever
// its true extent, without changing any outcome.
//
// The worker argument is unused; the benchmark harness still passes it.
//
// Kernel contract: reads the materialised ring order and positions; writes
// only the spike and U-turn buffers (reset on entry).
func (a *Algorithm) KernelMergeScan(worker, lo, hi int) {
	if a.activeFault() == FaultPanic {
		panic(fmt.Sprintf("core: injected kernel panic (round %d)", a.round))
	}
	a.spikes = a.spikes[:0]
	a.uturns = a.uturns[:0]
	n := a.ch.Len()
	if n < 3 || lo >= hi {
		return
	}
	maxLen := a.cfg.MaxMergeLen
	prev := a.ch.Edge(lo - 1)
	for i := lo; i < hi; i++ {
		cur := a.ch.Edge(i)
		if prev.IsAxisUnit() && cur == prev.Neg() {
			a.spikes = append(a.spikes, MergePattern{FirstBlack: i, Len: 1, Hop: cur})
		}
		if cur != prev {
			// Edge i starts a maximal straight run (a closed chain has at
			// least two direction changes, so the scan always terminates).
			l := 1
			for l < maxLen && a.ch.Edge(i+l) == cur {
				l++
			}
			// l == maxLen means k = l+1 > MaxMergeLen whatever the run's
			// true length; below it l is the exact maximal run length.
			if k := l + 1; l < maxLen && k+2 <= n {
				after := a.ch.Edge(i + l)
				if after.IsAxisUnit() && after == prev.Neg() && after.Perp(cur) {
					a.uturns = append(a.uturns, MergePattern{FirstBlack: i, Len: k, Hop: after})
				}
			}
		}
		prev = cur
	}
}

// CombineMergePlan folds the KernelMergeScan buffers into the round's
// merge plan — all spikes in ascending chain order, then all U-turns in
// ascending chain order, reproducing DetectMerges' pattern order byte for
// byte — and runs the plan tail (spike-priority suppression, participant
// set, combined hops).
func (a *Algorithm) CombineMergePlan() error {
	plan := a.plan
	plan.Patterns = append(append(plan.Patterns[:0], a.spikes...), a.uturns...)
	return plan.finish(a.ch, a.activeFault() != FaultSkipSpikePriority)
}

// KernelDecide computes the run decisions for registry slots [lo, hi) of
// a.runs against the frozen look-phase state. Runs whose host sleeps this
// round are frozen (non-FSYNC schedulers).
//
// The worker argument is unused; the benchmark harness still passes it.
//
// Kernel contract: reads chain, merge plan and run registry; writes only
// the decisions buffer (reset on entry) and adds to the round's anomaly
// counters (reset by StepActivated).
func (a *Algorithm) KernelDecide(worker, lo, hi int) {
	sc := &a.scratch
	sc.decisions = sc.decisions[:0]
	for _, run := range a.runs[lo:hi] {
		if !activeAt(a.active, a.ch.IndexOf(run.Host)) {
			sc.decisions = append(sc.decisions, runDecision{run: run, frozen: true})
			continue
		}
		sc.decisions = append(sc.decisions, a.computeRunDecision(run))
	}
}

// KernelStartScan evaluates the Fig 5 run-start patterns for the active
// robots at chain indices [lo, hi) that take part in no merge. The L-th
// round gating and the SequentialRuns ablation are the driver's business;
// the kernel always scans.
//
// The worker argument is unused; the benchmark harness still passes it.
//
// Kernel contract: reads chain, merge plan and run registry; writes only
// the pending-start list and the start-hop table (both reset on entry).
func (a *Algorithm) KernelStartScan(worker, lo, hi int) {
	sc := &a.scratch
	sc.pending = sc.pending[:0]
	sc.startHops.Reset(a.ch.NumHandles())
	for i := lo; i < hi; i++ {
		if !activeAt(a.active, i) {
			continue // sleeping robots look at nothing and start nothing
		}
		r := a.ch.At(i)
		if a.plan.Participant(r) {
			continue
		}
		s := view.At(a.ch, i, a.cfg.ViewingPathLength, a)
		spec, ok := DetectStart(s)
		if !ok {
			continue
		}
		if hr, _ := a.byHandle.Get(r); hr.n+len(spec.Dirs) > 2 {
			continue // a robot stores at most two run states
		}
		for _, dir := range spec.Dirs {
			sc.pending = append(sc.pending, pendingStart{
				robot: r, idx: i, dir: dir, kind: spec.Kind, pair: -1,
			})
		}
		if !spec.Hop.IsZero() {
			sc.startHops.Set(r, spec.Hop)
		}
	}
}

// kernelMove executes positions [lo, hi) of the round's combined hop list:
// surviving hops move their robot, suppressed entries are skipped. Runs
// after the edge-conflict fixpoint, so every executed hop is a king step
// onto a legal edge; a non-king hop is an engine defect, not a model state.
func (a *Algorithm) kernelMove(lo, hi int) error {
	sc := &a.scratch
	keys := sc.hops.Keys()
	for _, r := range keys[lo:hi] {
		h, ok := sc.hops.Get(r)
		if !ok {
			continue // suppressed by a hop conflict
		}
		if !h.IsKingStep() {
			return fmt.Errorf("core: robot %d would hop %v (not a king step)", a.ch.ID(r), h)
		}
		a.ch.MoveBy(r, h)
		sc.moved = append(sc.moved, r)
	}
	return nil
}

// kernelResolveMerges resolves the merges seeded by sc.moved[lo:hi],
// appending chain.MergeEvents to the round's event list. Co-location
// requires a mover, so seeding from the moved set finds every merge in
// O(#moved + #merges) without rescanning the ring.
func (a *Algorithm) kernelResolveMerges(lo, hi int) {
	if a.activeFault() == FaultSkipMergeResolution {
		return
	}
	sc := &a.scratch
	sc.mergeEvents = a.ch.AppendResolveMergesAround(sc.mergeEvents, sc.moved[lo:hi])
}

// kernelApply applies decisions [lo, hi): terminations are recorded,
// surviving runs advance with survivor-link rehosting (resolveAlive chases
// hosts removed by this round's merges), and the survivors are appended to
// sc.alive. events is the round's merge-event count, bounding the survivor
// walks.
func (a *Algorithm) kernelApply(lo, hi, events int) {
	sc := &a.scratch
	for i := lo; i < hi; i++ {
		d := &sc.decisions[i]
		run := d.run
		if d.frozen {
			// A sleeping host freezes its runs in place. The host may still
			// have been removed by a merge an active neighbour completed —
			// follow the survivor links like an advance would.
			if !a.ch.Contains(run.Host) {
				host := a.resolveAlive(run.Host, events)
				if host == chain.None {
					sc.ends = append(sc.ends, EndEvent{
						RunID: run.ID, Reason: TermHostRemoved,
						RobotID: a.ch.ID(run.Host), MergeRobot: -1,
					})
					a.anomalies.LostAdvance++
					continue
				}
				run.Host = host
			}
			sc.alive = append(sc.alive, run)
			continue
		}
		if d.terminate {
			sc.ends = append(sc.ends, EndEvent{
				RunID: run.ID, Reason: d.reason,
				RobotID: a.ch.ID(run.Host), MergeRobot: d.mergeRobot,
			})
			if d.reason == TermStuck {
				a.anomalies.StuckRuns++
			}
			continue
		}
		next := a.resolveAlive(d.advanceTo, events)
		if next == chain.None {
			sc.ends = append(sc.ends, EndEvent{
				RunID: run.ID, Reason: TermStuck,
				RobotID: a.ch.ID(run.Host), MergeRobot: -1,
			})
			a.anomalies.LostAdvance++
			continue
		}
		run.Host = next
		run.Mode = d.newMode
		run.TraverseLeft = d.newTraverseLeft
		run.OpOrigin = d.newOpOrigin
		run.OpTarget = d.newOpTarget
		run.PassTarget = d.newPassTarget
		run.PassBudget = d.newPassBudget
		if run.Mode == ModePassing && run.Host == run.PassTarget {
			// Arrived at the passing target corner: resume normal
			// operation (Fig 8 "afterwards, they return to normal").
			run.Mode = ModeNormal
			run.PassTarget = chain.None
			run.PassBudget = 0
		}
		sc.alive = append(sc.alive, run)
	}
}
