package core

import (
	"gridgather/internal/chain"
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// runDecision is the outcome computed for one run during the compute phase
// of a round. Decisions for all runs are computed against the frozen
// look-phase state and applied together, matching the FSYNC model.
type runDecision struct {
	run *Run

	// frozen marks a run whose host sleeps this round (non-FSYNC
	// schedulers only): no termination check, no hop, no advance — the run
	// state carries over unchanged, except that a host removed by a
	// neighbour's merge is chased along the survivor links.
	frozen bool

	terminate bool
	reason    TerminateReason
	// mergeRobot identifies the merge pattern of a TermMerge (the ID of
	// its first black robot); -1 otherwise.
	mergeRobot int

	// hop is the runner's reshapement hop (zero when none).
	hop grid.Vec
	// advanceTo is the robot the run moves to (the look-phase successor in
	// moving direction); chain.None when terminating.
	advanceTo chain.Handle

	// Post-advance state.
	newMode         RunMode
	newTraverseLeft int
	newOpOrigin     chain.Handle
	newOpTarget     chain.Handle
	newPassTarget   chain.Handle
	newPassBudget   int
}

// passBudgetFor bounds how long a passing operation may take before the
// engine declares the run stuck. The paper bounds passing by 6 rounds
// (proof of Lemma 3); twice the viewing range is a generous safety margin.
func passBudgetFor(cfg Config) int { return 2 * cfg.ViewingPathLength }

// computeRunDecision evaluates the paper's per-round runner rule (Fig 15,
// step 2) for a single run: first the termination conditions of Table 1,
// then run passing (continuation or trigger), then the traverse operations
// (b)/(c), then the reshapement operation (a). It reads the round's merge
// plan and adds its defensive-path counts to the round's anomalies.
func (a *Algorithm) computeRunDecision(run *Run) runDecision {
	d := runDecision{
		run:             run,
		mergeRobot:      -1,
		advanceTo:       chain.None,
		newMode:         run.Mode,
		newTraverseLeft: run.TraverseLeft,
		newOpOrigin:     run.OpOrigin,
		newOpTarget:     run.OpTarget,
		newPassTarget:   run.PassTarget,
		newPassBudget:   run.PassBudget,
	}
	idx := a.ch.IndexOf(run.Host)
	if idx < 0 {
		d.terminate, d.reason = true, TermHostRemoved
		return d
	}
	s := view.At(a.ch, idx, a.cfg.ViewingPathLength, a)
	dir := run.Dir
	scanMax := min(a.cfg.ViewingPathLength, a.ch.Len()-1)

	// Table 1.3 — the runner is part of a merge operation this round.
	if a.plan.Participant(run.Host) {
		d.terminate, d.reason = true, TermMerge
		d.mergeRobot = a.patternOf(idx, run.Dir, a.plan)
		return d
	}

	// The visible end of the quasi line bounds both remaining checks: runs
	// beyond it belong to other quasi lines.
	endOff, endSeen := EndpointAhead(s, dir)

	// Table 1.1 — a sequent (same-direction) run is visible in front on
	// the same quasi line ("sequent" is the paper's term for pipelined
	// runs on one line, §3.3; a co-directional run beyond the line's end
	// is someone else's pipeline).
	seqMax := scanMax
	if endSeen {
		seqMax = min(seqMax, endOff-1)
	}
	for j := 1; j <= seqMax; j++ {
		if s.HasRunAway(j * dir) {
			d.terminate, d.reason = true, TermSequentRun
			return d
		}
	}

	// Table 1.4 / 1.5 — the target corner of the current passing or
	// traverse operation was removed by a merge.
	if run.Mode == ModePassing && run.PassTarget != chain.None && !a.ch.Contains(run.PassTarget) {
		d.terminate, d.reason = true, TermPassTargetGone
		return d
	}
	if run.Mode == ModeTraverse && run.OpTarget != chain.None && !a.ch.Contains(run.OpTarget) {
		d.terminate, d.reason = true, TermOpTargetGone
		return d
	}

	// Table 1.2 — the endpoint of the quasi line is visible in front, with
	// no approaching run at or before it (an approaching run means a merge
	// or a passing is imminent instead; see DESIGN.md §3.4).
	if endSeen {
		window := max(endOff, PassingTriggerDistance)
		window = min(window, scanMax)
		approaching := false
		for j := 1; j <= window; j++ {
			if s.HasRunTowards(j * dir) {
				approaching = true
				break
			}
		}
		if !approaching {
			d.terminate, d.reason = true, TermEndpoint
			return d
		}
	}

	// The run survives this round and moves one robot onward (Lemma 3.1).
	d.advanceTo = s.Robot(dir)

	// Run passing continuation (Fig 8): no hops until the target corner.
	if run.Mode == ModePassing {
		d.newPassBudget--
		if d.newPassBudget < 0 {
			d.terminate, d.reason = true, TermStuck
		}
		return d
	}

	// Run passing trigger: an approaching run within distance 3 (checked
	// before continuing operation (b)/(c) — passing interrupts them,
	// Fig 14).
	trigger := min(PassingTriggerDistance, scanMax)
	for j := 1; j <= trigger; j++ {
		partner := a.approachingRunAt(s, j*dir, dir)
		if partner == nil {
			continue
		}
		d.newMode = ModePassing
		d.newPassBudget = passBudgetFor(a.cfg)
		if run.Mode == ModeTraverse {
			// The interrupted operation keeps its own target corner
			// (Fig 14: "the target of S1 as before is c2").
			d.newPassTarget = run.OpTarget
		} else if partner.Mode == ModeTraverse && partner.OpOrigin != chain.None {
			// The partner is mid-operation: our target is the corner where
			// that operation started (Fig 14: "the target corner of S2 is
			// the corner c1").
			d.newPassTarget = partner.OpOrigin
		} else {
			d.newPassTarget = partner.Host
		}
		d.newTraverseLeft, d.newOpOrigin, d.newOpTarget = 0, chain.None, chain.None
		return d
	}

	// Traverse continuation (operations (b)/(c)): move without hopping.
	if run.Mode == ModeTraverse {
		d.newTraverseLeft--
		if d.newTraverseLeft <= 0 {
			d.newMode = ModeNormal
			d.newTraverseLeft, d.newOpOrigin, d.newOpTarget = 0, chain.None, chain.None
		}
		return d
	}

	// Normal mode: reshapement operations at a corner (Fig 11).
	if !cornerAt(s, dir) {
		// A run should only stand mid-segment transiently; advance without
		// hopping and let the structure ahead decide its fate.
		a.anomalies.NotOnCorner++
		return d
	}
	switch sa := s.AlignedAhead(dir); {
	case sa >= 3:
		// Operation (a): the runner and at least the next three robots lie
		// on a straight line — diagonal hop forward towards the trailing
		// side, shortening the segment.
		d.hop = s.Edge(0, dir).Add(s.Edge(0, -dir))
	case sa == 2:
		// Operation (b): segment of exactly three robots ahead — traverse
		// to the corner after the jog without reshaping (three moves,
		// counting this round's).
		d.newMode = ModeTraverse
		d.newTraverseLeft = OpBTraverse - 1
		d.newOpOrigin = run.Host
		d.newOpTarget = s.Robot(OpBTraverse * dir)
	default:
		// The segment ahead is shorter than any operation handles; the
		// structure is about to resolve via a merge or condition 2.
		a.anomalies.ShortAhead++
	}
	return d
}

// approachingRunAt returns a run on the robot at view offset k moving
// towards the observer (direction opposite to dir), or nil.
func (a *Algorithm) approachingRunAt(s view.Snapshot, k, dir int) *Run {
	hr, ok := a.byHandle.Get(s.Robot(k))
	if !ok {
		return nil
	}
	for _, r := range hr.stored() {
		if r.Dir == -dir && !r.justStarted {
			return r
		}
	}
	return nil
}

// patternOf returns the ID of the first black robot of the merge pattern a
// terminating run died into, identifying "the merge" for the Lemma 2
// accounting. A robot (e.g. a corner) can participate in two patterns; the
// run's own merge is the one extending in its moving direction, so
// patterns containing both the host and its successor in direction dir are
// preferred.
func (a *Algorithm) patternOf(idx, dir int, plan *MergePlan) int {
	n := a.ch.Len()
	covers := func(pat MergePattern, target int) bool {
		for j := -1; j <= pat.Len; j++ {
			if ((pat.FirstBlack+j)%n+n)%n == ((target%n)+n)%n {
				return true
			}
		}
		return false
	}
	fallback := -1
	for _, pat := range plan.Patterns {
		if !covers(pat, idx) {
			continue
		}
		if covers(pat, idx+dir) {
			return a.ch.ID(a.ch.At(pat.FirstBlack))
		}
		if fallback == -1 {
			fallback = a.ch.ID(a.ch.At(pat.FirstBlack))
		}
	}
	return fallback
}
