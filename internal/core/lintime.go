package core

import (
	"fmt"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
)

// LinTime is the linear-time contraction strategy, the closed-chain
// successor line the strategy arena exists for (Abshoff et al.,
// arXiv:1501.04877 ports the flow to open grid chains; the asymptotically
// optimal variant of arXiv:1602.03303 is the next registry slot). Every
// round, each activated robot clamps its position into the current
// bounding box shrunk by one on every side whose span is at least two;
// co-located chain neighbours then merge, exactly as in the paper's model.
//
// Under FSYNC no conflict handling is needed: per-coordinate clamping is
// 1-Lipschitz and identical for equal coordinates, so when both endpoints
// of an axis-unit edge apply it, the edge stays an axis unit or collapses
// to zero. Under partial activation that argument breaks — a robot
// clamping perpendicular to its edge while the neighbour sleeps would
// stretch the edge diagonally — so non-FSYNC rounds run the same kind of
// edge-guard suppression fixpoint as the paper core's non-FSYNC branch:
// a move is cancelled when either incident edge would leave the chain-edge
// set given the neighbours' (current) decisions. Cancelling can only
// invalidate further moves, never enable one, so iterating to the greatest
// fixpoint is deterministic and order-independent.
//
// The bounding box never grows (all moves point inward), so the safety
// battery of the conformance layer (ring integrity, chain edges, no zero
// edges, bbox monotonicity) holds under every activation scheduler; the
// paper-specific lemma invariants do not apply (oracle.Invariant.PaperOnly).
//
// Each FSYNC round shrinks every span that is >= 2 by two, so gathering
// takes ceil((max span - 1) / 2) rounds — linear in the initial diameter
// and therefore in n, typically far below the paper strategy's round
// count. The price is the information model: the bounding box is global
// knowledge, not a viewing-path-V neighbourhood.
type LinTime struct {
	cfg   Config
	ch    *chain.Chain
	round int

	// Per-round scratch, reused so the steady-state round loop allocates
	// nothing (the repo-wide reuse rules, DESIGN.md §5). targets and
	// moving are the non-FSYNC fixpoint's per-ring-index state.
	moved   []chain.Handle
	events  []chain.MergeEvent
	targets []grid.Vec
	moving  []bool
}

// NewLinTime creates the contraction strategy for the chain (owned by the
// strategy afterwards). The configuration is validated for parity with the
// paper strategy, though none of its fields changes the contraction: the
// per-round work is a single O(n) pass.
func NewLinTime(ch *chain.Chain, cfg Config) (*LinTime, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ch.CheckEdges(); err != nil {
		return nil, err
	}
	return &LinTime{cfg: cfg, ch: ch}, nil
}

// Chain exposes the simulated chain (read-only use expected).
func (lt *LinTime) Chain() *chain.Chain { return lt.ch }

// Config returns the active configuration.
func (lt *LinTime) Config() Config { return lt.cfg }

// Round returns the number of rounds executed so far.
func (lt *LinTime) Round() int { return lt.round }

// Gathered reports whether the chain fits a 2x2 square.
func (lt *LinTime) Gathered() bool { return lt.ch.Gathered() }

// Runs implements Strategy; the contraction has no run machinery.
func (lt *LinTime) Runs() []*Run { return nil }

// Step executes one fully synchronous round.
func (lt *LinTime) Step() (RoundReport, error) { return lt.StepActivated(nil) }

// StepActivated executes one contraction round for the activated robots
// (nil = all). Robots that moved seed the merge resolution, so the
// post-move cleanup is O(#moved + #merges) like the paper core's.
// Contraction hops are reported as RunnerHops: the "robots that moved to
// make progress" column of every consumer keeps one meaning across
// strategies (merge and start hops stay zero — there are no patterns and
// no runs).
func (lt *LinTime) StepActivated(active []bool) (RoundReport, error) {
	ch := lt.ch
	rep := RoundReport{Round: lt.round}
	lt.round++

	b := ch.Bounds()
	minX, maxX := b.Min.X, b.Max.X
	minY, maxY := b.Min.Y, b.Max.Y
	if maxX-minX >= 2 {
		minX, maxX = minX+1, maxX-1
	}
	if maxY-minY >= 2 {
		minY, maxY = minY+1, maxY-1
	}
	clampPos := func(p grid.Vec) grid.Vec {
		return grid.V(clampInt(p.X, minX, maxX), clampInt(p.Y, minY, maxY))
	}

	hs := ch.Handles()
	lt.moved = lt.moved[:0]
	if active == nil {
		// FSYNC fast path: every robot applies the same 1-Lipschitz clamp,
		// so no edge can break and no guard is needed.
		for _, h := range hs {
			p := ch.PosOf(h)
			if q := clampPos(p); q != p {
				ch.SetPos(h, q)
				lt.moved = append(lt.moved, h)
			}
		}
	} else {
		lt.stepSuppressed(active, clampPos)
	}
	rep.RunnerHops = len(lt.moved)

	// Defensive parity with the paper core: the clamp argument above
	// proves edges stay legal, and this is the check that keeps the proof
	// honest against future edits. O(#moved), not O(n).
	if err := ch.CheckEdgesAround(lt.moved); err != nil {
		return rep, fmt.Errorf("core: lintime round %d broke the chain: %w", rep.Round, err)
	}

	lt.events = ch.AppendResolveMergesAround(lt.events[:0], lt.moved)
	rep.MergeEvents = lt.events
	rep.ChainLen = ch.Len()
	rep.Gathered = ch.Gathered()
	return rep, nil
}

// stepSuppressed is the non-FSYNC move phase: compute every activated
// robot's clamp target, then cancel moves until every incident edge is a
// chain edge given the surviving decisions. Cancelling a move can only
// break further movers (their neighbour now stays put), never legalise
// one, so the loop reaches the unique greatest fixpoint in at most
// #movers passes; the surviving moves are applied and recorded in
// lt.moved in ring order.
func (lt *LinTime) stepSuppressed(active []bool, clampPos func(grid.Vec) grid.Vec) {
	ch := lt.ch
	hs := ch.Handles()
	n := len(hs)
	if cap(lt.targets) < n {
		lt.targets = make([]grid.Vec, n)
		lt.moving = make([]bool, n)
	}
	targets, moving := lt.targets[:n], lt.moving[:n]
	movers := 0
	for i, h := range hs {
		p := ch.PosOf(h)
		targets[i], moving[i] = p, false
		if active[i] {
			if q := clampPos(p); q != p {
				targets[i], moving[i] = q, true
				movers++
			}
		}
	}
	for changed := movers > 0; changed; {
		changed = false
		for i := range hs {
			if !moving[i] {
				continue
			}
			prev, next := (i+n-1)%n, (i+1)%n
			if targets[i].Sub(targets[prev]).IsChainEdge() &&
				targets[next].Sub(targets[i]).IsChainEdge() {
				continue
			}
			targets[i] = ch.PosOf(hs[i])
			moving[i] = false
			changed = true
		}
	}
	for i, h := range hs {
		if moving[i] {
			ch.SetPos(h, targets[i])
			lt.moved = append(lt.moved, h)
		}
	}
}

// clampInt clamps v into [lo, hi].
func clampInt(v, lo, hi int) int {
	if v < lo {
		return lo
	}
	if v > hi {
		return hi
	}
	return v
}
