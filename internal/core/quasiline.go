package core

import (
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// This file implements the quasi-line geometry of the paper (Definition 1,
// Fig 10): a horizontal quasi line alternates straight runs of >= 3 robots
// with single perpendicular edges. Everything here is phrased relative to a
// local view and is invariant under the grid symmetries and under flipping
// the chain direction — robots have no compass and no IDs.

// StartSpec describes the run(s) a robot may start this round (Fig 5).
type StartSpec struct {
	// Dirs are the chain directions of the new runs: one entry for a
	// stairway start (Fig 5.i), two for a corner start (Fig 5.ii).
	Dirs []int
	// Kind distinguishes the two patterns.
	Kind StartKind
	// Hop is the corner-cutting diagonal hop performed once at a corner
	// start (operation (c) of Fig 11); zero for stairway starts.
	Hop grid.Vec
}

// alignedTriple reports whether the robot and its next two chain neighbours
// in direction d form a straight segment (the "first three robots aligned"
// requirement of Definition 1 on the quasi line containing the observer).
func alignedTriple(s *view.Snapshot, d int) bool {
	if min(s.V(), s.ChainLen()-1) < 2 {
		return false
	}
	e := s.Edge(0, d)
	return e.IsAxisUnit() && s.Edge(d, d) == e
}

// DetectStart checks the run start patterns of Fig 5 at the observing
// robot. It reports the runs to start, or ok = false if no pattern matches.
//
//   - Corner start (Fig 5.ii): the robot is the shared endpoint of a
//     straight segment of >= 3 robots on each side, the two segments being
//     perpendicular — the meeting point of a horizontal and a vertical
//     quasi line. Two runs start, one along each line, and the robot
//     performs the corner-cutting diagonal hop.
//   - Stairway start (Fig 5.i): the robot heads a straight segment of >= 3
//     robots on one side while the structure behind it breaks the quasi
//     line within three robots (a perpendicular edge followed by a straight
//     run of exactly two robots): the robot is a quasi-line endpoint
//     adjacent to a stairway. One run starts, moving along the quasi line.
//
// Chains shorter than MinChainForRuns never start runs: the inspected
// windows would self-overlap and such chains always shorten by merges
// alone.
func DetectStart(s *view.Snapshot) (StartSpec, bool) {
	if s.ChainLen() < MinChainForRuns {
		return StartSpec{}, false
	}
	aheadPlus := alignedTriple(s, +1)
	aheadMinus := alignedTriple(s, -1)
	if !aheadPlus && !aheadMinus {
		return StartSpec{}, false // both patterns need a straight side
	}
	ePlus := s.Edge(0, +1)
	eMinus := s.Edge(0, -1)

	// Corner start: straight >= 3 on both sides, perpendicular.
	if aheadPlus && aheadMinus && ePlus.Perp(eMinus) {
		return StartSpec{
			Dirs: []int{+1, -1},
			Kind: StartCorner,
			Hop:  ePlus.Add(eMinus),
		}, true
	}

	// Stairway start, trying each straight side as the quasi-line side.
	if aheadPlus {
		if spec, ok := stairwayStart(s, +1); ok {
			return spec, true
		}
	}
	if aheadMinus {
		return stairwayStart(s, -1)
	}
	return StartSpec{}, false
}

// stairwayStart checks the Fig 5.(i) pattern with the quasi line extending
// in direction d and the stairway behind (-d). The caller has established
// alignedTriple(s, d).
func stairwayStart(s *view.Snapshot, d int) (StartSpec, bool) {
	axis := s.Edge(0, d)
	b1 := s.Edge(0, -d) // self -> first robot behind
	if !b1.Perp(axis) {
		return StartSpec{}, false
	}
	b2 := s.Edge(-d, -d) // first -> second robot behind
	if !b2.Parallel(axis) {
		// Straight on (handled as corner start above), a reversal (a merge
		// pattern, which suppresses starts), or a second perpendicular
		// edge: not a stairway.
		return StartSpec{}, false
	}
	b3 := s.Edge(-2*d, -d) // second -> third robot behind
	if b3 == b2 {
		// The run behind continues straight: >= 3 robots, so the quasi
		// line continues through an interior jog — not an endpoint.
		return StartSpec{}, false
	}
	return StartSpec{Dirs: []int{d}, Kind: StartStairway}, true
}

// EndpointAhead scans the chain in front of a run (direction d) and reports
// whether the quasi line the run is working on provably ends within the
// viewing range. When it does, endOffset is the chain offset of the last
// robot still on the quasi line (the final corner); the caller combines
// this with run visibility to evaluate termination condition 2 of Table 1.
//
// The parser accepts the structure of Definition 1, tolerant of where the
// run currently stands (on a corner, mid-segment, or about to cross a jog):
// maximal groups of identical edges must alternate between the line axis —
// all in one direction, with >= 2 edges except possibly the truncated first
// and last groups — and single perpendicular jog edges. Any confirmed
// deviation (a perpendicular double edge, a straight group of one edge
// strictly inside, a reversal or switchback) marks the endpoint.
//
// The parse is a single streaming pass that holds only the current group
// and returns at the first confirmed deviation, so it reads O(distance to
// the quasi-line end) edges and allocates nothing, however long the view:
// the unbounded Lemma 1/2 pair walk (Algorithm.pairStarts) costs one quasi
// line per start, not one chain.
func EndpointAhead(s *view.Snapshot, d int) (endOffset int, ok bool) {
	maxEdges := min(s.V(), s.ChainLen()-1)
	if maxEdges < 2 {
		return 0, false
	}
	// Determine the line axis the run is travelling on, disambiguated by
	// the trailing edge: mid-segment the leading and trailing edges are
	// parallel; on a corner the leading edge opens the next segment; just
	// before a jog the leading edge is the jog and the axis continues with
	// the edge after it.
	e1 := s.Edge(0, d)
	e2 := s.Edge(d, d)
	eT := s.Edge(0, -d)
	axis := e1
	if e1.Perp(eT) && e2 != e1 && e2.Parallel(eT) {
		axis = e2 // standing before a jog: e1 is the jog edge
	}
	lineDir := grid.Vec{}
	if e1.Parallel(axis) {
		lineDir = e1
	} else if e2.Parallel(axis) {
		lineDir = e2
	}

	// Walk the maximal groups of identical edges along the known axis,
	// judging each rule as soon as the edges read so far decide it.
	// Straight groups must keep lineDir and span >= 2 edges (except the
	// truncated first and last); perpendicular jog groups must be single
	// edges between straight groups. The first confirmed deviation marks
	// the quasi-line end: the last robot of the last straight group that
	// closed. lineDir is set whenever the axis is an axis unit, and the
	// first group opens with e1, which is lineDir when it lies on the
	// axis, so only later groups can break a rule on opening.
	lastGood := 0
	cur, curLen := e1, 1 // the current group: direction and edge count
	straight := e1.Parallel(axis)
	for j := 1; j < maxEdges; j++ {
		e := s.Edge(j*d, d)
		if e == cur {
			curLen++
			if !straight && curLen == 2 {
				return lastGood, true // a perpendicular double edge
			}
			continue
		}
		// The current group closes at robot j with a successor, so it is
		// not the final (possibly truncated) group.
		if straight {
			if curLen == 1 && j > 1 {
				// A straight group of a single edge strictly inside the
				// structure: a two-robot run, i.e. a stairway step.
				return lastGood, true
			}
			lastGood = j
		}
		prevStraight := straight
		cur, curLen, straight = e, 1, e.Parallel(axis)
		if straight && e != lineDir {
			// Reversal or switchback: a merge shape, not a quasi line.
			return lastGood, true
		}
		if !straight && !prevStraight {
			return lastGood, true // two jogs in a row
		}
	}
	// No confirmed violation within view; the final (possibly truncated)
	// group may continue beyond the horizon.
	return 0, false
}

// cornerAt reports whether the robot at the view's centre currently stands
// on a corner with respect to travel direction d: its trailing edge is
// perpendicular to its leading edge. Runner operations (a) and (b) act only
// on corners.
func cornerAt(s *view.Snapshot, d int) bool {
	return s.Edge(0, -d).Perp(s.Edge(0, d))
}
