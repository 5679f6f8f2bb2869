package view

import (
	"fmt"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
)

// Run-direction bits of the ring-indexed run table a Snapshot reads: entry
// i carries RunPlus when the robot at ring index i hosts a visible run
// moving towards increasing chain index, RunMinus for the opposite
// direction. An observer compares them against its own viewing direction,
// so no global orientation is implied.
const (
	RunPlus  byte = 1 << 0
	RunMinus byte = 1 << 1
)

// RunBit returns the run-table bit of a run moving in direction dir
// (+1 or -1).
func RunBit(dir int) byte {
	if dir > 0 {
		return RunPlus
	}
	return RunMinus
}

// Snapshot is one robot's view of the chain: the robots at chain offsets
// -V..+V relative to itself. Offsets wrap around the closed chain, so on a
// short chain the same robot can appear at several offsets, exactly as a
// robot with local vision would perceive it.
type Snapshot struct {
	// order, edges and runs are ring-indexed tables shared by every
	// snapshot of one look phase: the handle at each ring index, the edge
	// leaving it (chain.Handles / chain.Edges) and its run-direction bits
	// (nil = no runs anywhere). A window read is one array load. The
	// tables are valid until the chain moves or splices, which only
	// happens after all views are consumed.
	order  []chain.Handle
	edges  []grid.Vec
	runs   []byte
	center int
	v      int
	n      int
}

// At builds the snapshot of the robot at index center with viewing path
// length v over the chain's ring order and edge cache. runs is the
// ring-indexed run-direction table; nil means no runs are visible.
func At(ch *chain.Chain, center, v int, runs []byte) Snapshot {
	return Over(ch.Handles(), ch.Edges(), center, v, runs)
}

// Over builds a snapshot directly over ring-indexed tables, without a
// *chain.Chain behind them: the one snapshot constructor, which At wraps
// for the engine's chain and which alternate chain backends call directly
// — the conformance oracle's naive model (internal/oracle) materialises
// its pointer ring into plain slices each round and evaluates the same
// pure decision predicates the engine uses, so engine and model cannot
// drift apart at the rule level. order[i] is the handle at cyclic index
// i, edges[i] the displacement from robot i to robot i+1, and runs[i]
// (when runs is non-nil) the RunPlus/RunMinus bits of robot i.
func Over(order []chain.Handle, edges []grid.Vec, center, v int, runs []byte) Snapshot {
	n := len(order)
	return Snapshot{
		order:  order,
		edges:  edges,
		runs:   runs,
		center: chain.WrapIndex(center, n),
		v:      v,
		n:      n,
	}
}

// Recenter moves the snapshot to the robot at ring index center, keeping
// its tables and viewing range. A look phase that evaluates every robot
// over the same tables builds one snapshot and re-centres it per robot.
func (s *Snapshot) Recenter(center int) { s.center = chain.WrapIndex(center, s.n) }

// idx maps a window offset to a ring index. Inside one wrap of the ring
// it is a compare and an add; multi-wrap offsets (a viewing range beyond a
// tiny chain's length) take the out-of-line chain.WrapIndex.
func (s *Snapshot) idx(k int) int {
	if i := s.center + k; uint(i) < uint(s.n) {
		return i
	}
	return s.wrap(k)
}

// wrap is idx's chain.WrapIndex path, kept out of line so that idx stays
// cheap enough to inline into every window accessor.
//
//go:noinline
func (s *Snapshot) wrap(k int) int { return chain.WrapIndex(s.center+k, s.n) }

// V returns the viewing path length.
func (s *Snapshot) V() int { return s.v }

// check panics when an offset outside the viewing range is requested —
// that would be a non-local rule, which the model forbids.
func (s *Snapshot) check(k int) {
	if uint(k+s.v) > uint(2*s.v) {
		s.outOfView(k)
	}
}

// outOfView raises check's panic, out of line for the same reason as wrap.
//
//go:noinline
func (s *Snapshot) outOfView(k int) {
	panic(fmt.Sprintf("view: offset %d outside viewing path length %d (non-local rule)", k, s.v))
}

// Rel returns the position of the robot at chain offset k relative to the
// observing robot: the sum of the edges between them. Rel(0) is always the
// zero vector.
func (s *Snapshot) Rel(k int) grid.Vec {
	s.check(k)
	var r grid.Vec
	for j := 0; j < k; j++ {
		r = r.Add(s.edges[s.idx(j)])
	}
	for j := 0; j > k; j-- {
		r = r.Sub(s.edges[s.idx(j-1)])
	}
	return r
}

// Edge returns the chain edge leaving offset k in direction d = +-1, i.e.
// Rel(k+d) - Rel(k). Both offsets must lie within the viewing range.
func (s *Snapshot) Edge(k, d int) grid.Vec {
	j := k // the edge runs from offset j to j+1
	if d < 0 {
		j--
	}
	if uint(j+s.v) >= uint(2*s.v) {
		s.check(k)
		s.outOfView(k + d)
	}
	e := s.edges[s.idx(j)]
	if d < 0 {
		e = e.Neg()
	}
	return e
}

// HasRunTowards reports whether the robot at offset k carries a run whose
// moving direction points towards the observer (i.e. opposite to the sign
// of k). For k = 0 it reports false.
func (s *Snapshot) HasRunTowards(k int) bool {
	s.check(k)
	return s.runs != nil && k != 0 && s.runs[s.idx(k)]&RunBit(-k) != 0
}

// HasRunAway reports whether the robot at offset k carries a run moving
// away from the observer (same sign as k).
func (s *Snapshot) HasRunAway(k int) bool {
	s.check(k)
	return s.runs != nil && k != 0 && s.runs[s.idx(k)]&RunBit(k) != 0
}

// Robot exposes the handle of the robot at offset k for engine bookkeeping
// (run ownership hand-off and merge invalidation). Decision rules must not
// use robot identity; see the package comment.
func (s *Snapshot) Robot(k int) chain.Handle {
	s.check(k)
	return s.order[s.idx(k)]
}

// ChainLen returns the current chain length. A robot does not know n, but
// the snapshot uses it to recognise wrap-around in tests; rules must not
// branch on it beyond guarding degenerate tiny chains, which is equivalent
// to seeing one's own chain close within the viewing range.
func (s *Snapshot) ChainLen() int { return s.n }

// AlignedAhead returns the number of robots j >= 1 such that the robots at
// offsets 0, d, 2d, …, jd form a straight segment of identical unit edges
// (the "next j robots on a straight line" of the paper's run operations).
// It scans at most the viewing range and at most ChainLen()-1 robots.
func (s *Snapshot) AlignedAhead(d int) int {
	maxScan := min(s.v, s.n-1)
	if maxScan < 1 {
		return 0
	}
	s.check(maxScan * d) // bounds every offset the scan reads
	// Compare raw ring edges: for d < 0 every edge read is negated, which
	// preserves equality.
	step, at := 1, 0
	if d < 0 {
		step, at = -1, -1
	}
	first := s.edges[s.idx(at)]
	if !first.IsAxisUnit() {
		return 0
	}
	count := 1
	for at += step; count < maxScan && s.edges[s.idx(at)] == first; at += step {
		count++
	}
	return count
}
