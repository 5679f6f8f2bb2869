package core

import (
	"fmt"
	"math/rand"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// squareRing returns the positions of an s x s square ring (4s robots),
// counterclockwise from (0,0). For s >= 11 it is a Mergeless Chain.
func squareRing(s int) []grid.Vec {
	var ps []grid.Vec
	for x := 0; x < s; x++ {
		ps = append(ps, grid.V(x, 0))
	}
	for y := 0; y < s; y++ {
		ps = append(ps, grid.V(s, y))
	}
	for x := s; x > 0; x-- {
		ps = append(ps, grid.V(x, s))
	}
	for y := s; y > 0; y-- {
		ps = append(ps, grid.V(0, y))
	}
	return ps
}

// stairwayChain returns a 12-robot closed chain whose robot 0 matches the
// Fig 5.(i) stairway start pattern in direction +1.
func stairwayChain(t *testing.T) *chain.Chain {
	return mustChain(t,
		grid.V(2, 2), grid.V(3, 2), grid.V(4, 2), // e, a1, a2 (quasi line)
		grid.V(5, 2), grid.V(5, 3), grid.V(5, 4),
		grid.V(4, 4), grid.V(3, 4), grid.V(2, 4), grid.V(1, 4), // roof
		grid.V(1, 3), grid.V(2, 3), // b2, b1 (stairway behind e)
	)
}

// jogChain is like stairwayChain but the structure behind robot 0 continues
// straight for three robots: an interior jog, not an endpoint.
func jogChain(t *testing.T) *chain.Chain {
	return mustChain(t,
		grid.V(2, 2), grid.V(3, 2), grid.V(4, 2),
		grid.V(4, 3), grid.V(4, 4),
		grid.V(3, 4), grid.V(2, 4), grid.V(1, 4), grid.V(0, 4),
		grid.V(0, 3), grid.V(1, 3), grid.V(2, 3), // b3, b2, b1: straight run
	)
}

func snap(c *chain.Chain, i int) *view.Snapshot {
	s := view.At(c, i, DefaultViewingPathLength, nil)
	return &s
}

func TestDetectStartCorner(t *testing.T) {
	c := mustChain(t, squareRing(12)...)
	// Robot 0 at (0,0): horizontal arm ahead (+1), vertical arm behind
	// (-1): the Fig 5.(ii) corner — two runs and the corner-cut hop.
	spec, ok := DetectStart(snap(c, 0))
	if !ok {
		t.Fatal("corner start not detected at (0,0)")
	}
	if spec.Kind != StartCorner || len(spec.Dirs) != 2 {
		t.Fatalf("wrong spec: %+v", spec)
	}
	if spec.Hop != grid.V(1, 1) {
		t.Errorf("corner-cut hop = %v, want (1,1) (into the square)", spec.Hop)
	}
	// All four corners detect; mid-side robots do not.
	for _, idx := range []int{12, 24, 36} {
		if _, ok := DetectStart(snap(c, idx)); !ok {
			t.Errorf("corner at index %d not detected", idx)
		}
	}
	for _, idx := range []int{3, 17, 30} {
		if spec, ok := DetectStart(snap(c, idx)); ok {
			t.Errorf("mid-side robot %d must not start runs, got %+v", idx, spec)
		}
	}
}

func TestDetectStartStairway(t *testing.T) {
	c := stairwayChain(t)
	spec, ok := DetectStart(snap(c, 0))
	if !ok {
		t.Fatal("stairway start not detected")
	}
	if spec.Kind != StartStairway {
		t.Fatalf("kind = %v, want stairway", spec.Kind)
	}
	if len(spec.Dirs) != 1 || spec.Dirs[0] != +1 {
		t.Fatalf("dirs = %v, want [+1]", spec.Dirs)
	}
	if !spec.Hop.IsZero() {
		t.Errorf("stairway starts do not hop, got %v", spec.Hop)
	}
}

func TestDetectStartInteriorJogSuppressed(t *testing.T) {
	c := jogChain(t)
	if spec, ok := DetectStart(snap(c, 0)); ok {
		t.Errorf("interior jog must not start runs, got %+v", spec)
	}
}

func TestDetectStartTinyChainSuppressed(t *testing.T) {
	c := mustChain(t,
		grid.V(0, 0), grid.V(1, 0), grid.V(1, 1), grid.V(0, 1))
	for i := 0; i < c.Len(); i++ {
		if _, ok := DetectStart(snap(c, i)); ok {
			t.Errorf("chains below MinChainForRuns must not start runs (robot %d)", i)
		}
	}
}

func TestDetectStartEquivariance(t *testing.T) {
	base := stairwayChain(t).Positions()
	for _, tr := range grid.D4 {
		mapped := make([]grid.Vec, len(base))
		for i, p := range base {
			mapped[i] = tr.Apply(p)
		}
		c, err := chain.New(mapped)
		if err != nil {
			t.Fatalf("transform %+v invalid: %v", tr, err)
		}
		spec, ok := DetectStart(snap(c, 0))
		if !ok {
			t.Errorf("transform %+v: stairway start lost", tr)
			continue
		}
		if spec.Kind != StartStairway || len(spec.Dirs) != 1 || spec.Dirs[0] != +1 {
			t.Errorf("transform %+v: wrong spec %+v", tr, spec)
		}
	}
}

func TestDetectStartReversedChain(t *testing.T) {
	// Chain direction is arbitrary: reversing the robot order must still
	// detect the pattern (with the direction flipped).
	base := stairwayChain(t).Positions()
	rev := make([]grid.Vec, len(base))
	for i, p := range base {
		rev[(len(base)-i)%len(base)] = p
	}
	c, err := chain.New(rev)
	if err != nil {
		t.Fatal(err)
	}
	spec, ok := DetectStart(snap(c, 0))
	if !ok {
		t.Fatal("stairway start lost under chain reversal")
	}
	if len(spec.Dirs) != 1 || spec.Dirs[0] != -1 {
		t.Fatalf("dirs = %v, want [-1]", spec.Dirs)
	}
}

func TestEndpointAheadAtSquareCorner(t *testing.T) {
	c := mustChain(t, squareRing(12)...)
	// From a robot on the bottom row, looking towards the corner at
	// (12,0) (index 12): the quasi line ends there (the right side is a
	// perpendicular run of >= 2 edges).
	for _, tc := range []struct {
		idx      int
		wantOff  int
		wantSeen bool
	}{
		{8, 4, true},  // corner 4 ahead: endpoint confirmed
		{11, 1, true}, // corner adjacent
		{2, 0, false}, // corner 10 ahead + 2 confirm edges > horizon 11: not confirmed
		{1, 0, false}, // far beyond horizon
	} {
		off, ok := EndpointAhead(snap(c, tc.idx), +1)
		if ok != tc.wantSeen {
			t.Errorf("idx %d: seen=%v, want %v", tc.idx, ok, tc.wantSeen)
			continue
		}
		if ok && off != tc.wantOff {
			t.Errorf("idx %d: endpoint offset %d, want %d", tc.idx, off, tc.wantOff)
		}
	}
}

func TestEndpointAheadJogContinues(t *testing.T) {
	// A long quasi line with interior jogs: no endpoint within view.
	var ps []grid.Vec
	// Eastward staircase with 4-robot runs and single jogs up, then close
	// with a big arc; only the first robots' forward view matters.
	x, y := 0, 0
	for seg := 0; seg < 4; seg++ {
		for i := 0; i < 4; i++ {
			ps = append(ps, grid.V(x, y))
			x++
		}
		ps = append(ps, grid.V(x, y))
		y++ // jog up: next segment one row higher
	}
	// Close the loop high above so the return path is far outside the
	// viewing range of robot 0.
	top := y + 8
	ps = append(ps, grid.V(x, y))
	for yy := y + 1; yy <= top; yy++ {
		ps = append(ps, grid.V(x, yy))
	}
	for xx := x - 1; xx >= 0; xx-- {
		ps = append(ps, grid.V(xx, top))
	}
	for yy := top - 1; yy >= 1; yy-- {
		ps = append(ps, grid.V(0, yy))
	}
	if len(ps)%2 != 0 {
		// keep even length by extending the left descent with a detour
		ps = append(ps, grid.V(0, 1)) // placeholder, replaced below
		ps = ps[:len(ps)-1]
		ps = append(ps[:len(ps)-1], grid.V(-1, 1), grid.V(-1, 0), grid.V(0, 0))
		ps = ps[:len(ps)-1]
	}
	c, err := chain.New(ps)
	if err != nil {
		t.Skipf("construction imbalance: %v", err)
	}
	s := view.At(c, 0, 11, nil)
	if off, ok := EndpointAhead(&s, +1); ok {
		t.Errorf("quasi line with jogs reported endpoint at %d", off)
	}
}

func TestEndpointAheadReversal(t *testing.T) {
	// A spike three robots ahead is a quasi-line violation: endpoint at
	// the last straight robot.
	c := mustChain(t,
		grid.V(0, 0), grid.V(1, 0), grid.V(2, 0), grid.V(3, 0),
		grid.V(2, 0), grid.V(2, 1), grid.V(1, 1), grid.V(0, 1))
	off, ok := EndpointAhead(snap(c, 0), +1)
	if !ok {
		t.Fatal("reversal ahead not detected")
	}
	if off != 3 {
		t.Errorf("endpoint offset %d, want 3", off)
	}
}

func TestEndpointAheadPureStairway(t *testing.T) {
	// Standing on pure alternation: the quasi line has ended right here.
	c := mustChain(t,
		grid.V(0, 0), grid.V(1, 0), grid.V(1, 1), grid.V(2, 1),
		grid.V(2, 2), grid.V(3, 2), grid.V(3, 3), grid.V(4, 3),
		grid.V(4, 4), grid.V(3, 4), grid.V(2, 4), grid.V(1, 4),
		grid.V(0, 4), grid.V(0, 3), grid.V(0, 2), grid.V(0, 1))
	off, ok := EndpointAhead(snap(c, 0), +1)
	if !ok {
		t.Fatal("pure stairway must report an immediate endpoint")
	}
	if off > 1 {
		t.Errorf("endpoint offset %d, want <= 1", off)
	}
}

func TestCornerAt(t *testing.T) {
	c := mustChain(t, squareRing(12)...)
	if !cornerAt(snap(c, 0), +1) || !cornerAt(snap(c, 12), +1) {
		t.Error("ring corners not recognised")
	}
	if cornerAt(snap(c, 5), +1) {
		t.Error("mid-side robot is not a corner")
	}
}

// endpointAheadGrouped is the referee for EndpointAhead: the two-pass form
// of the parser, which first groups every edge in view into maximal runs
// of identical edges and then walks the groups, at O(view) time and space.
// The streaming EndpointAhead must return the same (endOffset, ok) for
// every snapshot. The oracle shares EndpointAhead with the engine
// (DESIGN.md §7), so lockstep conformance cannot referee a slip in the
// parser; these differential tests do.
func endpointAheadGrouped(s *view.Snapshot, d int) (endOffset int, ok bool) {
	maxEdges := min(s.V(), s.ChainLen()-1)
	if maxEdges < 2 {
		return 0, false
	}
	e1 := s.Edge(0, d)
	e2 := s.Edge(d, d)
	eT := s.Edge(0, -d)
	axis := e1
	if e1.Perp(eT) && e2 != e1 && e2.Parallel(eT) {
		axis = e2
	}
	sameAxis := func(v grid.Vec) bool { return v.Parallel(axis) }

	type group struct {
		dir      grid.Vec
		len      int
		endRobot int
	}
	var groups []group
	for j := 0; j < maxEdges; j++ {
		e := s.Edge(j*d, d)
		if len(groups) > 0 && groups[len(groups)-1].dir == e {
			groups[len(groups)-1].len++
			groups[len(groups)-1].endRobot = j + 1
		} else {
			groups = append(groups, group{dir: e, len: 1, endRobot: j + 1})
		}
	}

	lineDir := grid.Vec{}
	if sameAxis(e1) {
		lineDir = e1
	} else if sameAxis(e2) {
		lineDir = e2
	}
	lastGood := 0
	prevStraight := false
	for i, g := range groups {
		last := i == len(groups)-1
		switch {
		case sameAxis(g.dir):
			if !lineDir.IsZero() && g.dir != lineDir {
				return lastGood, true
			}
			lineDir = g.dir
			if i > 0 && g.len == 1 && !last {
				return lastGood, true
			}
			lastGood = g.endRobot
			prevStraight = true
		default:
			if g.len >= 2 {
				return lastGood, true
			}
			if i > 0 && !prevStraight {
				return lastGood, true
			}
			prevStraight = false
		}
	}
	return 0, false
}

// checkEndpointAheadAgainstGrouped compares the streaming parser with the
// referee at every index of c, in both directions, for each viewing path
// length in vs. It returns the number of snapshots compared.
func checkEndpointAheadAgainstGrouped(t *testing.T, label string, c *chain.Chain, vs []int) int {
	t.Helper()
	compared := 0
	for _, v := range vs {
		for i := 0; i < c.Len(); i++ {
			s := view.At(c, i, v, nil)
			for _, d := range [2]int{+1, -1} {
				gotOff, gotOK := EndpointAhead(&s, d)
				wantOff, wantOK := endpointAheadGrouped(&s, d)
				if gotOff != wantOff || gotOK != wantOK {
					t.Fatalf("%s: n=%d idx=%d V=%d d=%+d: EndpointAhead = (%d, %v), grouped referee = (%d, %v)",
						label, c.Len(), i, v, d, gotOff, gotOK, wantOff, wantOK)
				}
				compared++
			}
		}
	}
	return compared
}

// TestEndpointAheadMatchesGrouped is the exhaustive differential check of
// the streaming parser: every generator family at several sizes, stepped
// through its first rounds so the chains carry the jogs, stairways and
// merge shapes the gather produces, every index, both directions, and the
// viewing path lengths the engine uses (the paper's V = 11, the unbounded
// pair walk's n-1) plus the degenerate and over-long ones.
func TestEndpointAheadMatchesGrouped(t *testing.T) {
	const rounds = 40
	rng := rand.New(rand.NewSource(12))
	sizes := []int{12, 40, 96, 200}
	if testing.Short() {
		sizes = sizes[:2]
	}
	compared := 0
	for _, name := range generate.Names() {
		for _, size := range sizes {
			ch, err := generate.Named(name, size, rng)
			if err != nil {
				t.Fatalf("%s/%d: %v", name, size, err)
			}
			alg, err := New(ch, DefaultConfig())
			if err != nil {
				t.Fatalf("%s/%d: %v", name, size, err)
			}
			for r := 0; r < rounds && !alg.Gathered(); r++ {
				c := alg.Chain()
				n := c.Len()
				label := fmt.Sprintf("%s/%d round %d", name, size, r)
				compared += checkEndpointAheadAgainstGrouped(t, label, c, []int{1, 2, 3, DefaultViewingPathLength, n - 1, n + 3})
				if _, err := alg.Step(); err != nil {
					t.Fatalf("%s/%d round %d: %v", name, size, r, err)
				}
			}
		}
	}
	t.Logf("%d snapshots agree", compared)
}

// fuzzMaxSteps caps the chain size FuzzEndpointAhead decodes: the parser's
// structure repeats every few edges, so longer inputs add wall-clock, not
// coverage.
const fuzzMaxSteps = 512

// FuzzEndpointAhead is the open-ended differential check: arbitrary bytes
// decode into a valid closed chain (generate.FromBytes) and the streaming
// parser must agree with the grouped referee at the selected index and
// direction, for the selected viewing path length and for the unbounded
// view of the pair walk. The committed corpus (testdata/fuzz) holds the
// start chain of every generator family at size 48 and, where it still
// encodes as a unit-step walk, the same chain after 12 gather rounds.
func FuzzEndpointAhead(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte, idx uint16, v uint8, back bool) {
		if len(data) > fuzzMaxSteps {
			data = data[:fuzzMaxSteps]
		}
		c, err := generate.FromBytes(data)
		if err != nil {
			t.Skip() // only the empty input
		}
		n := c.Len()
		d := +1
		if back {
			d = -1
		}
		for _, vv := range [2]int{int(v), n - 1} {
			s := view.At(c, int(idx)%n, vv, nil)
			gotOff, gotOK := EndpointAhead(&s, d)
			wantOff, wantOK := endpointAheadGrouped(&s, d)
			if gotOff != wantOff || gotOK != wantOK {
				t.Fatalf("n=%d idx=%d V=%d d=%+d: EndpointAhead = (%d, %v), grouped referee = (%d, %v)\nsteps: %v",
					n, int(idx)%n, vv, d, gotOff, gotOK, wantOff, wantOK, generate.ToBytes(c))
			}
		}
	})
}
