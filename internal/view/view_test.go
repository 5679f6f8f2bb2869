package view

import (
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
)

func ring(t *testing.T, w, h int) *chain.Chain {
	t.Helper()
	var ps []grid.Vec
	for x := 0; x < w; x++ {
		ps = append(ps, grid.V(x, 0))
	}
	for y := 0; y < h; y++ {
		ps = append(ps, grid.V(w, y))
	}
	for x := w; x > 0; x-- {
		ps = append(ps, grid.V(x, h))
	}
	for y := h; y > 0; y-- {
		ps = append(ps, grid.V(0, y))
	}
	c, err := chain.New(ps)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestRelIsRelative(t *testing.T) {
	c := ring(t, 6, 4)
	for center := 0; center < c.Len(); center += 5 {
		s := At(c, center, 11, nil)
		if s.Rel(0) != grid.Zero {
			t.Fatalf("Rel(0) = %v", s.Rel(0))
		}
		for k := -11; k <= 11; k++ {
			want := c.Pos(center + k).Sub(c.Pos(center))
			if got := s.Rel(k); got != want {
				t.Fatalf("center %d offset %d: %v != %v", center, k, got, want)
			}
		}
	}
}

func TestLocalityEnforced(t *testing.T) {
	c := ring(t, 10, 10)
	s := At(c, 0, 11, nil)
	defer func() {
		if recover() == nil {
			t.Error("offset beyond the viewing path length must panic")
		}
	}()
	s.Rel(12)
}

func TestLocalityEnforcedNegative(t *testing.T) {
	c := ring(t, 10, 10)
	s := At(c, 0, 11, nil)
	defer func() {
		if recover() == nil {
			t.Error("negative offset beyond the viewing path length must panic")
		}
	}()
	s.HasRunAway(-12)
}

func TestEdge(t *testing.T) {
	c := ring(t, 6, 4)
	s := At(c, 0, 11, nil)
	if got := s.Edge(0, +1); got != grid.East {
		t.Errorf("Edge(0,+1) = %v", got)
	}
	if got := s.Edge(0, -1); got != grid.North {
		// Robot before (0,0) on the ring is (0,1).
		t.Errorf("Edge(0,-1) = %v", got)
	}
	if got := s.Edge(2, 1); got != grid.East {
		t.Errorf("Edge(2,1) = %v", got)
	}
}

func TestWrapAroundShortChain(t *testing.T) {
	c := ring(t, 2, 1) // 6 robots, shorter than the viewing range
	s := At(c, 0, 11, nil)
	// Offset 6 wraps to the robot itself.
	if s.Rel(6) != grid.Zero {
		t.Errorf("wrapped Rel(6) = %v", s.Rel(6))
	}
	if s.Robot(6) != s.Robot(0) {
		t.Error("wrapped Robot(6) must be the observer")
	}
}

// runTable builds a ring-indexed run-direction table marking the given
// ring indices with run directions.
func runTable(c *chain.Chain, runs map[int][]int) []byte {
	t := make([]byte, c.Len())
	for i, dirs := range runs {
		for _, d := range dirs {
			t[i] |= RunBit(d)
		}
	}
	return t
}

func TestRunVisibility(t *testing.T) {
	c := ring(t, 8, 8)
	runs := runTable(c, map[int][]int{
		3: {+1},
		5: {-1},
		7: {+1, -1},
	})
	s := At(c, 0, 11, runs)
	if !s.HasRunAway(3) {
		t.Error("run at +3 moving +1 must read as moving away")
	}
	if s.HasRunTowards(3) {
		t.Error("run at +3 moving +1 is not approaching")
	}
	if !s.HasRunTowards(5) {
		t.Error("run at +5 moving -1 must read as approaching")
	}
	if !s.HasRunTowards(7) || !s.HasRunAway(7) {
		t.Error("robot with two runs must read as both")
	}
	if s.HasRunTowards(0) || s.HasRunAway(0) {
		t.Error("offset 0 carries no directional reading")
	}
	// Looking backwards: the run at +3 seen from robot 6 is at offset -3
	// and moves towards larger indices, i.e. towards robot 6: approaching.
	s6 := At(c, 6, 11, runs)
	if !s6.HasRunTowards(-3) {
		t.Error("run at -3 moving +1 must read as approaching")
	}
	if s6.HasRunAway(-3) {
		t.Error("run at -3 moving +1 does not move away from robot 6")
	}
}

func TestAlignedAhead(t *testing.T) {
	c := ring(t, 8, 3)
	s := At(c, 0, 11, nil)
	// Bottom row has 9 robots: from (0,0), 8 are aligned ahead.
	if got := s.AlignedAhead(+1); got != 8 {
		t.Errorf("AlignedAhead(+1) = %d, want 8", got)
	}
	// Behind (0,0) the left column rises: 3 aligned.
	if got := s.AlignedAhead(-1); got != 3 {
		t.Errorf("AlignedAhead(-1) = %d, want 3", got)
	}
	// From a robot one before the corner.
	s = At(c, 7, 11, nil)
	if got := s.AlignedAhead(+1); got != 1 {
		t.Errorf("AlignedAhead from pre-corner = %d, want 1", got)
	}
}

// TestEmptyRunsLocator checks that a nil run table reads as no runs
// anywhere, and that an all-zero table reads the same.
func TestEmptyRunsLocator(t *testing.T) {
	c := ring(t, 4, 4)
	for _, tab := range [][]byte{nil, make([]byte, c.Len())} {
		s := At(c, 0, 11, tab)
		for k := -4; k <= 4; k++ {
			if s.HasRunAway(k) || s.HasRunTowards(k) {
				t.Fatalf("table %v: offset %d reports a run", tab, k)
			}
		}
	}
}

// TestEdgeLocalityEnforced pins the locality guard of the edge and run
// accessors: an edge with either end past the viewing range panics.
func TestEdgeLocalityEnforced(t *testing.T) {
	c := ring(t, 10, 10)
	s := At(c, 0, 11, runTable(c, nil))
	for name, read := range map[string]func(){
		"Edge(11,+1)":       func() { s.Edge(11, +1) },
		"Edge(-11,-1)":      func() { s.Edge(-11, -1) },
		"Edge(12,-1)":       func() { s.Edge(12, -1) },
		"HasRunTowards(12)": func() { s.HasRunTowards(12) },
		"Robot(-12)":        func() { s.Robot(-12) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s must panic", name)
				}
			}()
			read()
		}()
	}
	// The edges at the rim of the range are visible.
	if s.Edge(10, +1) != s.Rel(11).Sub(s.Rel(10)) || s.Edge(-10, -1) != s.Rel(-11).Sub(s.Rel(-10)) {
		t.Error("rim edges misread")
	}
}
