package generate

import (
	"fmt"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
)

// This file is the fuzzing front end of the generator package: a decoder
// stack that turns byte strings into valid closed chains, so native Go
// fuzz targets (internal/oracle) can explore configuration space from
// arbitrary mutated inputs while committed corpus files stay readable as
// step sequences.
//
// Two layers with different contracts:
//
//   - FromSteps is strict: the step walk must already be a valid closed
//     chain (unit steps, even count, closing). It rejects everything else
//     with ErrBadParam, and is what corpus round-trip checks use.
//   - FromBytes is total on non-empty input: it decodes bytes into steps
//     and deterministically repairs parity and balance so that any fuzz
//     input becomes some valid chain. Already-valid step sequences (in
//     particular anything produced by ToBytes) pass through unchanged,
//     so the repair never distorts corpus seeds.

// MaxFromBytesSteps caps the chain size FromBytes will build. Fuzzers love
// to grow inputs; beyond this length the extra bytes add no structural
// variety, only wall-clock, so the decoder truncates instead of scaling.
const MaxFromBytesSteps = 4096

// stepByte maps one corpus byte to an axis step: the two low bits select
// from AxisDirs (E, N, W, S). ToBytes writes exactly these values, so
// corpus files read as base-4 step strings.
func stepByte(b byte) grid.Vec { return grid.AxisDirs[b&3] }

// FromSteps builds the closed chain that starts at the origin and follows
// the given unit steps. It is strict: an odd step count, a non-unit step,
// or a walk that does not return to its start is rejected with an error
// wrapping ErrBadParam (and the underlying chain error where one exists).
func FromSteps(steps []grid.Vec) (*chain.Chain, error) {
	if len(steps) == 0 {
		return nil, fmt.Errorf("%w: empty step walk", ErrBadParam)
	}
	if len(steps)%2 != 0 {
		return nil, fmt.Errorf("%w: odd step count %d (closed grid walks have even length)", ErrBadParam, len(steps))
	}
	var sum grid.Vec
	for i, s := range steps {
		if !s.IsAxisUnit() {
			return nil, fmt.Errorf("%w: step %d is %v, not an axis unit", ErrBadParam, i, s)
		}
		sum = sum.Add(s)
	}
	if !sum.IsZero() {
		return nil, fmt.Errorf("%w: walk does not close (net displacement %v)", ErrBadParam, sum)
	}
	pts := make([]grid.Vec, len(steps))
	p := grid.Zero
	for i, s := range steps {
		pts[i] = p
		p = p.Add(s)
	}
	ch, err := chain.New(pts)
	if err != nil {
		// Unreachable for unit steps summing to zero, but keep the chain
		// error visible rather than masking a future validity rule.
		return nil, fmt.Errorf("%w: %v", ErrBadParam, err)
	}
	return ch, nil
}

// FromBytes decodes arbitrary bytes into a valid closed chain. Each input
// byte contributes one step (two low bits -> E/N/W/S); the resulting walk
// is then deterministically repaired into a closed one:
//
//  1. Parity: a closed walk needs an even number of horizontal and an even
//     number of vertical steps. If both counts are odd, the last vertical
//     step becomes an East step; if exactly one is odd, one step of that
//     axis is appended (East or North).
//  2. Balance: scanning from the end, surplus steps are flipped to their
//     opposites (E<->W, N<->S) until the walk closes.
//
// A walk that is already closed is untouched, so FromBytes(ToBytes(c))
// reproduces chain c translated to start at the origin. Only the empty
// input is rejected. Inputs longer than MaxFromBytesSteps are truncated.
func FromBytes(data []byte) (*chain.Chain, error) {
	if len(data) == 0 {
		return nil, fmt.Errorf("%w: empty fuzz input", ErrBadParam)
	}
	if len(data) > MaxFromBytesSteps {
		data = data[:MaxFromBytesSteps]
	}
	steps := make([]grid.Vec, 0, len(data)+1)
	for _, b := range data {
		steps = append(steps, stepByte(b))
	}
	steps = repairClosedWalk(steps)
	ch, err := FromSteps(steps)
	if err != nil {
		// repairClosedWalk guarantees FromSteps succeeds; a failure here is
		// a bug in the repair, which the decoder tests pin.
		return nil, fmt.Errorf("generate: FromBytes repair produced an invalid walk: %w", err)
	}
	return ch, nil
}

// repairClosedWalk fixes parity and balance of a unit-step walk so that it
// closes. The repair is deterministic and the identity on already-closed
// walks.
func repairClosedWalk(steps []grid.Vec) []grid.Vec {
	horiz := 0
	for _, s := range steps {
		if s.X != 0 {
			horiz++
		}
	}
	vert := len(steps) - horiz
	switch {
	case horiz%2 != 0 && vert%2 != 0:
		// Flip the last vertical step onto the horizontal axis: both
		// parities become even without changing the length.
		for i := len(steps) - 1; i >= 0; i-- {
			if steps[i].Y != 0 {
				steps[i] = grid.East
				break
			}
		}
	case horiz%2 != 0:
		steps = append(steps, grid.East)
	case vert%2 != 0:
		steps = append(steps, grid.North)
	}

	var sum grid.Vec
	for _, s := range steps {
		sum = sum.Add(s)
	}
	// Flip surplus steps from the end until each axis balances. Parity is
	// even, so the loop always terminates exactly at zero.
	for i := len(steps) - 1; i >= 0 && sum.X != 0; i-- {
		if steps[i].X == 0 {
			continue
		}
		if sum.X > 0 && steps[i] == grid.East {
			steps[i] = grid.West
			sum.X -= 2
		} else if sum.X < 0 && steps[i] == grid.West {
			steps[i] = grid.East
			sum.X += 2
		}
	}
	for i := len(steps) - 1; i >= 0 && sum.Y != 0; i-- {
		if steps[i].Y == 0 {
			continue
		}
		if sum.Y > 0 && steps[i] == grid.North {
			steps[i] = grid.South
			sum.Y -= 2
		} else if sum.Y < 0 && steps[i] == grid.South {
			steps[i] = grid.North
			sum.Y += 2
		}
	}
	return steps
}

// ToBytes encodes a chain as its edge walk, one byte per edge in the
// format FromBytes decodes (values 0..3 indexing E, N, W, S). It is the
// corpus writer: FromBytes(ToBytes(c)) rebuilds c translated to start at
// the origin. It panics on a chain with zero-length edges (merged robots),
// which initial configurations never contain.
func ToBytes(c *chain.Chain) []byte {
	hs := c.Handles()
	out := make([]byte, len(hs))
	for i, h := range hs {
		// Read the positions, not c.Edge: a one-shot encode must not
		// build the chain's edge cache.
		e := c.PosOf(c.Next(h)).Sub(c.PosOf(h))
		b := byte(255)
		for j, d := range grid.AxisDirs {
			if e == d {
				b = byte(j)
				break
			}
		}
		if b == 255 {
			panic(fmt.Sprintf("generate: edge %d is %v, not an axis unit (merged chain?)", i, e))
		}
		out[i] = b
	}
	return out
}
