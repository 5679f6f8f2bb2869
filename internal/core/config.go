package core

import (
	"errors"
	"fmt"
)

// Paper constants (§1, §3.3, §5.2).
const (
	// DefaultViewingPathLength is the paper's V = 11: each robot sees its
	// next 11 chain neighbours in both directions.
	DefaultViewingPathLength = 11
	// DefaultRunPeriod is the paper's L = 13: every robot checks every 13th
	// round whether it can start new runs.
	DefaultRunPeriod = 13
	// DefaultMaxMergeLen bounds the black subchain length k of a merge
	// pattern. Every participant must see all k+2 pattern robots, which
	// caps k at V-1 (= 10 for the paper's V); the paper's Fig 2 states "k
	// is upper bounded by a robot's constant viewing path length".
	DefaultMaxMergeLen = DefaultViewingPathLength - 1
	// PassingTriggerDistance is the chain distance at or below which two
	// runs moving towards each other start the run passing operation
	// (paper Fig 8: "their distance … is 3 or less").
	PassingTriggerDistance = 3
	// OpBTraverse is the number of hop-free moves of run operation (b)
	// (Fig 11.b: "for 3 times the runners just move the run to the next
	// robot without any diagonal hops").
	OpBTraverse = 3
	// OpCTraverse is the number of hop-free moves after the corner-cutting
	// hop of run operation (c) (Fig 11.c). With the corner-cut geometry
	// used here the next corner is one robot ahead; the invariant that
	// matters (the run resumes normal operation exactly on a corner) is
	// preserved. See DESIGN.md §3.2.
	OpCTraverse = 1
	// MinChainForRuns is the smallest chain length on which runs start.
	// The start patterns inspect 3 robots ahead and 3 behind; below 8
	// robots those windows self-overlap and merges alone always suffice
	// (every closed chain with n < 8 contains a detectable merge or is
	// already gathered).
	MinChainForRuns = 8
)

// Config carries the algorithm parameters. The zero value is not valid;
// use DefaultConfig.
type Config struct {
	// ViewingPathLength is V: how many chain neighbours a robot sees in
	// each direction.
	ViewingPathLength int
	// RunPeriod is L: new runs may start every L-th round.
	RunPeriod int
	// MaxMergeLen caps the black subchain length of merge patterns.
	// It is clamped to ViewingPathLength-1 by Validate.
	MaxMergeLen int
	// SequentialRuns, when set, suppresses new run starts while any run is
	// active anywhere on the chain. This is the no-pipelining ablation
	// (experiment E10/E12 in DESIGN.md); it uses global knowledge and is
	// not part of the paper's local algorithm.
	SequentialRuns bool
	// DisableRunStarts suppresses all automatic run starts. Used by the
	// merge-only ablation and by scenario tests that inject runs manually
	// to reproduce the paper's figures.
	DisableRunStarts bool
}

// DefaultConfig returns the paper's parameter set.
func DefaultConfig() Config {
	return Config{
		ViewingPathLength: DefaultViewingPathLength,
		RunPeriod:         DefaultRunPeriod,
		MaxMergeLen:       DefaultMaxMergeLen,
	}
}

// Validation errors.
var (
	ErrViewTooSmall = errors.New("core: viewing path length must be at least 7 (start patterns span 3 robots per side and merge detection needs k+1 <= V)")
	ErrBadPeriod    = errors.New("core: run period must be positive")
	ErrBadMergeLen  = errors.New("core: max merge length must be at least 1")
)

// Validate checks the configuration and normalises dependent fields.
func (c *Config) Validate() error {
	if c.ViewingPathLength < 7 {
		return fmt.Errorf("%w (got %d)", ErrViewTooSmall, c.ViewingPathLength)
	}
	if c.RunPeriod < 1 {
		return fmt.Errorf("%w (got %d)", ErrBadPeriod, c.RunPeriod)
	}
	if c.MaxMergeLen < 1 {
		return fmt.Errorf("%w (got %d)", ErrBadMergeLen, c.MaxMergeLen)
	}
	if c.MaxMergeLen > c.ViewingPathLength-1 {
		c.MaxMergeLen = c.ViewingPathLength - 1
	}
	return nil
}
