package workload

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"

	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// ErrBadSpec is the single sentinel wrapped by every spec rejection —
// syntax errors, unknown fields, and semantic validation failures alike —
// mirroring generate.ErrBadParam. Callers branch with errors.Is and show
// the wrapped sentence, which names the offending line or field.
var ErrBadSpec = errors.New("workload: invalid spec")

// Hard limits of the codec. They bound what a hostile or runaway spec can
// ask for; everything inside them is still subject to Validate.
const (
	// MaxSpecBytes caps the size of a spec document.
	MaxSpecBytes = 1 << 20
	// MaxItems caps a campaign's item count.
	MaxItems = 1 << 20
	// MinSize is the smallest target chain size a family may draw. Chains
	// below 4 robots cannot close into a cycle.
	MinSize = 4
	// MaxSize is the largest target chain size a family may draw. It is
	// held far enough under generate.MaxFromBytesSteps that every family's
	// overshoot (histogram walls, polyomino boundaries) still fits, so
	// Item.Scenario always round-trips through generate.FromBytes intact.
	MaxSize = generate.MaxFromBytesSteps / 2
	// MaxWeight caps a single mix weight, keeping weight sums well inside
	// int range.
	MaxWeight = 1 << 16
)

// Spec is a declarative campaign: everything needed to expand a
// reproducible stream of simulation items from a seed. Parse specs from
// YAML with ParseSpec, or load the embedded presets with Preset. The spec
// schema and the seed-derivation rule are documented in DESIGN.md §13.
type Spec struct {
	// Name labels the campaign (trace files and the /campaign endpoint
	// echo it). Optional.
	Name string
	// Seed is the campaign master seed; every item seed derives from it.
	Seed int64
	// Items is the number of items the campaign expands to (required,
	// 1..MaxItems).
	Items int
	// MaxRounds is the per-item watchdog override (0 = engine default).
	// A family may override it per item.
	MaxRounds int
	// Config is the algorithm parameter set shared by every item; the
	// zero value means core.DefaultConfig.
	Config core.Config
	// Families is the weighted scenario family mix (required, non-empty).
	Families []Family
	// Scheds is the weighted activation-scheduler mix. Decoding defaults
	// it to FSYNC with weight 1 when omitted.
	Scheds []SchedChoice
	// Strategies is the weighted strategy mix. Decoding defaults it to
	// the paper strategy with weight 1 when omitted.
	Strategies []StrategyChoice
}

// Family is one weighted scenario family in a spec.
type Family struct {
	// Shape is a generate.Names() family, or "bytes" for the fuzzer-style
	// decoded-random-walk family.
	Shape string
	// Weight is the relative draw weight (>= 1).
	Weight int
	// Size is the target chain size distribution.
	Size SizeDist
	// MaxRounds, when positive, overrides the spec-level round budget for
	// items drawn from this family.
	MaxRounds int
}

// SchedChoice is one weighted scheduler in a spec's mix. Sched is stored
// canonicalised (sched.Parse of its own String), so equal specs compare
// equal regardless of which spelling the YAML used.
type SchedChoice struct {
	Sched  sched.Config
	Weight int
}

// StrategyChoice is one weighted strategy in a spec's mix.
type StrategyChoice struct {
	Strategy core.StrategyName
	Weight   int
}

// SizeKind selects a size distribution shape.
type SizeKind uint8

// The supported size distributions.
const (
	// SizeFixed always draws Lo.
	SizeFixed SizeKind = iota
	// SizeUniform draws uniformly from [Lo, Hi].
	SizeUniform
	// SizeLogUniform draws log-uniformly from [Lo, Hi], covering orders
	// of magnitude evenly — the gatherfuzz size model.
	SizeLogUniform
)

// SizeDist is a target-size distribution over chain length n. The zero
// value is invalid; parse one with parseSizeDist or build it literally.
type SizeDist struct {
	Kind   SizeKind
	Lo, Hi int
}

// String renders the spec syntax parsed by parseSizeDist.
func (d SizeDist) String() string {
	switch d.Kind {
	case SizeFixed:
		return fmt.Sprintf("fixed:%d", d.Lo)
	case SizeUniform:
		return fmt.Sprintf("uniform:%d:%d", d.Lo, d.Hi)
	case SizeLogUniform:
		return fmt.Sprintf("loguniform:%d:%d", d.Lo, d.Hi)
	}
	return fmt.Sprintf("SizeKind(%d)", uint8(d.Kind))
}

// draw samples one target size. Fixed ignores the rng but the callers
// draw through a fixed sequence anyway (see ExpandItem's draw order).
func (d SizeDist) draw(rng *rand.Rand) int {
	switch d.Kind {
	case SizeUniform:
		return d.Lo + rng.Intn(d.Hi-d.Lo+1)
	case SizeLogUniform:
		// Same model as the gatherfuzz size axis: exponent uniform in
		// [log lo, log hi].
		f := float64(d.Lo) * math.Pow(float64(d.Hi)/float64(d.Lo), rng.Float64())
		n := int(f)
		if n < d.Lo {
			n = d.Lo
		}
		if n > d.Hi {
			n = d.Hi
		}
		return n
	default:
		return d.Lo
	}
}

// validate checks the distribution bounds.
func (d SizeDist) validate() error {
	if d.Kind > SizeLogUniform {
		return fmt.Errorf("%w: unknown size distribution kind %d", ErrBadSpec, d.Kind)
	}
	if d.Kind == SizeFixed && d.Hi != d.Lo {
		return fmt.Errorf("%w: fixed size with Hi %d != Lo %d", ErrBadSpec, d.Hi, d.Lo)
	}
	if d.Lo < MinSize || d.Hi > MaxSize || d.Hi < d.Lo {
		return fmt.Errorf("%w: size bounds %d..%d out of range (want %d <= lo <= hi <= %d)",
			ErrBadSpec, d.Lo, d.Hi, MinSize, MaxSize)
	}
	return nil
}

// BytesShape is the extra scenario family available to specs on top of
// generate.Names(): size random bytes decoded through generate.FromBytes,
// the fuzzer's hostile-input family.
const BytesShape = "bytes"

// shapeNames returns the accepted Family.Shape values in canonical order.
func shapeNames() []string {
	return append(generate.Names(), BytesShape)
}

// validShape reports whether name is an accepted Family.Shape.
func validShape(name string) bool {
	for _, n := range shapeNames() {
		if n == name {
			return true
		}
	}
	return false
}

// Validate checks the spec the way Expand and the serving layer will use
// it: counts and weights in range, every family/scheduler/strategy
// resolvable, and every config × strategy combination admissible under
// sim.Options.Validate (which rejects the E11 livelock configurations).
// Every failure wraps ErrBadSpec.
func (s Spec) Validate() error {
	if s.Items < 1 {
		return fmt.Errorf("%w: items must be at least 1 (got %d)", ErrBadSpec, s.Items)
	}
	if s.Items > MaxItems {
		return fmt.Errorf("%w: items %d exceeds the limit %d", ErrBadSpec, s.Items, MaxItems)
	}
	if s.MaxRounds < 0 {
		return fmt.Errorf("%w: maxRounds must not be negative (got %d)", ErrBadSpec, s.MaxRounds)
	}
	if len(s.Families) == 0 {
		return fmt.Errorf("%w: families must not be empty", ErrBadSpec)
	}
	for i, f := range s.Families {
		if !validShape(f.Shape) {
			return fmt.Errorf("%w: families[%d]: unknown shape %q (have: %s)",
				ErrBadSpec, i, f.Shape, strings.Join(shapeNames(), ", "))
		}
		if err := checkWeight(f.Weight, fmt.Sprintf("families[%d]", i)); err != nil {
			return err
		}
		if err := f.Size.validate(); err != nil {
			return fmt.Errorf("families[%d]: %w", i, err)
		}
		if f.MaxRounds < 0 {
			return fmt.Errorf("%w: families[%d]: maxRounds must not be negative (got %d)",
				ErrBadSpec, i, f.MaxRounds)
		}
	}
	if len(s.Scheds) == 0 {
		return fmt.Errorf("%w: scheds must not be empty", ErrBadSpec)
	}
	for i, c := range s.Scheds {
		if _, err := sched.New(c.Sched); err != nil {
			return fmt.Errorf("%w: scheds[%d]: %v", ErrBadSpec, i, err)
		}
		if err := checkWeight(c.Weight, fmt.Sprintf("scheds[%d]", i)); err != nil {
			return err
		}
	}
	if len(s.Strategies) == 0 {
		return fmt.Errorf("%w: strategies must not be empty", ErrBadSpec)
	}
	for i, c := range s.Strategies {
		if err := c.Strategy.Valid(); err != nil {
			return fmt.Errorf("%w: strategies[%d]: %v", ErrBadSpec, i, err)
		}
		if err := checkWeight(c.Weight, fmt.Sprintf("strategies[%d]", i)); err != nil {
			return err
		}
		// Admission check per strategy: a spec that can only expand into
		// rejected jobs (the E11 livelock wall) is a bad spec, and should
		// fail at parse time, not N items into a campaign.
		opts := sim.Options{Config: s.Config, Strategy: c.Strategy}
		if err := opts.Validate(); err != nil {
			return fmt.Errorf("%w: strategies[%d] (%s): %w", ErrBadSpec, i, c.Strategy, err)
		}
	}
	return nil
}

// checkWeight validates one mix weight.
func checkWeight(w int, where string) error {
	if w < 1 || w > MaxWeight {
		return fmt.Errorf("%w: %s: weight must be in 1..%d (got %d)", ErrBadSpec, where, MaxWeight, w)
	}
	return nil
}

// Encode renders the spec as canonical YAML: fixed key order, defaults
// made explicit, scheduler configs in their sched.Config.String spelling.
// ParseSpec(Encode(s)) returns a Spec equal to s for any valid s — the
// round-trip law FuzzSpecDecode enforces.
func (s Spec) Encode() []byte {
	var b strings.Builder
	if s.Name != "" {
		fmt.Fprintf(&b, "name: %s\n", s.Name)
	}
	fmt.Fprintf(&b, "seed: %d\n", s.Seed)
	fmt.Fprintf(&b, "items: %d\n", s.Items)
	if s.MaxRounds != 0 {
		fmt.Fprintf(&b, "maxRounds: %d\n", s.MaxRounds)
	}
	if s.Config != (core.Config{}) {
		b.WriteString("config:\n")
		c := s.Config
		fmt.Fprintf(&b, "  view: %d\n", c.ViewingPathLength)
		fmt.Fprintf(&b, "  period: %d\n", c.RunPeriod)
		fmt.Fprintf(&b, "  mergelen: %d\n", c.MaxMergeLen)
		if c.SequentialRuns {
			b.WriteString("  sequentialRuns: true\n")
		}
		if c.DisableRunStarts {
			b.WriteString("  disableRunStarts: true\n")
		}
	}
	b.WriteString("families:\n")
	for _, f := range s.Families {
		fmt.Fprintf(&b, "  - shape: %s\n", f.Shape)
		fmt.Fprintf(&b, "    weight: %d\n", f.Weight)
		fmt.Fprintf(&b, "    size: %s\n", f.Size)
		if f.MaxRounds != 0 {
			fmt.Fprintf(&b, "    maxRounds: %d\n", f.MaxRounds)
		}
	}
	b.WriteString("scheds:\n")
	for _, c := range s.Scheds {
		fmt.Fprintf(&b, "  - sched: %s\n", c.Sched)
		fmt.Fprintf(&b, "    weight: %d\n", c.Weight)
	}
	b.WriteString("strategies:\n")
	for _, c := range s.Strategies {
		fmt.Fprintf(&b, "  - strategy: %s\n", c.Strategy)
		fmt.Fprintf(&b, "    weight: %d\n", c.Weight)
	}
	return []byte(b.String())
}
