package workload

import (
	"fmt"
	"strconv"
	"strings"

	"gridgather/internal/core"
	"gridgather/internal/sched"
)

// ParseSpec decodes and validates a YAML campaign spec. Decoding is
// strict in both directions: unknown fields are rejected (never silently
// dropped — a typo that changed nothing would invalidate whatever
// campaign the spec was meant to drive), and omitted mixes get their
// documented defaults eagerly (scheds → FSYNC×1, strategies → paper×1,
// weight → 1), so two specs that mean the same campaign decode to equal
// Spec values. Every failure wraps ErrBadSpec.
func ParseSpec(data []byte) (Spec, error) {
	root, err := parseYAML(data)
	if err != nil {
		return Spec{}, err
	}
	s, err := decodeSpec(root)
	if err != nil {
		return Spec{}, err
	}
	if err := s.Validate(); err != nil {
		return Spec{}, err
	}
	return s, nil
}

// decodeSpec walks the root mapping.
func decodeSpec(root *node) (Spec, error) {
	var s Spec
	for _, key := range root.keys {
		child := root.mapping[key]
		var err error
		switch key {
		case "name":
			s.Name, err = scalarOf(child, key)
		case "seed":
			s.Seed, err = int64Of(child, key)
		case "items":
			s.Items, err = intOf(child, key)
		case "maxRounds":
			s.MaxRounds, err = intOf(child, key)
		case "config":
			s.Config, err = decodeConfig(child)
		case "families":
			s.Families, err = decodeFamilies(child)
		case "scheds":
			s.Scheds, err = decodeScheds(child)
		case "strategies":
			s.Strategies, err = decodeStrategies(child)
		default:
			err = yamlErr(child.line, "unknown field %q", key)
		}
		if err != nil {
			return Spec{}, err
		}
	}
	if len(s.Scheds) == 0 {
		s.Scheds = []SchedChoice{{Weight: 1}} // zero sched.Config = FSYNC
	}
	if len(s.Strategies) == 0 {
		s.Strategies = []StrategyChoice{{Strategy: core.StrategyPaper, Weight: 1}}
	}
	return s, nil
}

// decodeConfig walks the optional config override mapping.
func decodeConfig(n *node) (core.Config, error) {
	if !n.isMapping() {
		return core.Config{}, yamlErr(n.line, "config must be a mapping")
	}
	cfg := core.DefaultConfig()
	for _, key := range n.keys {
		child := n.mapping[key]
		var err error
		switch key {
		case "view":
			cfg.ViewingPathLength, err = intOf(child, key)
		case "period":
			cfg.RunPeriod, err = intOf(child, key)
		case "mergelen":
			cfg.MaxMergeLen, err = intOf(child, key)
		case "sequentialRuns":
			cfg.SequentialRuns, err = boolOf(child, key)
		case "disableRunStarts":
			cfg.DisableRunStarts, err = boolOf(child, key)
		default:
			err = yamlErr(child.line, "unknown config field %q", key)
		}
		if err != nil {
			return core.Config{}, err
		}
	}
	check := cfg
	if err := check.Validate(); err != nil {
		return core.Config{}, fmt.Errorf("%w: line %d: config: %v", ErrBadSpec, n.line, err)
	}
	return cfg, nil
}

// decodeFamilies walks the families sequence. Each item is a mapping with
// at least a shape; weight defaults to 1 and size to fixed:MinSize*16.
func decodeFamilies(n *node) ([]Family, error) {
	if !n.isSeq {
		return nil, yamlErr(n.line, "families must be a sequence")
	}
	out := make([]Family, 0, len(n.seq))
	for i, item := range n.seq {
		f := Family{Weight: 1, Size: SizeDist{Kind: SizeFixed, Lo: MinSize * 16, Hi: MinSize * 16}}
		if item.isScalar {
			// Scalar shorthand: "- rectangle" is a weight-1 family with the
			// default fixed size.
			f.Shape = item.scalar
			out = append(out, f)
			continue
		}
		if !item.isMapping() {
			return nil, yamlErr(item.line, "families[%d] must be a mapping or a shape name", i)
		}
		for _, key := range item.keys {
			child := item.mapping[key]
			var err error
			switch key {
			case "shape":
				f.Shape, err = scalarOf(child, key)
			case "weight":
				f.Weight, err = intOf(child, key)
			case "size":
				var raw string
				if raw, err = scalarOf(child, key); err == nil {
					f.Size, err = parseSizeDist(raw, child.line)
				}
			case "maxRounds":
				f.MaxRounds, err = intOf(child, key)
			default:
				err = yamlErr(child.line, "unknown family field %q", key)
			}
			if err != nil {
				return nil, err
			}
		}
		if f.Shape == "" {
			return nil, yamlErr(item.line, "families[%d] has no shape", i)
		}
		out = append(out, f)
	}
	return out, nil
}

// decodeScheds walks the scheds sequence. Items are either a bare
// scheduler string ("- rr:3") or a mapping ("- sched: rr:3" with an
// optional weight). Configs are canonicalised through their own String
// form so equal schedulers decode to equal sched.Config values whichever
// spelling the YAML used.
func decodeScheds(n *node) ([]SchedChoice, error) {
	if !n.isSeq {
		return nil, yamlErr(n.line, "scheds must be a sequence")
	}
	out := make([]SchedChoice, 0, len(n.seq))
	for i, item := range n.seq {
		c := SchedChoice{Weight: 1}
		raw := ""
		switch {
		case item.isScalar:
			raw = item.scalar
		case item.isMapping():
			for _, key := range item.keys {
				child := item.mapping[key]
				var err error
				switch key {
				case "sched":
					raw, err = scalarOf(child, key)
				case "weight":
					c.Weight, err = intOf(child, key)
				default:
					err = yamlErr(child.line, "unknown sched field %q", key)
				}
				if err != nil {
					return nil, err
				}
			}
		default:
			return nil, yamlErr(item.line, "scheds[%d] must be a scheduler string or a mapping", i)
		}
		cfg, err := canonicalSched(raw)
		if err != nil {
			return nil, yamlErr(item.line, "scheds[%d]: %v", i, err)
		}
		c.Sched = cfg
		out = append(out, c)
	}
	return out, nil
}

// canonicalSched parses a scheduler string and re-parses its canonical
// String form, so omitted parameters land on their defaults in the stored
// Config ("rr" and "rr:3" decode identically) and Encode→ParseSpec round
// trips are exact.
func canonicalSched(raw string) (sched.Config, error) {
	cfg, err := sched.Parse(raw)
	if err != nil {
		return sched.Config{}, err
	}
	return sched.Parse(cfg.String())
}

// decodeStrategies walks the strategies sequence; items are a bare name
// ("- lintime") or a mapping with an optional weight.
func decodeStrategies(n *node) ([]StrategyChoice, error) {
	if !n.isSeq {
		return nil, yamlErr(n.line, "strategies must be a sequence")
	}
	out := make([]StrategyChoice, 0, len(n.seq))
	for i, item := range n.seq {
		c := StrategyChoice{Weight: 1}
		raw := ""
		hasName := false
		switch {
		case item.isScalar:
			raw, hasName = item.scalar, true
		case item.isMapping():
			for _, key := range item.keys {
				child := item.mapping[key]
				var err error
				switch key {
				case "strategy":
					raw, err = scalarOf(child, key)
					hasName = true
				case "weight":
					c.Weight, err = intOf(child, key)
				default:
					err = yamlErr(child.line, "unknown strategy field %q", key)
				}
				if err != nil {
					return nil, err
				}
			}
		default:
			return nil, yamlErr(item.line, "strategies[%d] must be a strategy name or a mapping", i)
		}
		if !hasName {
			return nil, yamlErr(item.line, "strategies[%d] has no strategy name", i)
		}
		name, err := core.ParseStrategy(raw)
		if err != nil {
			return nil, yamlErr(item.line, "strategies[%d]: %v", i, err)
		}
		c.Strategy = name
		out = append(out, c)
	}
	return out, nil
}

// parseSizeDist parses the size syntax: a bare integer N (fixed), or
// "fixed:N" / "uniform:LO:HI" / "loguniform:LO:HI". Bounds are checked by
// Spec.Validate; only syntax is rejected here.
func parseSizeDist(raw string, line int) (SizeDist, error) {
	if n, err := strconv.Atoi(raw); err == nil {
		return SizeDist{Kind: SizeFixed, Lo: n, Hi: n}, nil
	}
	parts := strings.Split(raw, ":")
	bad := func() (SizeDist, error) {
		return SizeDist{}, yamlErr(line, "bad size %q (want N, fixed:N, uniform:LO:HI, or loguniform:LO:HI)", raw)
	}
	atoi := func(s string) (int, bool) {
		n, err := strconv.Atoi(s)
		return n, err == nil
	}
	switch parts[0] {
	case "fixed":
		if len(parts) != 2 {
			return bad()
		}
		n, ok := atoi(parts[1])
		if !ok {
			return bad()
		}
		return SizeDist{Kind: SizeFixed, Lo: n, Hi: n}, nil
	case "uniform", "loguniform":
		if len(parts) != 3 {
			return bad()
		}
		lo, okLo := atoi(parts[1])
		hi, okHi := atoi(parts[2])
		if !okLo || !okHi {
			return bad()
		}
		kind := SizeUniform
		if parts[0] == "loguniform" {
			kind = SizeLogUniform
		}
		return SizeDist{Kind: kind, Lo: lo, Hi: hi}, nil
	default:
		return bad()
	}
}

// scalarOf extracts a scalar child or fails naming the field.
func scalarOf(n *node, key string) (string, error) {
	if !n.isScalar {
		return "", yamlErr(n.line, "field %q must be a scalar", key)
	}
	return n.scalar, nil
}

// intOf extracts an integer scalar.
func intOf(n *node, key string) (int, error) {
	v, err := int64Of(n, key)
	if err != nil {
		return 0, err
	}
	if int64(int(v)) != v {
		return 0, yamlErr(n.line, "field %q overflows int: %d", key, v)
	}
	return int(v), nil
}

// int64Of extracts a 64-bit integer scalar.
func int64Of(n *node, key string) (int64, error) {
	s, err := scalarOf(n, key)
	if err != nil {
		return 0, err
	}
	v, perr := strconv.ParseInt(s, 10, 64)
	if perr != nil {
		return 0, yamlErr(n.line, "field %q wants an integer, got %q", key, s)
	}
	return v, nil
}

// boolOf extracts a true/false scalar.
func boolOf(n *node, key string) (bool, error) {
	s, err := scalarOf(n, key)
	if err != nil {
		return false, err
	}
	switch s {
	case "true":
		return true, nil
	case "false":
		return false, nil
	}
	return false, yamlErr(n.line, "field %q wants true or false, got %q", key, s)
}
