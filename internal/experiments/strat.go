package experiments

import (
	"fmt"
	"math/rand"

	"gridgather/internal/analysis"
	"gridgather/internal/core"
	"gridgather/internal/parallel"
	"gridgather/internal/sim"
)

// stratSweep is the strategy axis of the E-strat tables, read from the
// embedded e-strat workload preset in registry order (the spec file is
// the single source of the axis; TestPresetAxesEquivalence pins it
// against the pre-migration literals).
func stratSweep() []core.StrategyName {
	p := estratPreset()
	out := make([]core.StrategyName, len(p.Strategies))
	for i, c := range p.Strategies {
		out[i] = c.Strategy
	}
	return out
}

// stratShapes are the workloads of the head-to-head, in the e-strat
// preset's family order: the run-driven square, the spiral worst case
// (maximum n per diameter), and a tangled random walk (merge-driven,
// irregular bounding box).
func stratShapes() []string { return presetShapes(estratPreset()) }

// stratSample is one simulation under one strategy. Both registered
// strategies gather every workload under FSYNC, so unlike the scheduler
// sweep a DNF here is an error, not a data point.
type stratSample struct {
	n, rounds, diameter int
}

// runStratCell simulates one (workload, strategy, trial) cell under FSYNC:
// the strategy axis is swept on the paper's activation model, like the
// recorded EXPERIMENTS.md tables; the scheduler axis has its own
// experiment (ESched).
func runStratCell(p Params, shape string, size int, strat core.StrategyName, rng *rand.Rand) (stratSample, error) {
	ch, err := buildShape(shape, size, rng)
	if err != nil {
		return stratSample{}, err
	}
	n := ch.Len()
	diam := ch.Diameter()
	res, err := sim.Gather(ch, sim.Options{Strategy: strat})
	if err != nil {
		return stratSample{}, fmt.Errorf("E-strat %s %s: %w", strat, shape, err)
	}
	return stratSample{n: n, rounds: res.Rounds, diameter: diam}, nil
}

// EStrat runs the strategy arena head-to-head (DESIGN.md §10): the paper's
// local strategy against the linear-time global-vision contraction, per
// workload at the middle size and scaling over the size axis. The headline
// columns are round-count inflation (paper rounds / lintime rounds) and
// rounds against the diameter lower bound.
func EStrat(p Params) (Outcome, error) {
	p = p.normalized()
	o := Outcome{ID: "E-strat", Title: "Strategy arena — paper vs lintime round counts"}
	sweep := stratSweep()
	shapes := stratShapes()

	// Grid 1: shapes x strategies at the middle size.
	size := p.Sizes[len(p.Sizes)/2]
	var tasks []parallel.Task[stratSample]
	for ci := 0; ci < len(shapes)*len(sweep); ci++ {
		shape := shapes[ci/len(sweep)]
		strat := sweep[ci%len(sweep)]
		for trial := 0; trial < p.Trials; trial++ {
			// Seed by shape only (ci/len(sweep)): both strategies run the
			// same chains, so the speedup column is a controlled comparison.
			tasks = append(tasks, seeded(p, 16, ci/len(sweep), trial, func(rng *rand.Rand) (stratSample, error) {
				return runStratCell(p, shape, size, strat, rng)
			}))
		}
	}
	flat, err := parallel.RunContext(p.ctx(), p.Parallel, tasks)
	if err != nil {
		return o, err
	}
	o.Tasks += len(tasks)

	head := analysis.NewTable("shape", "strategy", "n", "rounds", "rounds/n", "speedup vs paper")
	for si, shape := range shapes {
		var paperMean float64
		for ki, strat := range sweep {
			ci := si*len(sweep) + ki
			var rounds, ns analysis.Series
			for trial := 0; trial < p.Trials; trial++ {
				s := flat[ci*p.Trials+trial]
				ns.AddInt(s.n)
				rounds.AddInt(s.rounds)
			}
			if strat == core.StrategyPaper {
				paperMean = rounds.Mean()
			}
			speedup := "1.00x"
			if paperMean > 0 && rounds.Mean() > 0 {
				speedup = fmt.Sprintf("%.2fx", paperMean/rounds.Mean())
			}
			head.AddRow(shape, strat.String(),
				fmt.Sprintf("%.0f", ns.Mean()),
				fmt.Sprintf("%.0f ± %.0f", rounds.Mean(), rounds.Std()),
				fmt.Sprintf("%.3f", rounds.Mean()/ns.Mean()),
				speedup)
		}
	}

	// Grid 2: rounds against the size axis on the square workload, with the
	// diameter lower bound alongside — the paper strategy scales with n,
	// the contraction with the diameter.
	var stasks []parallel.Task[stratSample]
	for ci := 0; ci < len(p.Sizes)*len(sweep); ci++ {
		sz := p.Sizes[ci/len(sweep)]
		strat := sweep[ci%len(sweep)]
		stasks = append(stasks, seeded(p, 17, ci/len(sweep), 0, func(rng *rand.Rand) (stratSample, error) {
			return runStratCell(p, "rectangle", sz, strat, rng)
		}))
	}
	sflat, err := parallel.RunContext(p.ctx(), p.Parallel, stasks)
	if err != nil {
		return o, err
	}
	o.Tasks += len(stasks)

	scaling := analysis.NewTable("n", "diameter", "paper rounds", "lintime rounds", "speedup", "lintime rounds / diameter")
	for zi := range p.Sizes {
		paper := sflat[zi*len(sweep)]
		lin := sflat[zi*len(sweep)+1]
		speedup := "—"
		if lin.rounds > 0 {
			speedup = fmt.Sprintf("%.2fx", float64(paper.rounds)/float64(lin.rounds))
		}
		ratio := "—"
		if lin.diameter > 0 {
			ratio = fmt.Sprintf("%.2f", float64(lin.rounds)/float64(lin.diameter))
		}
		scaling.AddRow(fmt.Sprintf("%d", paper.n),
			fmt.Sprintf("%d", paper.diameter),
			fmt.Sprintf("%d", paper.rounds),
			fmt.Sprintf("%d", lin.rounds),
			speedup, ratio)
	}

	o.Tables = []*analysis.Table{head, scaling}
	o.Notes = []string{
		"Both strategies solve the same problem under FSYNC; the comparison is rounds, not correctness — the conformance campaign holds each to the safety battery separately.",
		"lintime contracts every bounding-box side by one per round, so it finishes in ~diameter/2 rounds (the 'lintime rounds / diameter' column sits near 0.5) — linear in the diameter where the paper strategy is linear in n.",
		"The price is the information model: the contraction assumes global vision of the bounding box, the paper strategy only a viewing path of V = 11 — the speedup column measures what that locality costs in rounds.",
		"The gap tracks how far n outruns the diameter: square rings (n = 4x the side) show the largest speedup at these sizes, while the small spiral and tangled-walk instances gather quickly under both strategies and the gap narrows.",
	}
	return o, nil
}
