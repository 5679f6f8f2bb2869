package main

import (
	"time"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/sim"
)

// Every workload's traced run gathers some of its chains twice through
// the engine layers, and the per-layer metrics come from these twin
// drives: a core.NewStrategy(...).Step loop (core alone) and a
// sim.NewEngine + Engine.Step loop (core plus engine). Both must
// reproduce the outcome the workload itself produced for the chain. The
// twin inputs are the gather chains, the campaign's FSYNC items and a
// fixed sample of the serve misses, so each workload reports the same
// layer metrics over its own chain sizes.

// twinInput is one chain the traced run gathers twice. Its options must
// select FSYNC, the only activation model core.Strategy.Step runs alone.
type twinInput struct {
	id   string
	ch   *chain.Chain
	opts sim.Options
}

// layerTotals accumulates the twin drives of a traced run. The look
// kernels are probed before every odd paper round of the engine drive
// only, and the engine's step time is taken on the other rounds, so a
// probe never warms a Step that is timed; each side is compared with the
// core step of the very same rounds, which the core drive reproduces
// exactly. Robot-rounds are summed from each round's chain length.
type layerTotals struct {
	// build is the time spent in generate for build chains.
	build  time.Duration
	chains int
	// newEngine is the time in sim.NewEngine over engines calls.
	newEngine time.Duration
	engines   int
	// coreStep is the core step over every round (coreRR robot-rounds);
	// simStep and simCore are the engine and core step over the unprobed
	// rounds (simRR robot-rounds).
	coreStep, simStep, simCore time.Duration
	coreRR, simRR              int
	// Over the probed rounds: the look kernels, the work they were timed
	// on, and the core step of the same rounds.
	mergeScan, decide, start, probedCore           time.Duration
	probedRR, scanRobots, decidedRuns, startRobots int
	coreAlloc, simAlloc                            uint64
	// counts are the round-report totals of the first traced pass.
	counts map[string]int
}

// twin gathers in twice, checks both outcomes with check and adds the
// round-report totals to counts. It returns the engine drive's result.
func (r *run) twin(in twinInput, lt *layerTotals, counts map[string]int, check func(o outcome, gathered bool, err error, limit int)) (sim.Result, error) {
	steps, robots, err := r.coreDrive(in, lt, counts, check)
	if err != nil {
		return sim.Result{}, err
	}
	return r.simDrive(in, lt, steps, robots, check)
}

// coreDrive gathers a clone of in.ch by stepping the strategy alone (no
// engine), timing every Step and counting the round reports. It returns
// the step time and the chain length of every round.
func (r *run) coreDrive(in twinInput, lt *layerTotals, counts map[string]int, check func(outcome, bool, error, int)) ([]time.Duration, []int, error) {
	ch := in.ch.Clone()
	n0 := ch.Len()
	cfg := in.opts.Config
	if cfg == (core.Config{}) {
		cfg = core.DefaultConfig()
	}
	s, err := core.NewStrategy(in.opts.Strategy, ch, cfg)
	if err != nil {
		return nil, nil, err
	}
	limit := in.opts.MaxRounds
	if limit <= 0 {
		limit = sim.DefaultWatchdogFactor*n0 + sim.DefaultWatchdogSlack
	}
	drive := r.tr.begin("core.drive", in.id, -1)
	a0 := allocated()
	var steps []time.Duration
	var robots []int
	var stepErr error
	for !s.Gathered() && s.Round() < limit {
		n := s.Chain().Len()
		counts["core.robot_rounds"] += n
		counts["core.runs_decided"] += len(s.Runs())
		sp := r.tr.begin("core.step", in.id, drive)
		rep, err := s.Step()
		d := r.tr.end(sp)
		if err != nil {
			stepErr = err
			break
		}
		steps = append(steps, d)
		robots = append(robots, n)
		lt.coreStep += d
		lt.coreRR += n
		counts["core.rounds"]++
		counts["core.runs_started"] += len(rep.Starts)
		counts["core.hops"] += rep.MergeHops + rep.RunnerHops + rep.StartHops
		counts["core.hop_conflicts"] += rep.Anomalies.HopConflicts
		counts["chain.merges"] += rep.Merges()
	}
	lt.coreAlloc += allocated() - a0
	r.tr.end(drive)
	check(outcome{s.Round(), s.Chain().Len()}, s.Gathered(), stepErr, limit)
	return steps, robots, nil
}

// simDrive gathers a clone of in.ch through sim.Engine.Step. Before each
// odd paper round it times the read-only look-phase kernels on the
// engine's algorithm; their buffers are rebuilt by the Step that follows,
// so the probe's decisions are discarded, and the outcome check proves
// the probe did not change the gather. coreSteps and robots are the core
// drive's step times and chain lengths of the same rounds.
func (r *run) simDrive(in twinInput, lt *layerTotals, coreSteps []time.Duration, robots []int, check func(outcome, bool, error, int)) (sim.Result, error) {
	ch := in.ch.Clone()
	a0 := allocated()
	sp := r.tr.begin("sim.new_engine", in.id, -1)
	e, err := sim.NewEngine(ch, in.opts)
	lt.newEngine += r.tr.end(sp)
	lt.engines++
	if err != nil {
		return sim.Result{}, err
	}
	drive := r.tr.begin("sim.drive", in.id, -1)
	var stepErr error
	for {
		k := e.Strategy().Round()
		alg := e.Algorithm()
		probed := alg != nil && k%2 == 1 && !alg.Gathered()
		if probed {
			r.probeLook(alg, in.id, drive, lt)
		}
		sp := r.tr.begin("sim.step", in.id, drive)
		cont, err := e.Step()
		d := r.tr.end(sp)
		if e.Strategy().Round() > k && k < len(coreSteps) {
			if probed {
				lt.probedCore += coreSteps[k]
				lt.probedRR += robots[k]
			} else {
				lt.simStep += d
				lt.simCore += coreSteps[k]
				lt.simRR += robots[k]
			}
		}
		if err != nil || !cont {
			stepErr = err
			break
		}
	}
	r.tr.end(drive)
	lt.simAlloc += allocated() - a0
	res := e.Result()
	res.Rounds, res.FinalLen = e.Strategy().Round(), e.Chain().Len()
	check(outcome{res.Rounds, res.FinalLen}, res.Gathered, stepErr, e.Limit())
	return res, nil
}

// probeLook times the look-phase kernels of the coming round on one
// worker over the whole chain, gated exactly as StepActivated gates them.
func (r *run) probeLook(alg *core.Algorithm, id string, parent int, lt *layerTotals) {
	ch := alg.Chain()
	ch.Handles() // StepActivated materialises the ring order first too
	n := ch.Len()
	cfg := alg.Config()
	sp := r.tr.begin("core.merge_scan", id, parent)
	alg.KernelMergeScan(0, 0, n)
	err := alg.CombineMergePlan()
	lt.mergeScan += r.tr.end(sp)
	if err != nil {
		r.problem("probe CombineMergePlan: %v", err)
		return
	}
	lt.scanRobots += n
	runs := len(alg.Runs())
	sp = r.tr.begin("core.decide", id, parent)
	alg.KernelDecide(0, 0, runs)
	lt.decide += r.tr.end(sp)
	lt.decidedRuns += runs
	if !cfg.DisableRunStarts && alg.Round()%cfg.RunPeriod == 0 && n >= core.MinChainForRuns &&
		(!cfg.SequentialRuns || runs == 0) {
		sp = r.tr.begin("core.start_scan", id, parent)
		alg.KernelStartScan(0, 0, n)
		lt.start += r.tr.end(sp)
		lt.startRobots += n
	}
}

// setLayers sets the per-layer metrics, which every workload reports.
func (r *run) setLayers(lt *layerTotals) {
	ns := func(d time.Duration, per int) float64 { return float64(d) / float64(max(per, 1)) }
	look := lt.mergeScan + lt.decide + lt.start
	r.set("generate.us_per_chain", "us", ns(lt.build, lt.chains)/1e3, lt.chains)
	r.set("sim.new_engine_us", "us", ns(lt.newEngine, lt.engines)/1e3, lt.engines)
	r.set("core.step_ns_per_robot_round", "ns", ns(lt.coreStep, lt.coreRR), lt.coreRR)
	r.set("sim.step_ns_per_robot_round", "ns", ns(lt.simStep, lt.simRR), lt.simRR)
	r.set("sim.self_ns_per_robot_round", "ns", ns(lt.simStep-lt.simCore, lt.simRR), lt.simRR)
	r.set("core.merge_scan_ns_per_robot", "ns", ns(lt.mergeScan, lt.scanRobots), lt.scanRobots)
	r.set("core.decide_ns_per_run", "ns", ns(lt.decide, lt.decidedRuns), lt.decidedRuns)
	r.set("core.start_scan_ns_per_robot", "ns", ns(lt.start, lt.startRobots), lt.startRobots)
	r.set("core.tail_ns_per_robot_round", "ns", ns(lt.probedCore-look, lt.probedRR), lt.probedRR)
	r.set("core.look_share", "ratio", float64(look)/float64(max(lt.probedCore, 1)), lt.probedRR)
	r.set("core.alloc_b_per_robot_round", "B", float64(lt.coreAlloc)/float64(max(lt.coreRR, 1)), lt.coreRR)
	r.set("sim.alloc_b_per_robot_round", "B", float64(lt.simAlloc)/float64(max(lt.coreRR, 1)), lt.coreRR)
	for _, k := range []string{"core.rounds", "core.robot_rounds", "core.runs_started", "core.runs_decided", "core.hops", "core.hop_conflicts", "chain.merges"} {
		r.set(k, "count", float64(lt.counts[k]), 1)
	}
	r.set("core.idle_share", "ratio", 1-float64(lt.counts["core.hops"])/float64(max(lt.counts["core.robot_rounds"], 1)), 1)
}
