package main

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sim"
)

// The gather workload is a closed loop: one engine at a time, default
// config, each chain built once and cloned for every gather. The paper
// chains exercise the phase kernels and the Lemma accounting at large n;
// the lintime case runs the same engine through a strategy that starts no
// runs, so a paper-only change must leave the lintime figures where they
// were. The square stops at 4096 robots because
// generate.Rectangle materialises every cell of its w×h interior.
type gatherCase struct {
	name     string
	strategy core.StrategyName
	reps     int
	ch       *chain.Chain
	// seeded marks the chain the workload seed draws. Its cost swings
	// several-fold from seed to seed (76 to 812 rounds, and 0.3 to 1.5 s
	// on a 2-vCPU 2.0 GHz VM, at n=16384), so it is gathered and checked
	// on every pass but kept out of the end-to-end figures, which must
	// hold still across seeds.
	seeded bool
}

// outcome is what a gather must reproduce on every pass.
type outcome struct {
	Rounds, FinalLen int
}

// gatherSizes are the chain sizes: square side, walk and spiral length,
// and how often the lintime square repeats per pass.
func gatherSizes(small bool) (square, walk, spiral, lintimeReps int) {
	if small {
		return 64, 256, 256, 2
	}
	return 4096, 16384, 16384, 16
}

// buildGather builds the workload's chains; the walk is drawn from the
// workload seed.
func buildGather(r *run) ([]gatherCase, error) {
	sq, wk, sp, reps := gatherSizes(r.small)
	rng := rand.New(rand.NewSource(r.seed))
	square, err1 := generate.Named("rectangle", sq, rng)
	walk, err2 := generate.Named("walk", wk, rng)
	spiral, err3 := generate.Named("spiral", sp, rng)
	if err := errors.Join(err1, err2, err3); err != nil {
		return nil, fmt.Errorf("building gather chains: %w", err)
	}
	return []gatherCase{
		{name: "square", strategy: core.StrategyPaper, reps: 1, ch: square},
		{name: "spiral", strategy: core.StrategyPaper, reps: 1, ch: spiral},
		{name: "lintime", strategy: core.StrategyLinTime, reps: reps, ch: square},
		{name: "walk", strategy: core.StrategyPaper, reps: 1, ch: walk, seeded: true},
	}, nil
}

// setupGather builds the chains setups times and returns the last set with
// the median build time in seconds.
func setupGather(r *run) ([]gatherCase, float64, error) {
	var cases []gatherCase
	var times []float64
	for i := 0; i < setups; i++ {
		var sp int
		if r.tr != nil {
			sp = r.tr.begin("generate.build", "", -1)
		}
		t0 := time.Now()
		c, err := buildGather(r)
		if err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
		if r.tr != nil {
			r.tr.end(sp)
		}
		cases = c
	}
	return cases, median(times), nil
}

// checkOutcome checks one gather's end state against its watchdog budget
// and against the outcome recorded under its id in want (the first pass,
// golden.go for the default seed, what the untraced measurement recorded,
// or, for a twin drive, what the workload itself produced), and counts
// it.
func (r *run) checkOutcome(id string, o outcome, gathered bool, err error, limit int, want map[string]outcome) {
	ok := err == nil && gathered && o.Rounds <= limit
	if !ok {
		r.problem("gather %s: gathered=%v rounds=%d limit=%d err=%v", id, gathered, o.Rounds, limit, err)
	}
	if w, seen := want[id]; !seen {
		want[id] = o
	} else if w != o {
		r.problem("gather %s: outcome %+v, recorded %+v", id, o, w)
		ok = false
	}
	r.attempt(ok)
}

// gatherWant returns the outcomes a run must reproduce: those the untraced
// measurement recorded, else the golden ones for the default seed at full
// size, else (empty) those of the first pass.
func gatherWant(r *run) map[string]outcome {
	src := r.outcomes
	if src == nil && r.seed == defaultSeed && !r.small {
		src = goldenGather
	}
	want := map[string]outcome{}
	for k, v := range src {
		want[k] = v
	}
	return want
}

// gatherPass is what one pass measured over the unseeded gathers: wall
// time and robot-rounds (InitialLen × Rounds) per strategy, bytes
// allocated, and the paper square's wall time.
type gatherPass struct {
	wall, robotRounds [2]float64 // [0] paper, [1] lintime
	square            float64
	alloc             uint64
}

// add counts one gather of case c into the pass.
func (p *gatherPass) add(c gatherCase, res sim.Result, wall float64, alloc uint64) {
	if c.seeded {
		return
	}
	s := 0
	if c.strategy == core.StrategyLinTime {
		s = 1
	}
	p.alloc += alloc
	p.wall[s] += wall
	p.robotRounds[s] += float64(res.InitialLen) * float64(res.Rounds)
	if c.name == "square" {
		p.square = wall
	}
}

// gatherE2E sets the end-to-end metrics from the passes; heap is the live
// heap with the chains still held. The time per robot-round of each
// strategy is a detail, which a paper-only change must leave unmoved for
// lintime.
func gatherE2E(r *run, setup float64, passes []gatherPass, heap float64) {
	var sq, rate, allocMB, paper, lin []float64
	for _, p := range passes {
		allocMB = append(allocMB, float64(p.alloc)/mib)
		sq = append(sq, p.square*1e3)
		rate = append(rate, (p.robotRounds[0]+p.robotRounds[1])/(p.wall[0]+p.wall[1]))
		paper = append(paper, p.wall[0]*1e9/p.robotRounds[0])
		lin = append(lin, p.wall[1]*1e9/p.robotRounds[1])
	}
	n := len(passes)
	r.set("setup_s", "s", setup, setups)
	r.set("latency_ms", "ms", median(sq), n)
	r.set("throughput_per_s", "1/s", median(rate), n)
	r.set("alloc_mb", "MB", median(allocMB), n)
	r.set("heap_mb", "MB", heap, 1)
	r.detail("paper_ns_per_robot_round", "ns", median(paper), n)
	r.detail("lintime_ns_per_robot_round", "ns", median(lin), n)
}

func measureGather(r *run) error {
	cases, setup, err := setupGather(r)
	if err != nil {
		return err
	}
	want := gatherWant(r)
	var passes []gatherPass
	for pc := newPacer(r.budget); pc.next(); {
		var p gatherPass
		for _, c := range cases {
			// Collect the previous case's garbage first, so that no case
			// pays for another's.
			runtime.GC()
			for i := 0; i < c.reps; i++ {
				ch := c.ch.Clone()
				a0 := allocated()
				t0 := time.Now()
				e, err := sim.NewEngine(ch, sim.Options{Strategy: c.strategy})
				if err != nil {
					return err
				}
				res, err := e.RunContext(context.Background())
				wall := time.Since(t0).Seconds()
				alloc := allocated() - a0
				r.checkOutcome(c.name, outcome{res.Rounds, res.FinalLen}, res.Gathered, err, e.Limit(), want)
				p.add(c, res, wall, alloc)
			}
		}
		passes = append(passes, p)
	}
	heap := liveHeapMB()
	runtime.KeepAlive(cases)
	r.outcomes = want
	for _, c := range cases {
		fmt.Printf("outcome %-8s rounds=%d final_len=%d\n", c.name, want[c.name].Rounds, want[c.name].FinalLen)
	}
	gatherE2E(r, setup, passes, heap)
	return nil
}

// traceGather drives every case through the twin drives; the engine
// drive gives the end-to-end figures as seen under tracing.
func traceGather(r *run) error {
	cases, setup, err := setupGather(r)
	if err != nil {
		return err
	}
	want := gatherWant(r)
	var passes []gatherPass
	lt := &layerTotals{build: time.Duration(setup * float64(time.Second)), chains: 3}
	for pc := newPacer(r.budget); pc.next(); {
		var p gatherPass
		counts := map[string]int{}
		for _, c := range cases {
			// Collect the previous case's garbage first, so that no case
			// pays for another's.
			runtime.GC()
			check := func(o outcome, gathered bool, err error, limit int) {
				r.checkOutcome(c.name, o, gathered, err, limit, want)
			}
			for i := 0; i < c.reps; i++ {
				in := twinInput{id: c.name, ch: c.ch, opts: sim.Options{Strategy: c.strategy}}
				steps, robots, err := r.coreDrive(in, lt, counts, check)
				if err != nil {
					return err
				}
				a0 := allocated()
				t0 := time.Now()
				res, err := r.simDrive(in, lt, steps, robots, check)
				if err != nil {
					return err
				}
				p.add(c, res, time.Since(t0).Seconds(), allocated()-a0)
			}
		}
		if lt.counts == nil {
			lt.counts = counts
		}
		passes = append(passes, p)
	}
	heap := liveHeapMB()
	runtime.KeepAlive(cases)
	gatherE2E(r, setup, passes, heap)
	r.setLayers(lt)
	return nil
}
