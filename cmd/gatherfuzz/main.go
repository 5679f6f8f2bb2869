// Command gatherfuzz is the conformance stress harness: it fans large
// numbers of randomized (family × size × configuration × seed) scenarios
// through the worker pool, running every one through the conformance check
// of internal/oracle — the engine-vs-model lockstep for the paper strategy
// (positions, merges, run registry, round reports, termination, invariant
// battery — every round), the battery-plus-watchdog path for strategies
// without a model mirror.
//
// Scenario randomness derives from the per-task seed alone
// (parallel.TaskSeed), so a campaign is reproducible from its -seed and
// any failing scenario is re-runnable in isolation via -only. On a
// divergence the harness shrinks the failing chain to a minimal witness
// and prints a ready-to-paste seed, then exits non-zero.
//
// Scenarios additionally cross an activation scheduler (internal/sched)
// into every cell: -sched mix (the default) draws from the same scheduler
// space the native fuzz targets use, -sched fsync restores the pure
// synchronous campaign, and any explicit config (e.g. -sched rr:3) pins
// one model for a whole run. Under non-FSYNC schedulers liveness is not
// asserted (Theorem 1 is FSYNC-only): scenarios that exhaust the scaled
// watchdog without divergence count as DNF in the summary, not as
// failures.
//
// The gathering strategy (DESIGN.md §10) is the fourth axis: -strategy mix
// (the default) draws from the registered strategies per scenario,
// -strategy paper or -strategy lintime pins one for a whole run. The paper
// strategy runs the full engine-vs-model lockstep; strategies without a
// model mirror run the invariant battery plus the liveness watchdog
// (FSYNC non-gathering is a divergence, non-FSYNC watchdog expiry a DNF).
//
// Usage:
//
//	gatherfuzz                          # 100k scenarios, all families, mixed schedulers and strategies
//	gatherfuzz -scenarios 1000000       # the million-chain campaign
//	gatherfuzz -max-size 256 -seed 7    # smaller chains, different stream
//	gatherfuzz -sched bounded:3         # one activation model for the whole run
//	gatherfuzz -strategy lintime        # conformance-slice the contraction strategy
//	gatherfuzz -only 123456             # re-run one scenario index
//	gatherfuzz -resume failure.bundle   # replay a recorded failure
//	gatherfuzz -spec stress             # declarative campaign from the embedded stress preset
//	gatherfuzz -spec camp.yaml -only 7  # re-run item 7 of a spec campaign
//
// -spec replaces the flag-built config space with a declarative workload
// spec (internal/workload): the YAML file declares the scenario families,
// size distributions, scheduler and strategy mixes, and the campaign seed;
// every expanded item runs through the same conformance oracle. The
// campaign is a pure function of the spec bytes, so -scenarios trims or
// extends the item count and -only reproduces a single item. Flags that
// shape the raw config space (-seed, -min-size, -max-size, -sched,
// -strategy) conflict with -spec and are rejected.
//
// On a divergence the campaign also writes a diagnostic bundle (-bundle,
// default gatherfuzz-failure.bundle): the exact failing chain plus its
// configuration, scheduler and strategy in one checksummed file,
// replayable anywhere via -resume without rebuilding the campaign.
// SIGINT/SIGTERM stop the campaign at a scenario boundary: in-flight
// scenarios drain, the progress reached is reported, and the process exits
// with status 130.
//
// The summary on stdout is deterministic for a given flag set; timing and
// throughput (scenarios/s) go to stderr, following the repo convention
// that stdout is byte-reproducible.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"math/rand"
	"os"
	"os/signal"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/oracle"
	"gridgather/internal/parallel"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// exitInterrupted is the conventional exit status of a SIGINT-terminated
// process (128+2); scripts can tell an interrupted campaign from a failed
// one.
const exitInterrupted = 130

func main() { os.Exit(gatherfuzzMain()) }

func gatherfuzzMain() int {
	var (
		scenarios = flag.Int("scenarios", 100_000, "number of randomized scenarios to check")
		seed      = flag.Int64("seed", 1, "base seed; per-scenario seeds derive from it")
		minSize   = flag.Int("min-size", 8, "minimum target chain size")
		maxSize   = flag.Int("max-size", 1024, "maximum target chain size (log-uniform between min and max)")
		workers   = flag.Int("parallel", 0, "worker-pool size; 0 = GOMAXPROCS")
		only      = flag.Int("only", -1, "run only this scenario index (reproduce a failure)")
		schedFlag = flag.String("sched", "mix", "activation scheduler: mix (draw per scenario from the fuzzing space), or one config (fsync, rr:K, bounded:K[:p=P][:seed=S], random[:p=P][:seed=S])")
		stratFlag = flag.String("strategy", "mix", "gathering strategy: mix (draw per scenario from the registry), paper, or lintime")
		progress  = flag.Duration("progress", 10*time.Second, "progress interval on stderr (0 = off)")
		quiet     = flag.Bool("quiet", false, "suppress the timing summary on stderr")
		bundle    = flag.String("bundle", "gatherfuzz-failure.bundle", "write the failing scenario (chain, config, scheduler, strategy) to this diagnostic bundle on a divergence; replay with -resume (empty = off)")
		resume    = flag.String("resume", "", "replay a diagnostic bundle written by -bundle and report whether the divergence reproduces")
		spec      = flag.String("spec", "", "run a declarative workload campaign instead of the flag-built space: a preset name ("+presetList()+") or a spec file path; -scenarios overrides the item count, -only reruns one item")
	)
	flag.Parse()
	if *resume != "" {
		return resumeBundle(*resume)
	}
	if *spec != "" {
		return specMain(*spec, *scenarios, *workers, *only, *progress, *quiet)
	}
	if *minSize < 4 || *maxSize < *minSize {
		fmt.Fprintln(os.Stderr, "gatherfuzz: need 4 <= min-size <= max-size")
		return 2
	}
	var forced *sched.Config
	if *schedFlag != "mix" {
		cfg, err := sched.Parse(*schedFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gatherfuzz:", err)
			return 2
		}
		forced = &cfg
	}
	var forcedStrat *core.StrategyName
	if *stratFlag != "mix" {
		name, err := core.ParseStrategy(*stratFlag)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gatherfuzz:", err)
			return 2
		}
		forcedStrat = &name
	}

	if *only >= 0 {
		desc, err := runScenario(*seed, *only, *minSize, *maxSize, forced, forcedStrat)
		fmt.Printf("scenario %d: %s\n", *only, desc)
		if err != nil {
			fmt.Println(err)
			return 1
		}
		fmt.Println("ok")
		return 0
	}

	// SIGINT/SIGTERM cancel the campaign's context: no new scenarios are
	// dispatched, in-flight ones finish, and the progress reached is
	// reported before exiting with the interrupt status.
	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var (
		done        atomic.Int64
		robots      atomic.Int64
		rounds      atomic.Int64
		merges      atomic.Int64
		maxN        atomic.Int64
		dnf         atomic.Int64
		familyCount = make([]atomic.Int64, len(scenarioFamilies()))

		// The first failing scenario's diagnostic bundle (guarded: several
		// workers can fail concurrently; the campaign reports the
		// lowest-error-precedence one ForEachContext returns, the bundle
		// records whichever failure was captured first).
		bundleMu  sync.Mutex
		failureBd *sim.Bundle
	)
	start := time.Now()
	stopProgress := make(chan struct{})
	if *progress > 0 {
		go func() {
			tick := time.NewTicker(*progress)
			defer tick.Stop()
			for {
				select {
				case <-stopProgress:
					return
				case <-tick.C:
					d := done.Load()
					el := time.Since(start).Seconds()
					fmt.Fprintf(os.Stderr, "gatherfuzz: %d/%d scenarios, %.0f/s\n", d, *scenarios, float64(d)/el)
				}
			}
		}()
	}

	err := parallel.ForEachContext(ctx, *workers, *scenarios, func(i int) error {
		sc := makeScenario(*seed, i, *minSize, *maxSize, forced, forcedStrat)
		ch, err := sc.build()
		if err != nil {
			return fmt.Errorf("scenario %d (%s): generator failed: %w", i, sc.desc(), err)
		}
		res, err := oracle.CheckWithOptions(sc.cfg(), ch, sc.oracleOpts())
		if err != nil {
			bundleMu.Lock()
			if failureBd == nil {
				failureBd = &sim.Bundle{
					Label:    fmt.Sprintf("scenario %d (%s)", i, sc.desc()),
					Seed:     parallel.TaskSeed(*seed, 0, i),
					Scenario: ch,
					Config:   sc.cfg(),
					Strategy: sc.strategy(),
					Sched:    sc.schedCfg(),
					Round:    -1,
					Err:      err.Error(),
				}
			}
			bundleMu.Unlock()
			minimal := oracle.Shrink(ch.Positions(), func(c *chain.Chain) bool {
				_, serr := oracle.CheckWithOptions(sc.cfg(), c, sc.oracleOpts())
				return serr != nil
			})
			return fmt.Errorf("scenario %d (%s): %w\nreproduce: gatherfuzz -seed %d -min-size %d -max-size %d -sched %s -strategy %s -only %d\nshrunk witness:\n%s",
				i, sc.desc(), err, *seed, *minSize, *maxSize, *schedFlag, *stratFlag, i, oracle.FormatSeed(minimal))
		}
		if !res.Gathered {
			dnf.Add(1)
		}
		done.Add(1)
		robots.Add(int64(res.InitialLen))
		rounds.Add(int64(res.Rounds))
		merges.Add(int64(res.TotalMerges))
		familyCount[sc.family].Add(1)
		for {
			cur := maxN.Load()
			if int64(res.InitialLen) <= cur || maxN.CompareAndSwap(cur, int64(res.InitialLen)) {
				break
			}
		}
		return nil
	})
	close(stopProgress)
	if err != nil {
		// Task errors take precedence over the context error in
		// ForEachContext, so a bare context.Canceled means a clean
		// interrupt: report the progress reached, not a failure.
		if errors.Is(err, context.Canceled) && failureBd == nil {
			stopSignals()
			fmt.Fprintf(os.Stderr, "gatherfuzz: interrupted after %d/%d scenarios (no divergences)\n",
				done.Load(), *scenarios)
			return exitInterrupted
		}
		fmt.Fprintln(os.Stderr, "gatherfuzz: FAIL")
		fmt.Println(err)
		if failureBd != nil && *bundle != "" {
			if werr := sim.WriteBundle(*bundle, failureBd); werr != nil {
				fmt.Fprintln(os.Stderr, "gatherfuzz: writing bundle:", werr)
			} else {
				fmt.Fprintf(os.Stderr, "gatherfuzz: diagnostic bundle written — replay with: gatherfuzz -resume %s\n", *bundle)
			}
		}
		return 1
	}

	elapsed := time.Since(start)
	fmt.Printf("gatherfuzz: %d scenarios, %d families x %d configs x sched %s x strategy %s, sizes %d..%d, seed %d\n",
		*scenarios, len(scenarioFamilies()), oracle.NumConfigs(), schedSpaceDesc(forced),
		strategySpaceDesc(forcedStrat), *minSize, *maxSize, *seed)
	fmt.Printf("divergences: 0\n")
	fmt.Printf("gathered: %d, DNF within the non-FSYNC watchdog: %d\n",
		done.Load()-dnf.Load(), dnf.Load())
	fmt.Printf("robots: %d total (largest chain %d), rounds: %d, merges: %d\n",
		robots.Load(), maxN.Load(), rounds.Load(), merges.Load())
	fmt.Printf("per family:")
	for fi, name := range scenarioFamilies() {
		fmt.Printf(" %s=%d", name, familyCount[fi].Load())
	}
	fmt.Println()
	if !*quiet {
		fmt.Fprintf(os.Stderr, "gatherfuzz: %v elapsed, %.0f scenarios/s\n",
			elapsed.Round(time.Millisecond), float64(*scenarios)/elapsed.Seconds())
	}
	return 0
}

// scenarioFamilies lists the workload families a scenario can draw: every
// structured generator plus raw byte soup through the fuzz decoder.
func scenarioFamilies() []string {
	return append(generate.Names(), "bytes")
}

// schedSpaceDesc names the scheduler axis in the deterministic summary.
func schedSpaceDesc(forced *sched.Config) string {
	if forced != nil {
		return forced.String()
	}
	return fmt.Sprintf("mix(%d)", oracle.NumScheds())
}

// strategySpaceDesc names the strategy axis in the deterministic summary.
func strategySpaceDesc(forced *core.StrategyName) string {
	if forced != nil {
		return forced.String()
	}
	return fmt.Sprintf("mix(%d)", oracle.NumStrategies())
}

// scenario is one fully derived (family, size, config, scheduler,
// strategy, seed) cell.
type scenario struct {
	family      int
	size        int
	cfgSel      int
	schedSel    int
	stratSel    int
	forced      *sched.Config
	forcedStrat *core.StrategyName
	rngSeed     int64
}

// makeScenario derives scenario i of the campaign. All randomness flows
// from TaskSeed(base, 0, i): the campaign is a pure function of the base
// seed (and the -sched / -strategy overrides), and any cell can be
// reproduced alone. The strategy draw happens unconditionally so pinning
// it changes only that axis, never the rest of the cell.
func makeScenario(base int64, i, minSize, maxSize int, forced *sched.Config, forcedStrat *core.StrategyName) scenario {
	rng := rand.New(rand.NewSource(parallel.TaskSeed(base, 0, i)))
	families := scenarioFamilies()
	sc := scenario{
		family:   rng.Intn(len(families)),
		cfgSel:   rng.Intn(oracle.NumConfigs()),
		schedSel: rng.Intn(oracle.NumScheds()),
	}
	// One draw in [0, 8) is discarded here so that scenario i of a seed
	// stays the cell earlier releases of this harness drew (they spent it
	// on a per-scenario engine setting), keeping -only reproductions valid.
	rng.Intn(8)
	sc.stratSel = rng.Intn(oracle.NumStrategies())
	sc.forced, sc.forcedStrat = forced, forcedStrat
	sc.rngSeed = rng.Int63()
	// Log-uniform size: most scenarios small (where shapes are degenerate
	// and bugs shrink nicely), a steady tail up to max-size.
	lo, hi := float64(minSize), float64(maxSize)
	sc.size = int(lo * math.Pow(hi/lo, rng.Float64()))
	return sc
}

// cfg maps the scenario's selector onto the shared fuzzing configuration
// space.
func (sc scenario) cfg() core.Config {
	return oracle.ConfigFromByte(uint8(sc.cfgSel))
}

// schedCfg is the scenario's activation model: the -sched override when
// set, otherwise the cell's draw from the fuzzing scheduler space.
func (sc scenario) schedCfg() sched.Config {
	if sc.forced != nil {
		return *sc.forced
	}
	return oracle.SchedFromByte(uint8(sc.schedSel))
}

// strategy is the scenario's gathering strategy: the -strategy override
// when set, otherwise the cell's draw from the fuzzing strategy space.
func (sc scenario) strategy() core.StrategyName {
	if sc.forcedStrat != nil {
		return *sc.forcedStrat
	}
	return oracle.StrategyFromByte(uint8(sc.stratSel))
}

// oracleOpts bundles the scenario's conformance options for the check and
// the shrinker (which must search under the identical cell).
func (sc scenario) oracleOpts() oracle.Options {
	return oracle.Options{Sched: sc.schedCfg(), Strategy: sc.strategy()}
}

func (sc scenario) desc() string {
	return fmt.Sprintf("family=%s size=%d cfg=%d sched=%s strategy=%s seed=%d",
		scenarioFamilies()[sc.family], sc.size, sc.cfgSel, sc.schedCfg(), sc.strategy(), sc.rngSeed)
}

// build constructs the scenario's start configuration.
func (sc scenario) build() (*chain.Chain, error) {
	rng := rand.New(rand.NewSource(sc.rngSeed))
	families := scenarioFamilies()
	if families[sc.family] == "bytes" {
		data := make([]byte, sc.size)
		rng.Read(data)
		return generate.FromBytes(data)
	}
	return generate.Named(families[sc.family], sc.size, rng)
}

// resumeBundle replays a diagnostic bundle written by a failing campaign
// (-bundle): it re-runs the recorded scenario — exact chain, configuration,
// scheduler and strategy — through the conformance check and
// reports whether the divergence reproduces. Exit status: 0 when the
// scenario now passes, 1 when the divergence reproduces, 2 when the bundle
// cannot be read (corrupt, truncated, or the wrong artifact).
func resumeBundle(path string) int {
	b, err := sim.ReadBundle(path)
	if err != nil {
		fmt.Fprintf(os.Stderr, "gatherfuzz: reading bundle %s: %v\n", path, err)
		return 2
	}
	fmt.Printf("replaying %s\n", b.Label)
	if b.Err != "" {
		fmt.Printf("recorded failure: %s\n", b.Err)
	}
	if _, err := oracle.CheckWithOptions(b.Config, b.Scenario, oracle.Options{Sched: b.Sched, Strategy: b.Strategy}); err != nil {
		fmt.Printf("divergence reproduces: %v\n", err)
		return 1
	}
	fmt.Println("ok — the recorded divergence no longer reproduces")
	return 0
}

// runScenario reproduces one scenario index in isolation (-only).
func runScenario(base int64, i, minSize, maxSize int, forced *sched.Config, forcedStrat *core.StrategyName) (string, error) {
	sc := makeScenario(base, i, minSize, maxSize, forced, forcedStrat)
	ch, err := sc.build()
	if err != nil {
		return sc.desc(), err
	}
	_, err = oracle.CheckWithOptions(sc.cfg(), ch, sc.oracleOpts())
	return fmt.Sprintf("%s n=%d", sc.desc(), ch.Len()), err
}
