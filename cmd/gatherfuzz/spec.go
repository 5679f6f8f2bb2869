package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"gridgather/internal/oracle"
	"gridgather/internal/parallel"
	"gridgather/internal/workload"
)

// presetList names the embedded workload presets for the -spec flag help.
func presetList() string { return strings.Join(workload.PresetNames(), ", ") }

// specConflicts are the flags that define the raw-flag config space; a
// spec campaign owns those axes, so setting both is a contradiction the
// harness refuses rather than silently resolving.
var specConflicts = []string{"seed", "min-size", "max-size", "sched", "strategy"}

// specMain runs a spec-driven conformance campaign (-spec): the declared
// workload items replace the flag-built scenario space, and every item
// runs through the same oracle conformance check as a raw campaign. The
// campaign is a pure function of the spec bytes: items expand
// deterministically (workload.ExpandItem), so any failure reproduces with
// -spec ... -only INDEX.
func specMain(specArg string, scenarios, workers, only int, progress time.Duration, quiet bool) int {
	set := map[string]bool{}
	flag.Visit(func(f *flag.Flag) { set[f.Name] = true })
	for _, name := range specConflicts {
		if set[name] {
			fmt.Fprintf(os.Stderr, "gatherfuzz: -%s conflicts with -spec (the spec owns that axis)\n", name)
			return 2
		}
	}
	sp, err := workload.Load(specArg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "gatherfuzz:", err)
		return 2
	}
	items := sp.Items
	if set["scenarios"] {
		// An explicit -scenarios overrides the spec's item count: CI slices
		// trim a long campaign, soak runs extend it.
		items = scenarios
		sp.Items = scenarios
		if err := sp.Validate(); err != nil {
			fmt.Fprintln(os.Stderr, "gatherfuzz:", err)
			return 2
		}
	}

	if only >= 0 {
		it, err := sp.ExpandItem(only)
		if err != nil {
			fmt.Fprintln(os.Stderr, "gatherfuzz:", err)
			return 2
		}
		_, err = checkItem(it)
		fmt.Printf("item %d: %s n=%d sched=%s strategy=%s\n", it.Index, it.Family, it.N, it.Sched, it.Strategy)
		if err != nil {
			fmt.Println(err)
			return 1
		}
		fmt.Println("ok")
		return 0
	}

	ctx, stopSignals := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stopSignals()

	var (
		done        atomic.Int64
		dnf         atomic.Int64
		robots      atomic.Int64
		familyCount = make([]atomic.Int64, len(scenarioFamilies()))
	)
	familyIndex := map[string]int{}
	for fi, name := range scenarioFamilies() {
		familyIndex[name] = fi
	}

	start := time.Now()
	stopProgress := make(chan struct{})
	if progress > 0 {
		go func() {
			tick := time.NewTicker(progress)
			defer tick.Stop()
			for {
				select {
				case <-stopProgress:
					return
				case <-tick.C:
					d := done.Load()
					el := time.Since(start).Seconds()
					fmt.Fprintf(os.Stderr, "gatherfuzz: %d/%d items, %.0f/s\n", d, items, float64(d)/el)
				}
			}
		}()
	}

	err = parallel.ForEachContext(ctx, workers, items, func(i int) error {
		it, err := sp.ExpandItem(i)
		if err != nil {
			return err
		}
		res, err := checkItem(it)
		if err != nil {
			return fmt.Errorf("item %d (%s n=%d sched=%s strategy=%s): %w\nreproduce: gatherfuzz -spec %s -only %d",
				i, it.Family, it.N, it.Sched, it.Strategy, err, specArg, i)
		}
		if !res.Gathered {
			dnf.Add(1)
		}
		done.Add(1)
		robots.Add(int64(res.InitialLen))
		familyCount[familyIndex[it.Family]].Add(1)
		return nil
	})
	close(stopProgress)
	if err != nil {
		if errors.Is(err, context.Canceled) {
			stopSignals()
			fmt.Fprintf(os.Stderr, "gatherfuzz: interrupted after %d/%d items (no divergences)\n", done.Load(), items)
			return exitInterrupted
		}
		fmt.Fprintln(os.Stderr, "gatherfuzz: FAIL")
		fmt.Println(err)
		return 1
	}

	elapsed := time.Since(start)
	fmt.Printf("gatherfuzz: spec %s, %d items, seed %d\n", sp.Name, items, sp.Seed)
	fmt.Printf("divergences: 0\n")
	fmt.Printf("gathered: %d, DNF within the non-FSYNC watchdog: %d\n", done.Load()-dnf.Load(), dnf.Load())
	fmt.Printf("robots: %d total\n", robots.Load())
	fmt.Printf("per family:")
	for fi, name := range scenarioFamilies() {
		if n := familyCount[fi].Load(); n > 0 {
			fmt.Printf(" %s=%d", name, n)
		}
	}
	fmt.Println()
	if !quiet {
		fmt.Fprintf(os.Stderr, "gatherfuzz: %v elapsed, %.0f items/s\n",
			elapsed.Round(time.Millisecond), float64(items)/elapsed.Seconds())
	}
	return 0
}

// checkItem runs one expanded campaign item through the conformance
// oracle — the same lockstep/battery check the raw-flag campaign uses.
func checkItem(it workload.Item) (oracle.Result, error) {
	ch, err := it.Chain()
	if err != nil {
		return oracle.Result{}, fmt.Errorf("rebuilding scenario: %w", err)
	}
	return oracle.CheckWithOptions(it.EffectiveConfig(), ch, oracle.Options{Sched: it.Sched, Strategy: it.Strategy})
}
