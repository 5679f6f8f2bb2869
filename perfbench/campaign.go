package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"errors"
	"fmt"
	"hash"
	"runtime"
	"time"

	"gridgather/internal/parallel"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
	"gridgather/internal/workload"
)

// The campaign workload is a closed loop of workload.Execute calls on the
// embedded stress preset: thousands of items at n in [8, 256] over twelve
// families, six schedulers and both strategies, fanned out over two
// campaign workers. Per-item set-up, the non-FSYNC activation, fixpoint
// and stall paths and the parallel fan-out dominate it, which is the
// opposite mix to the gather workload.
const campaignWorkers = 2

// campaignItems is the item count of one campaign pass.
func campaignItems(small bool) int {
	if small {
		return 24
	}
	// Item costs are heavy-tailed (a few non-FSYNC items at n near 256
	// run thousands of rounds), so a pass must hold enough items for its
	// total work to vary little from seed to seed: at 3000 items it
	// varied by ±17%.
	return 12000
}

func campaignSpec(r *run) workload.Spec {
	s := workload.MustPreset("stress")
	s.Seed = r.seed
	s.Items = campaignItems(r.small)
	return s
}

// digestItem folds one item's behaviour into a campaign digest: index,
// verdict, rounds, final length, merges and hop totals. Result.Pairs and
// the other accounting fields stay out, so accounting may be switched off
// without tripping the check.
func digestItem(h hash.Hash, index int, gathered bool, dnf string, res sim.Result) {
	fmt.Fprintf(h, "%d %t %q %d %d %d %d %d %d\n", index, gathered, dnf,
		res.Rounds, res.FinalLen, res.TotalMerges, res.TotalRunnerHops, res.TotalMergeHops, res.TotalStartHops)
}

// checkDigest compares a pass's digest with the one recorded for the seed:
// the untraced measurement's in a traced drive, golden.go for the default
// seed at full size, otherwise the first pass.
func (r *run) checkDigest(got string, want *string) {
	if *want == "" {
		*want = got
		return
	}
	if got != *want {
		r.problem("campaign digest %s, recorded %s", got, *want)
	}
}

func campaignWant(r *run) string {
	if r.digest != "" {
		return r.digest
	}
	if r.seed == defaultSeed && !r.small {
		return goldenCampaignDigest
	}
	return ""
}

// setupCampaign times setups separate Spec.Expand calls and returns the
// median in seconds.
func setupCampaign(r *run, spec workload.Spec) (float64, error) {
	var times []float64
	for i := 0; i < setups; i++ {
		t0 := time.Now()
		if _, err := spec.Expand(context.Background(), campaignWorkers); err != nil {
			return 0, fmt.Errorf("expanding campaign: %w", err)
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return median(times), nil
}

// campaignE2E sets the end-to-end metrics from the passes' wall times
// and allocations; heap is the live heap with the last pass's records
// still held.
func campaignE2E(r *run, setup float64, items int, walls, allocMB []float64, heap float64) {
	var lat, rates []float64
	for _, w := range walls {
		lat = append(lat, w*1e3)
		rates = append(rates, float64(items)/w)
	}
	n := len(walls)
	r.set("setup_s", "s", setup, setups)
	r.set("latency_ms", "ms", median(lat), n)
	r.set("throughput_per_s", "1/s", median(rates), n)
	r.set("alloc_mb", "MB", median(allocMB), n)
	r.set("heap_mb", "MB", heap, 1)
}

func measureCampaign(r *run) error {
	spec := campaignSpec(r)
	setup, err := setupCampaign(r, spec)
	if err != nil {
		return err
	}
	want := campaignWant(r)
	var digest string
	var walls, allocMB []float64
	var recs []workload.Record
	for pc := newPacer(r.budget); pc.next(); {
		recs = nil // the previous pass's records are garbage from here on
		a0 := allocated()
		t0 := time.Now()
		recs, err = workload.Execute(context.Background(), spec, campaignWorkers, 0)
		walls = append(walls, time.Since(t0).Seconds())
		allocMB = append(allocMB, float64(allocated()-a0)/mib)
		if err != nil {
			// Execute stops at the first item error; the pass counts as
			// failed as a whole.
			r.problem("campaign: %v", err)
			for i := 0; i < spec.Items; i++ {
				r.attempt(false)
			}
			continue
		}
		h := sha256.New()
		for _, rec := range recs {
			digestItem(h, rec.Item.Index, rec.Gathered, rec.DNF, rec.Result)
			r.attempt(true)
		}
		digest = hex.EncodeToString(h.Sum(nil))
		r.checkDigest(digest, &want)
	}
	heap := liveHeapMB()
	runtime.KeepAlive(recs)
	r.digest = want
	fmt.Printf("digest %s (%d items, seed %d)\n", digest, spec.Items, spec.Seed)
	campaignE2E(r, setup, spec.Items, walls, allocMB, heap)
	return nil
}

// itemTrace is one re-driven item: its outcome and the boundaries of its
// four layer calls.
type itemTrace struct {
	item     workload.Item
	gathered bool
	dnf      string
	fsync    bool
	res      sim.Result
	// t holds start, after ExpandItem, after Item.Chain, after NewEngine
	// and after RunContext.
	t [5]time.Time
}

// redrive runs every item of the spec again through parallel.RunContext
// with the campaign's worker count, timing ExpandItem, Item.Chain,
// sim.NewEngine and Engine.RunContext per item. Workers write only their
// own item's slot; spans are added once the fan-out has returned.
func redrive(spec workload.Spec) ([]itemTrace, error) {
	tasks := make([]parallel.Task[itemTrace], spec.Items)
	for i := range tasks {
		tasks[i] = func(index int) (itemTrace, error) {
			var it itemTrace
			var err error
			it.t[0] = time.Now()
			if it.item, err = spec.ExpandItem(index); err != nil {
				return it, err
			}
			it.t[1] = time.Now()
			ch, err := it.item.Chain()
			if err != nil {
				return it, err
			}
			it.t[2] = time.Now()
			e, err := sim.NewEngine(ch, it.item.Options())
			if err != nil {
				return it, err
			}
			it.t[3] = time.Now()
			it.res, err = e.RunContext(context.Background())
			it.t[4] = time.Now()
			switch {
			case err == nil:
				it.gathered = true
			case errors.Is(err, sim.ErrWatchdog):
				it.dnf = workload.DNFWatchdog
			case errors.Is(err, sim.ErrStalled):
				it.dnf = workload.DNFStalled
			default:
				return it, fmt.Errorf("item %d: %w", index, err)
			}
			s, err := sched.New(it.item.Sched)
			if err != nil {
				return it, err
			}
			it.fsync = s.FullySync()
			return it, nil
		}
	}
	return parallel.RunContext(context.Background(), campaignWorkers, tasks)
}

// traceCampaign re-drives the campaign's items with a span around each
// layer call, then gathers every FSYNC item that gathered through the
// twin drives, which must reproduce the re-drive's outcome.
func traceCampaign(r *run) error {
	spec := campaignSpec(r)
	setup, err := setupCampaign(r, spec)
	if err != nil {
		return err
	}
	want := campaignWant(r)
	lt := &layerTotals{}
	var (
		walls, allocMB                  []float64
		expand, decode, newEngine, runs []float64
		busy, wallSum                   float64
		rounds, stalled, watchdog       int
		nsRR, robotRounds               [2]float64 // [0] non-FSYNC, [1] FSYNC
		items                           []itemTrace
	)
	for pc := newPacer(r.budget); pc.next(); {
		items = nil // the previous pass's items are garbage from here on
		a0 := allocated()
		t0 := time.Now()
		items, err = redrive(spec)
		wall := time.Since(t0)
		walls = append(walls, wall.Seconds())
		allocMB = append(allocMB, float64(allocated()-a0)/mib)
		if err != nil {
			r.problem("campaign re-drive: %v", err)
			for i := 0; i < spec.Items; i++ {
				r.attempt(false)
			}
			continue
		}
		wallSum += wall.Seconds()
		root := r.tr.add("parallel.run_context", "", -1, t0, t0.Add(wall))
		h := sha256.New()
		pass := [3]int{}
		for i, it := range items {
			id := fmt.Sprintf("item%d", i)
			parent := r.tr.add("campaign.item", id, root, it.t[0], it.t[4])
			for k, name := range []string{"workload.expand_item", "generate.decode", "sim.new_engine", "sim.run"} {
				r.tr.add(name, id, parent, it.t[k], it.t[k+1])
			}
			us := func(k int) float64 { return float64(it.t[k+1].Sub(it.t[k])) / float64(time.Microsecond) }
			expand = append(expand, us(0))
			decode = append(decode, us(1))
			newEngine = append(newEngine, us(2))
			runs = append(runs, us(3))
			lt.build += it.t[2].Sub(it.t[1])
			lt.chains++
			busy += it.t[4].Sub(it.t[0]).Seconds()
			f := 0
			if it.fsync {
				f = 1
			}
			nsRR[f] += us(3) * 1e3
			robotRounds[f] += float64(it.res.InitialLen) * float64(it.res.Rounds)
			pass[0] += it.res.Rounds
			switch it.dnf {
			case workload.DNFStalled:
				pass[1]++
			case workload.DNFWatchdog:
				pass[2]++
			}
			digestItem(h, i, it.gathered, it.dnf, it.res)
			r.attempt(true)
		}
		r.checkDigest(hex.EncodeToString(h.Sum(nil)), &want)
		rounds, stalled, watchdog = pass[0], pass[1], pass[2]
		if err := r.twinItems(items, lt); err != nil {
			return err
		}
	}
	heap := liveHeapMB()
	runtime.KeepAlive(items)
	campaignE2E(r, setup, spec.Items, walls, allocMB, heap)
	r.setLayers(lt)

	k := len(runs)
	r.detail("workload.expand_us_per_item", "us", median(expand), k)
	r.detail("generate.decode_us_per_item", "us", median(decode), k)
	r.detail("sim.new_engine_us_per_item", "us", median(newEngine), k)
	r.detail("sim.run_us_per_item.p50", "us", median(runs), k)
	r.detail("sim.run_us_per_item.p99", "us", quantile(runs, 0.99), k)
	r.detail("sim.ns_per_robot_round.fsync", "ns", nsRR[1]/robotRounds[1], k)
	r.detail("sim.ns_per_robot_round.nonfsync", "ns", nsRR[0]/robotRounds[0], k)
	r.detail("parallel.busy_share", "ratio", busy/(campaignWorkers*wallSum), len(walls))
	r.detail("sim.rounds", "count", float64(rounds), 1)
	r.detail("sim.dnf_stalled", "count", float64(stalled), 1)
	r.detail("sim.dnf_watchdog", "count", float64(watchdog), 1)
	return nil
}

// twinItems gathers every FSYNC item of a re-drive pass that gathered
// through the twin drives, holding both to the re-drive's outcome. The
// round-report totals of the first pass become lt.counts.
func (r *run) twinItems(items []itemTrace, lt *layerTotals) error {
	counts := map[string]int{}
	for i, it := range items {
		if !it.fsync || !it.gathered {
			continue
		}
		ch, err := it.item.Chain()
		if err != nil {
			return err
		}
		id := fmt.Sprintf("item%d", i)
		want := map[string]outcome{id: {it.res.Rounds, it.res.FinalLen}}
		check := func(o outcome, gathered bool, err error, limit int) {
			r.checkOutcome(id, o, gathered, err, limit, want)
		}
		if _, err := r.twin(twinInput{id: id, ch: ch, opts: it.item.Options()}, lt, counts, check); err != nil {
			return err
		}
	}
	if lt.counts == nil {
		lt.counts = counts
	}
	return nil
}
