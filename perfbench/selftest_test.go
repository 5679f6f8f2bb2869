package main

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"strings"
	"testing"
	"time"

	"gridgather/internal/serve"
	"gridgather/internal/sim"
	"gridgather/internal/workload"
)

func newRun(small bool) *run {
	return &run{seed: defaultSeed, budget: time.Second, small: small, metrics: map[string]metric{}, samples: map[string]int{}}
}

type declared struct {
	EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
	PerLayer []struct{ Name, Unit string } `json:"per_layer"`
}

// TestEveryMetricPrinted runs each workload at minimal size, untraced and
// traced, and checks that each run prints every metric BENCHMARK.json
// names for it, each with its declared unit, and nothing it does not name.
func TestEveryMetricPrinted(t *testing.T) {
	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var d declared
	if err := json.Unmarshal(raw, &d); err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		traced bool
		want   []struct{ Name, Unit string }
	}{{false, d.EndToEnd}, {true, d.PerLayer}} {
		for name, w := range benches {
			res, err := execute(name, w, defaultSeed, time.Second, tc.traced, true, t.TempDir())
			if err != nil {
				t.Fatalf("%s traced=%v: %v", name, tc.traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s traced=%v: correct=%v attempted=%d failed=%d", name, tc.traced, res.Correct, res.Attempted, res.Failed)
			}
			names := map[string]bool{}
			for _, m := range tc.want {
				names[m.Name] = true
				got, ok := res.Metrics[m.Name]
				if !ok {
					t.Errorf("%s traced=%v: %s not printed", name, tc.traced, m.Name)
				} else if got.Unit != m.Unit {
					t.Errorf("%s traced=%v: %s printed in %s, declared in %s", name, tc.traced, m.Name, got.Unit, m.Unit)
				}
			}
			for k := range res.Metrics {
				if !names[k] {
					t.Errorf("%s traced=%v: %s is printed but not declared", name, tc.traced, k)
				}
			}
		}
	}
}

// TestCheckerRejectsFlippedRounds feeds the gather check a real outcome
// with its round count flipped, and the campaign check a digest with one
// item's rounds flipped.
func TestCheckerRejectsFlippedRounds(t *testing.T) {
	r := newRun(true)
	cases, err := buildGather(r)
	if err != nil {
		t.Fatal(err)
	}
	c := cases[0]
	e, err := sim.NewEngine(c.ch.Clone(), sim.Options{Strategy: c.strategy})
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Run()
	want := map[string]outcome{}
	r.checkOutcome(c.name, outcome{res.Rounds, res.FinalLen}, res.Gathered, err, e.Limit(), want)
	if len(r.problems) != 0 || r.failed != 0 {
		t.Fatalf("untampered gather rejected: %v", r.problems)
	}
	r.checkOutcome(c.name, outcome{res.Rounds + 1, res.FinalLen}, res.Gathered, nil, e.Limit(), want)
	if len(r.problems) != 1 || r.failed != 1 {
		t.Fatalf("flipped round count accepted: problems=%v failed=%d", r.problems, r.failed)
	}

	spec := campaignSpec(newRun(true))
	recs, err := workload.Execute(context.Background(), spec, campaignWorkers, 0)
	if err != nil {
		t.Fatal(err)
	}
	digest := func() string {
		h := sha256.New()
		for _, rec := range recs {
			digestItem(h, rec.Item.Index, rec.Gathered, rec.DNF, rec.Result)
		}
		return hex.EncodeToString(h.Sum(nil))
	}
	r = newRun(true)
	recorded := digest()
	recs[len(recs)/2].Result.Rounds++
	r.checkDigest(digest(), &recorded)
	if len(r.problems) != 1 {
		t.Fatalf("campaign with a flipped round count accepted")
	}
}

// TestCheckerRejectsUncachedHit answers a "hit" with a job the server has
// never seen, and a real hit against a tampered recorded result.
func TestCheckerRejectsUncachedHit(t *testing.T) {
	g, err := startGatherd(newRun(true))
	if err != nil {
		t.Fatal(err)
	}
	defer g.close()
	h := g.hits[0]
	if err := g.hit(h); err != nil {
		t.Fatalf("untampered hit rejected: %v", err)
	}
	fresh := h
	fresh.spec = serve.JobSpec{Shape: "walk", Size: 40, Seed: 12345}
	if fresh.body, err = json.Marshal(fresh.spec); err != nil {
		t.Fatal(err)
	}
	if err := g.hit(fresh); err == nil {
		t.Fatal("uncached answer accepted as a hit")
	}
	tampered := h
	tampered.result = append([]byte(nil), h.result...)
	tampered.result[len(tampered.result)/2] ^= 1
	if err := g.hit(tampered); err == nil {
		t.Fatal("hit with a different result accepted")
	}
}

// TestTracedDriveHeldToUntraced lets the untraced measurement record its
// gather outcomes and campaign digest, alters what it recorded, and checks
// that the traced drive, which must reproduce the untraced outcome,
// rejects the difference.
func TestTracedDriveHeldToUntraced(t *testing.T) {
	for _, name := range []string{"gather", "campaign"} {
		w := benches[name]
		r := newRun(true)
		if err := w.measure(r); err != nil {
			t.Fatal(err)
		}
		if len(r.problems) != 0 {
			t.Fatalf("%s: untraced measurement rejected: %v", name, r.problems)
		}
		if name == "gather" {
			o := r.outcomes["square"]
			o.Rounds++
			r.outcomes["square"] = o
		} else {
			r.digest = strings.Repeat("0", 64)
		}
		r.tr = newTracer()
		if err := w.trace(r); err != nil {
			t.Fatal(err)
		}
		if len(r.problems) == 0 {
			t.Errorf("%s: traced drive accepted an outcome the untraced measurement did not record", name)
		}
	}
}
