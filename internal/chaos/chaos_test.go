package chaos

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"math/rand"
	"strconv"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// walkBuilder builds a seeded random closed walk of 2n robots.
func walkBuilder(n int, seed int64) func() (*chain.Chain, error) {
	return func() (*chain.Chain, error) {
		return generate.RandomClosedWalk(n, rand.New(rand.NewSource(seed)))
	}
}

// TestOracleCatchesArmedDefects arms every wrong-answer fault at several
// rounds — including mid-run arming, where the defect only appears after
// the engine has behaved correctly for a while — and requires the oracle
// to catch each (fault, armRound) combination on at least one workload of
// a fixed panel. Random walks gather in well under 13 rounds, so the
// late-arm cases need long-contracting deterministic shapes (a spiral
// keeps merging and spiking for ~99 rounds). The clean control (no fault,
// with a mid-run checkpoint round-trip) must pass on every workload, so
// the detector is sensitive without being trigger-happy.
func TestOracleCatchesArmedDefects(t *testing.T) {
	panel := []struct {
		name  string
		build func() (*chain.Chain, error)
	}{
		{"spiral_w8", func() (*chain.Chain, error) { return generate.Spiral(8) }},
		{"comb_8x9x3", func() (*chain.Chain, error) { return generate.Comb(8, 9, 3) }},
		{"walk_256_seed11", walkBuilder(256, 11)},
	}
	for _, fault := range []core.Fault{core.FaultSkipMergeResolution, core.FaultSkipSpikePriority} {
		for _, armAt := range []int{0, 5, 13} {
			t.Run(fault.String()+"@"+strconv.Itoa(armAt), func(t *testing.T) {
				for _, w := range panel {
					s := Scenario{
						Name:       w.name,
						Build:      w.build,
						Fault:      fault,
						FaultRound: armAt,
					}
					if err := RunOracle(s); err != nil {
						return // caught
					}
				}
				t.Fatalf("fault %s armed at round %d never caught on the %d-workload panel",
					fault, armAt, len(panel))
			})
		}
	}
	t.Run("clean control", func(t *testing.T) {
		rng := rand.New(rand.NewSource(92))
		for trial := 0; trial < 10; trial++ {
			s := Scenario{
				Name:            "control",
				Build:           walkBuilder(40+2*rng.Intn(40), rng.Int63()),
				CheckpointRound: 1 + trial*3,
			}
			if err := RunOracle(s); err != nil {
				t.Fatalf("clean scenario flagged: %v", err)
			}
		}
	})
}

// TestCancellationNeverTears cancels runs at several round boundaries
// and schedulers, and checks the full contract: the error wraps
// context.Canceled, the Result is sealed exactly at the cancelled
// boundary, and resuming from a post-cancel checkpoint reproduces the
// uninterrupted outcome byte for byte.
func TestCancellationNeverTears(t *testing.T) {
	for _, sc := range []sched.Config{{}, {Kind: sched.BoundedAdversary, Seed: 21}} {
		for _, stop := range []int{1, 5, 9} {
			// Case names keep the _w1 label of the era when a worker count
			// was swept; the engine has one round path.
			t.Run(sc.String()+"_w1@"+strconv.Itoa(stop), func(t *testing.T) {
				// A spiral contracts for ~99 FSYNC rounds, so every
				// cancel boundary below lands mid-run.
				build := func() (*chain.Chain, error) { return generate.Spiral(6) }
				ch, err := build()
				if err != nil {
					t.Fatal(err)
				}
				ref, err := sim.Gather(ch, sim.Options{Sched: sc})
				if err != nil {
					t.Fatal(err)
				}
				want, err := json.Marshal(ref)
				if err != nil {
					t.Fatal(err)
				}

				s := Scenario{Name: "cancel", Build: build, CancelRound: stop, Sched: sc}
				res, runErr, e := RunCancel(s)
				if !errors.Is(runErr, context.Canceled) {
					t.Fatalf("got %v, want context.Canceled", runErr)
				}
				if res.Rounds != stop {
					t.Fatalf("cancelled at round %d, want boundary %d", res.Rounds, stop)
				}
				if res.Gathered || res.FinalLen != e.Chain().Len() {
					t.Fatalf("torn result: %+v vs chain len %d", res, e.Chain().Len())
				}

				cp, err := e.Checkpoint()
				if err != nil {
					t.Fatal(err)
				}
				rt, err := sim.Restore(cp, sim.Options{})
				if err != nil {
					t.Fatal(err)
				}
				resumed, err := rt.Run()
				if err != nil {
					t.Fatal(err)
				}
				got, err := json.Marshal(resumed)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("resume after cancel diverged\ngot:  %s\nwant: %s", got, want)
				}
			})
		}
	}
}

// TestPanicCampaignIsolation is the panic-containment acceptance battery:
// in a 12-cell campaign whose fifth cell panics in its first round, exactly
// that cell fails — as a contained *sim.PanicError carrying the failing
// round — every other cell gathers, and the failing cell reports the
// deterministic task seed that reproduces it in isolation.
func TestPanicCampaignIsolation(t *testing.T) {
	const (
		cells = 12
		armed = 5
	)
	cellsOut := PanicCampaign(77, cells, armed, 4)
	if len(cellsOut) != cells {
		t.Fatalf("campaign reported %d cells, want %d", len(cellsOut), cells)
	}
	for _, c := range cellsOut {
		if c.Index == armed {
			var pe *sim.PanicError
			if !errors.As(c.Err, &pe) {
				t.Fatalf("armed cell %d: got %v (%T), want *sim.PanicError", c.Index, c.Err, c.Err)
			}
			if pe.Round != 1 {
				t.Fatalf("armed cell panicked in round %d, want 1", pe.Round)
			}
			if c.Seed == 0 {
				t.Fatal("armed cell lost its reproduction seed")
			}
			continue
		}
		if c.Err != nil {
			t.Errorf("cell %d (seed %d) failed although only cell %d was armed: %v", c.Index, c.Seed, armed, c.Err)
		}
	}
}

// TestCorruptCheckpointsRejected is the checkpoint-corruption battery:
// every representative truncation and a sweep of byte flips over a real
// encoded checkpoint must be rejected by the codec (or, for flips that
// keep the envelope intact, by Restore's semantic validation) with a
// non-nil, typed error — never accepted, never a panic.
func TestCorruptCheckpointsRejected(t *testing.T) {
	ch, err := walkBuilder(48, 31)()
	if err != nil {
		t.Fatal(err)
	}
	e, err := sim.NewEngine(ch, sim.Options{Sched: sched.Config{Kind: sched.Random, Seed: 41}})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := e.Step(); err != nil {
			t.Fatal(err)
		}
	}
	cp, err := e.Checkpoint()
	if err != nil {
		t.Fatal(err)
	}
	data, err := cp.Encode()
	if err != nil {
		t.Fatal(err)
	}

	for _, cut := range Truncations(data) {
		if _, err := sim.DecodeCheckpoint(cut); !errors.Is(err, sim.ErrCheckpointCorrupt) {
			t.Fatalf("truncation to %d bytes: got %v, want ErrCheckpointCorrupt", len(cut), err)
		}
	}
	for i := 0; i < len(data); i += 7 {
		bad, err := sim.DecodeCheckpoint(FlipByte(data, i))
		if err == nil {
			_, err = sim.Restore(bad, sim.Options{})
		}
		if err == nil {
			t.Fatalf("flipping byte %d went undetected", i)
		}
		if !errors.Is(err, sim.ErrCheckpointCorrupt) && !errors.Is(err, sim.ErrCheckpointVersion) {
			t.Fatalf("flipping byte %d: untyped rejection %v", i, err)
		}
	}
}
