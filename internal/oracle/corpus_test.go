package oracle_test

import (
	"flag"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"gridgather/internal/chain"
	"gridgather/internal/generate"
	"gridgather/internal/oracle"
)

// -update-corpus rewrites the committed seed corpus from the current
// generators:
//
//	go test ./internal/oracle -run TestSeedCorpus -update-corpus
//
// The corpus gives the fuzz targets real structure to mutate from: one
// small chain per generator family, the golden-trace start configurations
// of the representation-equivalence suite (internal/sim/testdata/golden),
// and a family/size/seed triple per generator for the family fuzzer.
var updateCorpus = flag.Bool("update-corpus", false, "rewrite the committed fuzz seed corpus")

// corpusChains returns the named start configurations committed for
// FuzzEngineVsOracle.
func corpusChains(t *testing.T) map[string]*chain.Chain {
	t.Helper()
	out := map[string]*chain.Chain{}
	add := func(name string, build func() (*chain.Chain, error)) {
		ch, err := build()
		if err != nil {
			t.Fatalf("corpus workload %s: %v", name, err)
		}
		out[name] = ch
	}

	// One small ("minimized") chain per generator family.
	rng := rand.New(rand.NewSource(71))
	for _, name := range generate.Names() {
		name := name
		add("family_"+name, func() (*chain.Chain, error) { return generate.Named(name, 12, rng) })
	}

	// The PR 3 golden-trace starts (internal/sim/golden_test.go), so the
	// fuzzer begins from the exact configurations the equivalence fixtures
	// pin.
	add("golden_rectangle_48x48", func() (*chain.Chain, error) { return generate.Rectangle(48, 48) })
	add("golden_rectangle_20x77", func() (*chain.Chain, error) { return generate.Rectangle(20, 77) })
	add("golden_spiral_w8", func() (*chain.Chain, error) { return generate.Spiral(8) })
	add("golden_staircase_12x5", func() (*chain.Chain, error) { return generate.Staircase(12, 5) })
	add("golden_comb_8x9x3", func() (*chain.Chain, error) { return generate.Comb(8, 9, 3) })
	add("golden_walk_256_seed11", func() (*chain.Chain, error) {
		return generate.RandomClosedWalk(256, rand.New(rand.NewSource(11)))
	})
	add("golden_walk_512_seed42", func() (*chain.Chain, error) {
		return generate.RandomClosedWalk(512, rand.New(rand.NewSource(42)))
	})
	add("golden_polyomino_300_seed5", func() (*chain.Chain, error) {
		return generate.RandomPolyomino(300, rand.New(rand.NewSource(5)))
	})
	add("golden_doubled_40_seed3", func() (*chain.Chain, error) {
		return generate.DoubledPath(40, rand.New(rand.NewSource(3)))
	})
	add("golden_serpentine_6x21", func() (*chain.Chain, error) { return generate.Serpentine(6, 21) })
	add("golden_lshape_18x11x4", func() (*chain.Chain, error) { return generate.LShape(18, 11, 4) })
	add("golden_histogram_seed7", func() (*chain.Chain, error) {
		return generate.RandomHistogram(24, 15, rand.New(rand.NewSource(7)))
	})
	return out
}

// engineCorpusEntry renders one FuzzEngineVsOracle corpus file: the chain
// as its byte walk plus a configuration selector, an activation scheduler
// selector (0 = FSYNC), a strategy selector (0 = paper), and a
// checkpoint-round selector (0 = no mid-run codec round-trip).
func engineCorpusEntry(ch *chain.Chain, cfgSel, schedSel, stratSel, ckptSel uint8) string {
	return rawEngineCorpusEntry(generate.ToBytes(ch), cfgSel, schedSel, stratSel, ckptSel)
}

// rawEngineCorpusEntry is engineCorpusEntry for a hand-crafted byte walk
// (the merge seed below is defined by its bytes, not by a generator).
func rawEngineCorpusEntry(data []byte, cfgSel, schedSel, stratSel, ckptSel uint8) string {
	return fmt.Sprintf("go test fuzz v1\n[]byte(%q)\nbyte(%q)\nbyte(%q)\nbyte(%q)\nbyte(%q)\n",
		data, rune(cfgSel), rune(schedSel), rune(stratSel), rune(ckptSel))
}

// mergeSeedData is a hand-crafted FuzzEngineVsOracle seed: a 17-byte walk
// whose repaired chain (n = 18) contains a k=2 merge pattern with blacks
// at indices 3–4, so the fuzzer starts on a multi-black merge in a small
// ring.
var mergeSeedData = []byte{1, 0, 0, 3, 2, 3, 2, 0, 2, 3, 0, 0, 1, 1, 2, 3, 1}

// familyCorpusEntry renders one FuzzGenerateFamilies corpus file.
func familyCorpusEntry(family uint8, size uint16, seed int64) string {
	return fmt.Sprintf("go test fuzz v1\nbyte(%q)\nuint16(%d)\nint64(%d)\n", rune(family), size, seed)
}

// TestSeedCorpus keeps the committed corpus in sync with the generators:
// with -update-corpus it rewrites the files, without it it verifies every
// expected entry exists with the expected content and that no stale file
// lingers (a crasher minimised into testdata by `go test -fuzz` would
// show up here and must be triaged, not silently kept).
func TestSeedCorpus(t *testing.T) {
	expect := map[string]string{}
	chains := corpusChains(t)
	i := 0
	for _, name := range sortedKeys(chains) {
		// Spread the committed seeds across the configuration, scheduler,
		// strategy and checkpoint spaces so the corpus alone already covers
		// several (V, L) points, every activation model (the stride 3 is
		// coprime to the 7-scheduler space), both registered strategies
		// (alternating per entry) and a rotation of mid-run checkpoint
		// rounds (entry 0 keeps the axis off, preserving one legacy-shaped
		// seed).
		expect[filepath.Join("FuzzEngineVsOracle", name)] = engineCorpusEntry(
			chains[name], uint8(i%50), uint8((i/7*3)%oracle.NumScheds()),
			uint8((i/7)%oracle.NumStrategies()), uint8((i/7)%(oracle.MaxCheckpointRound+1)))
		i += 7
	}
	// The merge seed stays pinned to the paper strategy (selector 0) under
	// FSYNC with no checkpoint round-trip: its purpose is the paper merge
	// kernel, undisturbed. Its file keeps its historical name.
	expect[filepath.Join("FuzzEngineVsOracle", "seam_merge_boundary")] =
		rawEngineCorpusEntry(mergeSeedData, 0, 0, 0, 0)
	for fi, name := range generate.Names() {
		expect[filepath.Join("FuzzGenerateFamilies", "family_"+name)] = familyCorpusEntry(uint8(fi), 24, 7)
		expect[filepath.Join("FuzzGenerateFamilies", "family_"+name+"_large")] = familyCorpusEntry(uint8(fi), 300, 11)
	}

	root := filepath.Join("testdata", "fuzz")
	if *updateCorpus {
		for rel, content := range expect {
			path := filepath.Join(root, rel)
			if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
				t.Fatal(err)
			}
		}
		return
	}
	for rel, content := range expect {
		got, err := os.ReadFile(filepath.Join(root, rel))
		if err != nil {
			t.Errorf("missing corpus entry %s (run with -update-corpus): %v", rel, err)
			continue
		}
		if string(got) != content {
			t.Errorf("corpus entry %s is stale (run with -update-corpus)", rel)
		}
	}
	for _, dir := range []string{"FuzzEngineVsOracle", "FuzzGenerateFamilies"} {
		entries, err := os.ReadDir(filepath.Join(root, dir))
		if err != nil {
			t.Fatalf("no corpus directory %s: %v", dir, err)
		}
		for _, e := range entries {
			if _, ok := expect[filepath.Join(dir, e.Name())]; !ok {
				t.Errorf("unexpected corpus file %s/%s: crashers must be triaged into regression tests", dir, e.Name())
			}
		}
	}
}

func sortedKeys(m map[string]*chain.Chain) []string {
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	return keys
}
