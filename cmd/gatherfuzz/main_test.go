package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sim"
)

// TestResumeBundleReplaysCleanScenario pins the -resume happy path: a
// bundle holding a healthy scenario replays through the conformance check
// and exits 0 (the recorded divergence — here none — does not reproduce).
func TestResumeBundleReplaysCleanScenario(t *testing.T) {
	ch, err := generate.Spiral(4)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "clean.bundle")
	b := &sim.Bundle{
		Label:    "scenario 7 (test)",
		Scenario: ch,
		Config:   core.DefaultConfig(),
		Strategy: core.StrategyPaper,
		Round:    -1,
	}
	if err := sim.WriteBundle(path, b); err != nil {
		t.Fatal(err)
	}
	if code := resumeBundle(path); code != 0 {
		t.Fatalf("resumeBundle(%s) = %d, want 0", path, code)
	}
}

// TestResumeLegacyWorkersBundle replays a bundle written by an earlier
// release, whose config and top level still carry the retired engine
// setting ("Workers":4 and "workers":4): the keys are ignored on decode and
// the clean scenario replays with exit 0.
func TestResumeLegacyWorkersBundle(t *testing.T) {
	path := filepath.Join("testdata", "legacy_workers4.bundle")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(data, []byte(`"workers":4`)) || !bytes.Contains(data, []byte(`"Workers":4`)) {
		t.Fatal("fixture lost its workers keys; it no longer tests the legacy format")
	}
	if code := resumeBundle(path); code != 0 {
		t.Fatalf("resumeBundle(%s) = %d, want 0", path, code)
	}
}

// TestResumeBundleRejectsBadFiles pins the -resume error path: a missing
// file, arbitrary garbage, and a truncated real bundle must all exit with
// the distinct read-failure status (2), never be replayed as if valid.
func TestResumeBundleRejectsBadFiles(t *testing.T) {
	dir := t.TempDir()

	if code := resumeBundle(filepath.Join(dir, "does-not-exist.bundle")); code != 2 {
		t.Errorf("missing file: resumeBundle = %d, want 2", code)
	}

	garbage := filepath.Join(dir, "garbage.bundle")
	if err := os.WriteFile(garbage, []byte("not a bundle at all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := resumeBundle(garbage); code != 2 {
		t.Errorf("garbage file: resumeBundle = %d, want 2", code)
	}

	ch, err := generate.Rectangle(3, 1)
	if err != nil {
		t.Fatal(err)
	}
	good := &sim.Bundle{Label: "trunc", Scenario: ch, Config: core.DefaultConfig(), Strategy: core.StrategyPaper, Round: -1}
	data, err := good.Encode()
	if err != nil {
		t.Fatal(err)
	}
	for _, cut := range []int{0, 1, len(data) / 2, len(data) - 1} {
		trunc := filepath.Join(dir, "trunc.bundle")
		if err := os.WriteFile(trunc, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if code := resumeBundle(trunc); code != 2 {
			t.Errorf("bundle truncated to %d bytes: resumeBundle = %d, want 2", cut, code)
		}
	}
}
