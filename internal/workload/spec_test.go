package workload

import (
	"errors"
	"os"
	"reflect"
	"strings"
	"testing"

	"gridgather/internal/core"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// minimalSpec is a smallest-possible valid spec the rejection battery
// mutates one axis at a time.
const minimalSpec = `seed: 1
items: 4
families:
  - shape: walk
    size: 32
`

func TestParseSpecMinimal(t *testing.T) {
	s, err := ParseSpec([]byte(minimalSpec))
	if err != nil {
		t.Fatalf("ParseSpec(minimal): %v", err)
	}
	if s.Items != 4 || s.Seed != 1 {
		t.Fatalf("decoded header = items %d seed %d, want 4/1", s.Items, s.Seed)
	}
	// Omitted mixes take their documented defaults eagerly.
	wantScheds := []SchedChoice{{Sched: sched.Config{}, Weight: 1}}
	if !reflect.DeepEqual(s.Scheds, wantScheds) {
		t.Errorf("default scheds = %+v, want FSYNC weight 1", s.Scheds)
	}
	wantStrats := []StrategyChoice{{Strategy: core.StrategyPaper, Weight: 1}}
	if !reflect.DeepEqual(s.Strategies, wantStrats) {
		t.Errorf("default strategies = %+v, want paper weight 1", s.Strategies)
	}
	if s.Families[0].Weight != 1 {
		t.Errorf("default family weight = %d, want 1", s.Families[0].Weight)
	}
}

// TestParseSpecRejections is the strict-codec battery: every hostile or
// malformed spec is rejected with an error wrapping ErrBadSpec (never a
// panic, never a silent acceptance), mirroring the generate ErrBadParam
// battery.
func TestParseSpecRejections(t *testing.T) {
	cases := []struct {
		name string
		yaml string
		want string // optional substring of the error, e.g. the line
	}{
		{"empty document", "", ""},
		{"comment-only document", "# nothing here\n", ""},
		{"unknown top-level field", minimalSpec + "surprise: 1\n", ""},
		{"unknown family field", "seed: 1\nitems: 4\nfamilies:\n  - shape: walk\n    color: red\n", ""},
		{"unknown sched field", minimalSpec + "scheds:\n  - sched: fsync\n    kohort: 3\n", ""},
		{"unknown strategy field", minimalSpec + "strategies:\n  - strategy: paper\n    speed: 11\n", ""},
		{"unknown config field", minimalSpec + "config:\n  viewing: 11\n", ""},
		{"negative weight", "seed: 1\nitems: 4\nfamilies:\n  - shape: walk\n    weight: -2\n", ""},
		{"zero weight", "seed: 1\nitems: 4\nfamilies:\n  - shape: walk\n    weight: 0\n", ""},
		{"huge weight", "seed: 1\nitems: 4\nfamilies:\n  - shape: walk\n    weight: 100000\n", ""},
		{"zero items", "seed: 1\nitems: 0\nfamilies:\n  - shape: walk\n", ""},
		{"negative items", "seed: 1\nitems: -3\nfamilies:\n  - shape: walk\n", ""},
		{"items over the cap", "seed: 1\nitems: 9999999\nfamilies:\n  - shape: walk\n", ""},
		{"missing families", "seed: 1\nitems: 4\n", ""},
		{"unknown shape", "seed: 1\nitems: 4\nfamilies:\n  - shape: dodecahedron\n", ""},
		{"family without shape", "seed: 1\nitems: 4\nfamilies:\n  - weight: 1\n", ""},
		{"bad sched string", minimalSpec + "scheds:\n  - warp:9\n", ""},
		{"fsync with parameters", minimalSpec + "scheds:\n  - fsync:3\n", ""},
		{"bad strategy string", minimalSpec + "strategies:\n  - quadratic\n", ""},
		{"size below minimum", "seed: 1\nitems: 4\nfamilies:\n  - shape: walk\n    size: 3\n", ""},
		{"size above maximum", "seed: 1\nitems: 4\nfamilies:\n  - shape: walk\n    size: 4096\n", ""},
		{"inverted size bounds", "seed: 1\nitems: 4\nfamilies:\n  - shape: walk\n    size: uniform:64:8\n", ""},
		{"bad size syntax", "seed: 1\nitems: 4\nfamilies:\n  - shape: walk\n    size: gaussian:64:8\n", ""},
		{"size missing bound", "seed: 1\nitems: 4\nfamilies:\n  - shape: walk\n    size: uniform:64\n", ""},
		{"negative maxRounds", minimalSpec + "maxRounds: -1\n", ""},
		{"negative family maxRounds", "seed: 1\nitems: 4\nfamilies:\n  - shape: walk\n    maxRounds: -5\n", ""},
		{"non-integer items", "seed: 1\nitems: few\nfamilies:\n  - shape: walk\n", ""},
		{"non-integer seed", "seed: 1.5\nitems: 4\nfamilies:\n  - shape: walk\n", ""},
		{"bad config bool", minimalSpec + "config:\n  sequentialRuns: maybe\n", ""},
		{"config view too small", minimalSpec + "config:\n  view: 3\n", ""},
		{"livelock config (E11 wall)", minimalSpec + "config:\n  mergelen: 4\n", ""},
		{"duplicate key", "seed: 1\nseed: 2\nitems: 4\nfamilies:\n  - shape: walk\n", ""},
		{"tab indentation", "seed: 1\nitems: 4\nfamilies:\n\t- shape: walk\n", ""},
		{"flow syntax key", "{seed: 1}\n", ""},
		{"sequence at root", "- shape: walk\n", ""},
		{"key without value", "seed: 1\nitems: 4\nfamilies:\nscheds:\n  - fsync\n", ""},
		{"scalar families", "seed: 1\nitems: 4\nfamilies: walk\n", ""},
		{"mapping key inside sequence", minimalSpec + "scheds:\n  - fsync\n  weight: 2\n", ""},
		{"bad indentation jump", "seed: 1\nitems: 4\nfamilies:\n  - shape: walk\n      size: 32\n", ""},
		{"retired workers config field", minimalSpec + "config:\n  workers: 2\n", `line 7: unknown config field "workers"`},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			s, err := ParseSpec([]byte(tc.yaml))
			if err == nil {
				t.Fatalf("ParseSpec accepted %q: %+v", tc.yaml, s)
			}
			if !errors.Is(err, ErrBadSpec) {
				t.Fatalf("error does not wrap ErrBadSpec: %v", err)
			}
			if !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not contain %q", err, tc.want)
			}
		})
	}
}

// TestLivelockRejectionIsTyped pins that the E11 admission check surfaces
// the sim sentinel through the spec error, so callers can branch on it.
func TestLivelockRejectionIsTyped(t *testing.T) {
	_, err := ParseSpec([]byte(minimalSpec + "config:\n  mergelen: 4\n"))
	if !errors.Is(err, ErrBadSpec) || !errors.Is(err, sim.ErrLivelockConfig) {
		t.Fatalf("livelock config error = %v, want ErrBadSpec wrapping sim.ErrLivelockConfig", err)
	}
	// The same config is admissible under lintime, which has no merge
	// patterns to park.
	_, err = ParseSpec([]byte(minimalSpec + "config:\n  mergelen: 4\nstrategies:\n  - lintime\n"))
	if err != nil {
		t.Fatalf("mergelen 4 under lintime rejected: %v", err)
	}
}

// TestSpecEncodeRoundTrip pins the codec law the fuzz target generalises:
// decode(encode(s)) == s for valid specs, across every preset and a spec
// using all the optional machinery.
func TestSpecEncodeRoundTrip(t *testing.T) {
	full := `name: everything
seed: 42
items: 100
maxRounds: 5000
config:
  view: 13
  period: 7
  mergelen: 12
  sequentialRuns: true
families:
  - shape: rectangle
    weight: 3
    size: fixed:64
  - shape: bytes
    size: loguniform:8:128
    maxRounds: 777
scheds:
  - rr:2
  - sched: bounded:3:p=0.5
    weight: 2
strategies:
  - lintime
`
	specs := map[string][]byte{"full": []byte(full)}
	for _, name := range PresetNames() {
		data, err := presetFS.ReadFile("presets/" + name + ".yaml")
		if err != nil {
			t.Fatal(err)
		}
		specs[name] = data
	}
	for name, data := range specs {
		t.Run(name, func(t *testing.T) {
			s, err := ParseSpec(data)
			if err != nil {
				t.Fatalf("ParseSpec: %v", err)
			}
			again, err := ParseSpec(s.Encode())
			if err != nil {
				t.Fatalf("ParseSpec(Encode): %v\nencoded:\n%s", err, s.Encode())
			}
			if !reflect.DeepEqual(s, again) {
				t.Fatalf("round trip diverged:\nfirst:  %+v\nsecond: %+v\nencoded:\n%s", s, again, s.Encode())
			}
		})
	}
}

// TestPresets pins the embedded preset registry: the expected names, and
// every preset parsing and validating.
func TestPresets(t *testing.T) {
	want := []string{"e-sched", "e-strat", "quick", "stress"}
	if got := PresetNames(); !reflect.DeepEqual(got, want) {
		t.Fatalf("PresetNames() = %v, want %v", got, want)
	}
	for _, name := range want {
		if _, err := Preset(name); err != nil {
			t.Errorf("Preset(%q): %v", name, err)
		}
	}
	if _, err := Preset("no-such"); !errors.Is(err, ErrBadSpec) {
		t.Errorf("Preset(no-such) = %v, want ErrBadSpec", err)
	}
}

// TestLoad pins the CLI -spec resolution rule: preset names win, anything
// else is a file path.
func TestLoad(t *testing.T) {
	if _, err := Load("quick"); err != nil {
		t.Fatalf("Load(quick): %v", err)
	}
	dir := t.TempDir()
	path := dir + "/night.yaml"
	if err := os.WriteFile(path, []byte(minimalSpec), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Load(path); err != nil {
		t.Fatalf("Load(file): %v", err)
	}
	if _, err := Load(dir + "/missing.yaml"); err == nil || !strings.Contains(err.Error(), "neither a preset") {
		t.Fatalf("Load(missing) = %v, want the neither-preset-nor-file error", err)
	}
}
