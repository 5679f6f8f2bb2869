package serve

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"gridgather/internal/core"
	"gridgather/internal/generate"
	"gridgather/internal/sched"
	"gridgather/internal/sim"
)

// newTestServer boots a Server behind httptest and tears both down in
// order (listener first, so no request can race the drain).
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	s := New(cfg)
	ts := httptest.NewServer(s)
	t.Cleanup(func() {
		ts.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		if err := s.Shutdown(ctx); err != nil {
			t.Errorf("shutdown: %v", err)
		}
	})
	return s, ts
}

// submit POSTs a spec and decodes the jobView, returning the HTTP status.
func submit(t *testing.T, ts *httptest.Server, spec JobSpec) (jobView, int) {
	t.Helper()
	raw, err := json.Marshal(spec)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	var v jobView
	if resp.StatusCode < 300 {
		if err := json.Unmarshal(body, &v); err != nil {
			t.Fatalf("submit response %q: %v", body, err)
		}
	} else {
		v.Error = string(body)
	}
	return v, resp.StatusCode
}

// getJSON decodes a GET response into out and returns the status code.
func getJSON(t *testing.T, url string, out any) int {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if out != nil {
		if err := json.Unmarshal(body, out); err != nil {
			t.Fatalf("GET %s -> %q: %v", url, body, err)
		}
	}
	return resp.StatusCode
}

// waitStatus polls a job until it reaches want, failing on any other
// terminal status or on timeout.
func waitStatus(t *testing.T, ts *httptest.Server, id, want string) jobView {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		var v jobView
		getJSON(t, ts.URL+"/jobs/"+id, &v)
		if v.Status == want {
			return v
		}
		terminal := v.Status != StatusQueued && v.Status != StatusRunning
		if terminal || time.Now().After(deadline) {
			t.Fatalf("job %s: status %q (error %q), want %q", id, v.Status, v.Error, want)
		}
		time.Sleep(2 * time.Millisecond)
	}
}

func getStats(t *testing.T, ts *httptest.Server) Stats {
	t.Helper()
	var st Stats
	getJSON(t, ts.URL+"/stats", &st)
	return st
}

// TestSubmitRunCacheHit is the centerpiece acceptance test: submitting
// the same job twice runs the engine exactly once. The second submission
// must answer inline with the byte-identical pinned result, and the
// server's engine-round counter — incremented by every round any engine
// in the process executes — must not move at all.
func TestSubmitRunCacheHit(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	spec := JobSpec{Shape: "spiral", Size: 80}

	v1, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("first submit: status %d", code)
	}
	if v1.Cached {
		t.Fatal("first submit claims a cache hit")
	}
	done := waitStatus(t, ts, v1.ID, StatusDone)
	if len(done.Result) == 0 {
		t.Fatal("terminal job has no result")
	}
	st1 := getStats(t, ts)
	if st1.EngineRounds == 0 {
		t.Fatal("engine-round counter never moved during the first run")
	}

	v2, code := submit(t, ts, spec)
	if code != http.StatusOK {
		t.Fatalf("re-submit: status %d, want 200 cache hit", code)
	}
	if !v2.Cached {
		t.Fatal("re-submit not served from cache")
	}
	if !bytes.Equal(done.Result, v2.Result) {
		t.Fatalf("cached result differs from the pinned one:\n%s\nvs\n%s", done.Result, v2.Result)
	}
	st2 := getStats(t, ts)
	if st2.EngineRounds != st1.EngineRounds {
		t.Fatalf("cache hit stepped the engine: %d rounds before, %d after", st1.EngineRounds, st2.EngineRounds)
	}
	if st2.CacheHits != 1 {
		t.Fatalf("CacheHits = %d, want 1", st2.CacheHits)
	}

	// The result is also addressable by content, without a job id.
	var byKey jobView
	if code := getJSON(t, ts.URL+"/results/"+v1.Key, &byKey); code != http.StatusOK {
		t.Fatalf("GET /results/{key}: status %d", code)
	}
	if !bytes.Equal(byKey.Result, done.Result) {
		t.Fatal("result by key differs from result by job id")
	}

	// And the pinned bytes decode to a gathered sim.Result.
	var res sim.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if !res.Gathered || res.FinalLen > 4 {
		t.Fatalf("cached result is not a gathering: %+v", res)
	}
}

// mustKey computes a spec's cache key through the exported derivation.
func mustKey(t *testing.T, spec JobSpec) string {
	t.Helper()
	k, err := CacheKey(spec)
	if err != nil {
		t.Fatalf("CacheKey(%+v): %v", spec, err)
	}
	return k
}

// TestLegacyWorkersJobSharesKey posts a POST /jobs body written by an
// earlier client, which still carries the retired engine setting
// ("workers":4, and "Workers":0 inside config): the keys are ignored on
// decode, so the job is admitted under the same cache key as the same
// spec without them.
func TestLegacyWorkersJobSharesKey(t *testing.T) {
	body, err := os.ReadFile(filepath.Join("testdata", "legacy_workers4_job.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Contains(body, []byte(`"workers":4`)) {
		t.Fatal(`fixture lost its "workers":4 key; it no longer tests the legacy format`)
	}
	_, ts := newTestServer(t, Config{Workers: 1})
	resp, err := http.Post(ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode >= 300 {
		t.Fatalf("legacy body refused with %d: %s", resp.StatusCode, raw)
	}
	var v jobView
	if err := json.Unmarshal(raw, &v); err != nil {
		t.Fatalf("submit response %q: %v", raw, err)
	}
	if want := mustKey(t, JobSpec{Shape: "walk", Size: 64, Seed: 1}); v.Key != want {
		t.Fatalf("legacy body keyed %s, want %s (the key of the same spec without workers)", v.Key, want)
	}
}

// TestCacheKeyPerturbations pins the key's sensitivity: every field that
// can change simulation bytes changes the key (a single perturbation of
// seed, scheduler, strategy, round budget or one scenario byte misses),
// and spellings of the same content collide (hit).
func TestCacheKeyPerturbations(t *testing.T) {
	base := JobSpec{Shape: "walk", Size: 64, Seed: 1}
	kb := mustKey(t, base)

	// Identical and equivalent spellings hit.
	if k := mustKey(t, JobSpec{Shape: "walk", Size: 64, Seed: 1}); k != kb {
		t.Fatal("identical spec produced a different key")
	}
	alias := base
	alias.Strategy = "paper"
	if k := mustKey(t, alias); k != kb {
		t.Fatal(`strategy "paper" and "" are the same strategy but key differently`)
	}
	withDefaults := base
	withDefaults.Config = core.DefaultConfig()
	if k := mustKey(t, withDefaults); k != kb {
		t.Fatal("explicit default config keys differently from the zero config")
	}

	// Single-field perturbations miss — and miss each other.
	perturbed := map[string]JobSpec{
		"generator-seed": {Shape: "walk", Size: 64, Seed: 2},
		"sched-kind":     {Shape: "walk", Size: 64, Seed: 1, Sched: sched.Config{Kind: sched.RoundRobin, K: 2}},
		"sched-seed":     {Shape: "walk", Size: 64, Seed: 1, Sched: sched.Config{Kind: sched.Random, Seed: 7}},
		"strategy":       {Shape: "walk", Size: 64, Seed: 1, Strategy: core.StrategyLinTime},
		"max-rounds":     {Shape: "walk", Size: 64, Seed: 1, MaxRounds: 777},
	}
	seen := map[string]string{"base": kb}
	for name, spec := range perturbed {
		k := mustKey(t, spec)
		for other, ok := range seen {
			if k == ok {
				t.Errorf("perturbation %q collides with %q", name, other)
			}
		}
		seen[name] = k
	}

	// Scenario bytes: the key addresses the decoded chain. Swapping two
	// adjacent distinct steps keeps the walk closed but reshapes it — a
	// one-byte-sized change, a different chain, a different key. Setting
	// bits FromBytes ignores (only the low two select a direction) leaves
	// the chain — and therefore the key — unchanged.
	ch, err := generate.Rectangle(8, 8)
	if err != nil {
		t.Fatal(err)
	}
	raw := generate.ToBytes(ch)
	k1 := mustKey(t, JobSpec{Scenario: raw})
	if k := mustKey(t, JobSpec{Scenario: append([]byte(nil), raw...)}); k != k1 {
		t.Fatal("identical scenario bytes produced a different key")
	}
	swapped := append([]byte(nil), raw...)
	i := bytes.IndexFunc(swapped[1:], func(r rune) bool { return byte(r) != swapped[0] })
	if i < 0 {
		t.Fatal("degenerate scenario: all steps equal")
	}
	swapped[i], swapped[i+1] = swapped[i+1], swapped[i]
	if k := mustKey(t, JobSpec{Scenario: swapped}); k == k1 {
		t.Fatal("one-byte scenario change did not change the key")
	}
	dressed := append([]byte(nil), raw...)
	dressed[0] |= 4 // same direction, different byte
	if k := mustKey(t, JobSpec{Scenario: dressed}); k != k1 {
		t.Fatal("non-semantic scenario byte bits leaked into the key")
	}
}

// TestAdmissionRejections pins the 400 wall: specs the engine would
// refuse are refused at the door with the typed errors' messages —
// including the E11 livelock rejection — and never reach the queue.
func TestAdmissionRejections(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for name, tc := range map[string]struct {
		spec JobSpec
		want string
	}{
		"livelock-config": {
			JobSpec{Shape: "rectangle", Size: 32,
				Config: core.Config{ViewingPathLength: 11, RunPeriod: 13, MaxMergeLen: 8}},
			sim.ErrLivelockConfig.Error(),
		},
		"empty-spec":     {JobSpec{}, "scenario bytes or a shape"},
		"both-forms":     {JobSpec{Scenario: []byte{0, 1}, Shape: "spiral", Size: 40}, "mutually exclusive"},
		"bad-shape":      {JobSpec{Shape: "klein-bottle", Size: 40}, "unknown shape"},
		"bad-config":     {JobSpec{Shape: "spiral", Size: 40, Config: core.Config{ViewingPathLength: 3, RunPeriod: 1, MaxMergeLen: 1}}, core.ErrViewTooSmall.Error()},
		"size-above-cap": {JobSpec{Shape: "lshape", Size: MaxJobSize + 1}, "exceeds the limit"},
	} {
		t.Run(name, func(t *testing.T) {
			v, code := submit(t, ts, tc.spec)
			if code != http.StatusBadRequest {
				t.Fatalf("status %d, want 400", code)
			}
			if !strings.Contains(v.Error, tc.want) {
				t.Fatalf("error %q does not mention %q", v.Error, tc.want)
			}
		})
	}

	// An unknown strategy cannot even be marshaled client-side (the
	// StrategyName codec refuses), so it goes over the wire raw.
	t.Run("bad-strategy", func(t *testing.T) {
		resp, err := http.Post(ts.URL+"/jobs", "application/json",
			strings.NewReader(`{"shape":"spiral","size":40,"strategy":"quantum"}`))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("status %d, want 400", resp.StatusCode)
		}
		if !strings.Contains(string(body), "unknown strategy") {
			t.Fatalf("error %q does not mention the unknown strategy", body)
		}
	})
	// A body beyond maxJobBytes is refused unread (413): whitespace keeps
	// the document valid JSON, so only the size limit can reject it.
	t.Run("oversized-body", func(t *testing.T) {
		body := `{"shape":"spiral","size":40,` + strings.Repeat(" ", maxJobBytes) + `"seed":1}`
		resp, err := http.Post(ts.URL+"/jobs", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		msg, _ := io.ReadAll(resp.Body)
		if resp.StatusCode != http.StatusRequestEntityTooLarge {
			t.Fatalf("status %d, want 413", resp.StatusCode)
		}
		if !strings.Contains(string(msg), ErrBadJob.Error()) {
			t.Fatalf("error %q does not carry ErrBadJob", msg)
		}
	})
	if st := getStats(t, ts); st.EngineRounds != 0 || st.Entries != 0 {
		t.Fatalf("rejected jobs left state behind: %+v", st)
	}
}

// TestMaxJobSizeBuildBound pins the reason MaxJobSize is what it is: at
// the cap, every generator family builds with at most 64 MB allocated
// (the cell-map families polyomino, staircase and lshape dominate, at
// ≈15–57 MB). One past the cap is refused by TestAdmissionRejections.
func TestMaxJobSizeBuildBound(t *testing.T) {
	const maxBuildBytes = 64 << 20
	for _, name := range generate.Names() {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		if _, _, err := (JobSpec{Shape: name, Size: MaxJobSize, Seed: 1}).build(); err != nil {
			t.Fatalf("%s at MaxJobSize: %v", name, err)
		}
		runtime.ReadMemStats(&after)
		if got := after.TotalAlloc - before.TotalAlloc; got > maxBuildBytes {
			t.Errorf("%s at MaxJobSize allocates %.1f MB, want <= %d MB", name, float64(got)/(1<<20), maxBuildBytes>>20)
		}
	}
}

// readStream fetches a job's SSE stream to completion.
func readStream(t *testing.T, ts *httptest.Server, id string) []byte {
	t.Helper()
	resp, err := http.Get(ts.URL + "/jobs/" + id + "/stream")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("stream: status %d", resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("stream Content-Type %q", ct)
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return body
}

// TestStreamReplayByteIdentical pins the streaming contract: the SSE feed
// a live watcher receives — attached before the engine executed a single
// round — is byte for byte the feed a replay of the finished job serves,
// and the NDJSON replay carries the same trace with the sealed result as
// its final line.
func TestStreamReplayByteIdentical(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1})
	hold := make(chan struct{})
	s.mu.Lock()
	s.testHold = hold
	s.mu.Unlock()

	spec := JobSpec{Shape: "spiral", Size: 80}
	v, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	waitStatus(t, ts, v.ID, StatusRunning) // worker parked on the hold, zero rounds executed

	liveCh := make(chan []byte, 1)
	go func() {
		resp, err := http.Get(ts.URL + "/jobs/" + v.ID + "/stream")
		if err != nil {
			liveCh <- nil
			return
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		liveCh <- body
	}()
	// Give the live watcher a moment to attach, then let the engine go.
	time.Sleep(20 * time.Millisecond)
	close(hold)

	live := <-liveCh
	if live == nil {
		t.Fatal("live stream failed")
	}
	done := waitStatus(t, ts, v.ID, StatusDone)

	replay := readStream(t, ts, v.ID)
	if !bytes.Equal(live, replay) {
		t.Fatalf("replay differs from live stream:\nlive:\n%s\nreplay:\n%s", live, replay)
	}
	if !bytes.Contains(live, []byte("event: result\n")) {
		t.Fatal("stream carries no terminal result event")
	}

	// NDJSON replay: one line per round, the sealed result last.
	resp, err := http.Get(ts.URL + "/results/" + v.Key + "/replay")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	nd, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	lines := bytes.Split(bytes.TrimSuffix(nd, []byte("\n")), []byte("\n"))
	if got := lines[len(lines)-1]; !bytes.Equal(got, done.Result) {
		t.Fatalf("NDJSON replay's last line is not the sealed result:\n%s\nvs\n%s", got, done.Result)
	}
	var res sim.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if rounds := len(lines) - 1; rounds != res.Rounds {
		t.Fatalf("NDJSON replay has %d round lines, result says %d rounds", rounds, res.Rounds)
	}
}

// TestQueueFullRejected pins admission control: with one worker parked
// mid-job and a one-deep queue, a third distinct job is refused with 429
// — while a duplicate of the running one still coalesces instead of
// burning a queue slot.
func TestQueueFullRejected(t *testing.T) {
	s, ts := newTestServer(t, Config{Workers: 1, QueueDepth: 1})
	hold := make(chan struct{})
	s.mu.Lock()
	s.testHold = hold
	s.mu.Unlock()

	spec := func(i int) JobSpec { return JobSpec{Shape: "spiral", Size: 80, MaxRounds: 100000 + i} }

	a, code := submit(t, ts, spec(0))
	if code != http.StatusAccepted {
		t.Fatalf("job a: status %d", code)
	}
	waitStatus(t, ts, a.ID, StatusRunning)

	if _, code := submit(t, ts, spec(1)); code != http.StatusAccepted {
		t.Fatalf("job b: status %d, want 202 (fills the queue)", code)
	}
	v, code := submit(t, ts, spec(2))
	if code != http.StatusTooManyRequests {
		t.Fatalf("job c: status %d, want 429", code)
	}
	if !strings.Contains(v.Error, "queue full") {
		t.Fatalf("429 body %q does not say the queue is full", v.Error)
	}
	dup, code := submit(t, ts, spec(0))
	if code != http.StatusAccepted || dup.ID != a.ID {
		t.Fatalf("duplicate of the running job: status %d id %s, want 202 coalesced onto %s", code, dup.ID, a.ID)
	}

	close(hold)
	waitStatus(t, ts, a.ID, StatusDone)
	if st := getStats(t, ts); st.Rejected != 1 || st.Coalesced != 1 {
		t.Fatalf("stats %+v, want exactly one rejection and one coalesce", st)
	}
}

// TestGracefulDrainSpoolsCheckpoint pins the shutdown path: Shutdown
// lands mid-run, the engine stops at a round boundary with status
// "cancelled", the cache slot is evicted (a cancellation is not a
// result), a resumable checkpoint appears in the spool directory — and
// resuming it finishes the run with exactly the result an uninterrupted
// run produces.
func TestGracefulDrainSpoolsCheckpoint(t *testing.T) {
	dir := t.TempDir()
	s := New(Config{Workers: 1, SpoolDir: dir})
	ts := httptest.NewServer(s)
	defer ts.Close()

	started := make(chan struct{})
	var once sync.Once
	s.mu.Lock()
	s.testRoundHook = func() {
		once.Do(func() { close(started) })
		time.Sleep(2 * time.Millisecond) // stretch the run so the drain provably lands mid-flight
	}
	s.mu.Unlock()

	spec := JobSpec{Shape: "spiral", Size: 300}
	v, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	<-started

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := s.Shutdown(ctx); err != nil {
		t.Fatalf("drain did not complete: %v", err)
	}

	job := waitStatus(t, ts, v.ID, StatusCancelled)
	if job.Rounds == 0 {
		t.Fatal("cancelled before executing a single round; the hook should have guaranteed progress")
	}
	if _, code := submit(t, ts, spec); code != http.StatusServiceUnavailable {
		t.Fatalf("draining server accepted a job (status %d)", code)
	}
	if code := getJSON(t, ts.URL+"/results/"+v.Key, nil); code != http.StatusNotFound {
		t.Fatalf("cancelled run stayed in the cache (status %d)", code)
	}

	// The spooled checkpoint resumes to the same result an uninterrupted
	// run produces — the interruption is invisible in the bytes.
	cp, err := sim.ReadCheckpoint(filepath.Join(dir, v.Key+".ckpt"))
	if err != nil {
		t.Fatalf("spooled checkpoint: %v", err)
	}
	if cp.Strat.Round != job.Rounds {
		t.Fatalf("checkpoint at round %d, job reported %d trace lines", cp.Strat.Round, job.Rounds)
	}
	eng, err := sim.Restore(cp, spec.options())
	if err != nil {
		t.Fatal(err)
	}
	resumed, err := eng.Run()
	if err != nil {
		t.Fatal(err)
	}
	ch, opts, err := spec.build()
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := sim.Gather(ch, opts)
	if err != nil {
		t.Fatal(err)
	}
	rj, _ := json.Marshal(resumed)
	fj, _ := json.Marshal(fresh)
	if !bytes.Equal(rj, fj) {
		t.Fatalf("resumed run diverged from the uninterrupted one:\n%s\nvs\n%s", rj, fj)
	}
}

// TestDNFResultsCache pins the other cacheable terminal state: a clean
// deterministic DNF (here the typed stall verdict of the lintime bugfix)
// is content too — the re-submission hits the cache with status "dnf" and
// the engine-round counter frozen.
func TestDNFResultsCache(t *testing.T) {
	_, ts := newTestServer(t, Config{Workers: 1})
	ch, err := generate.Spiral(6)
	if err != nil {
		t.Fatal(err)
	}
	spec := JobSpec{
		Scenario: generate.ToBytes(ch),
		Strategy: core.StrategyLinTime,
		Sched:    sched.Config{Kind: sched.Random, Seed: 5},
	}
	v, code := submit(t, ts, spec)
	if code != http.StatusAccepted {
		t.Fatalf("submit: status %d", code)
	}
	done := waitStatus(t, ts, v.ID, StatusDNF)
	if !strings.Contains(done.Error, "no progress") {
		t.Fatalf("DNF error %q is not the stall verdict", done.Error)
	}
	var res sim.Result
	if err := json.Unmarshal(done.Result, &res); err != nil {
		t.Fatal(err)
	}
	if res.Termination != core.TermStalled || res.Gathered {
		t.Fatalf("stalled DNF result: %+v", res)
	}
	st1 := getStats(t, ts)
	v2, code := submit(t, ts, spec)
	if code != http.StatusOK || !v2.Cached {
		t.Fatalf("DNF re-submit: status %d cached %v, want a 200 hit", code, v2.Cached)
	}
	if !bytes.Equal(v2.Result, done.Result) {
		t.Fatal("cached DNF result differs")
	}
	if st2 := getStats(t, ts); st2.EngineRounds != st1.EngineRounds {
		t.Fatal("DNF cache hit stepped the engine")
	}
}

// errorBody is a tiny sanity check used by the smoke battery in CI: every
// error path answers JSON with an "error" field. Exercised here so a
// handler regression fails locally before the workflow sees it.
func TestErrorBodiesAreJSON(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, url := range []string{
		ts.URL + "/jobs/nope",
		ts.URL + "/results/nope",
		ts.URL + "/results/nope/replay",
	} {
		resp, err := http.Get(url)
		if err != nil {
			t.Fatal(err)
		}
		var body map[string]string
		err = json.NewDecoder(resp.Body).Decode(&body)
		resp.Body.Close()
		if err != nil || body["error"] == "" {
			t.Fatalf("GET %s: not a JSON error body (decode err %v, body %v)", url, err, body)
		}
		if resp.StatusCode != http.StatusNotFound {
			t.Fatalf("GET %s: status %d, want 404", url, resp.StatusCode)
		}
	}
}
