package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"path/filepath"
	"sync"
	"time"

	"gridgather/internal/chain"
	"gridgather/internal/core"
	"gridgather/internal/parallel"
	"gridgather/internal/sim"
)

// Job lifecycle statuses. done and dnf are the deterministic terminal
// states — their results stay in the cache forever; failed, cancelled and
// deadline are evicted, because they describe this process's runtime, not
// the simulation's content.
const (
	StatusQueued    = "queued"
	StatusRunning   = "running"
	StatusDone      = "done"      // gathered
	StatusDNF       = "dnf"       // clean deterministic DNF: watchdog or stall verdict
	StatusFailed    = "failed"    // engine error (invariant, panic, bad state)
	StatusCancelled = "cancelled" // server drain stopped the run at a round boundary
	StatusDeadline  = "deadline"  // the per-job wall-clock cap expired
)

// Config tunes a Server. The zero value is usable: two workers, a
// sixteen-deep queue, no wall-clock cap, no spool directory.
type Config struct {
	// Workers is the size of the job worker pool — how many engines run
	// concurrently. Defaults to 2. Each job's engine steps its rounds
	// sequentially.
	Workers int
	// QueueDepth bounds the number of admitted-but-unstarted jobs. A
	// submission that would exceed it is refused with 429 — backpressure
	// belongs at admission, not in an unbounded queue. Defaults to 16.
	QueueDepth int
	// MaxJobWall, when positive, caps each job's wall-clock run time via
	// the engine's MaxWallTime option; an expired job ends with status
	// "deadline" and is evicted from the cache (wall-clock verdicts are
	// about this machine, not the simulation).
	MaxJobWall time.Duration
	// SpoolDir, when set, receives a checkpoint artifact (<key>.ckpt)
	// for every run the drain or the wall-clock cap stopped, so a later
	// process can resume it with sim.ReadCheckpoint + sim.Restore.
	SpoolDir string
}

// entry is one cache slot: the job bound to a cache key, its live trace,
// and — once terminal — its sealed result. Identical submissions coalesce
// onto one entry whether it is queued, running or finished; the entry is
// the unit of both deduplication and streaming.
type entry struct {
	id     string
	key    string
	spec   JobSpec
	status string
	errMsg string
	// lines is the append-only NDJSON round trace. Readers snapshot a
	// suffix under the server mutex and then iterate lock-free: appends
	// never mutate published elements, so a snapshot stays valid.
	lines [][]byte
	// result is the sealed sim.Result JSON, set exactly once when the
	// entry reaches a terminal status.
	result []byte
	// wake is closed and replaced on every append or status change — a
	// broadcast that costs nothing when nobody streams.
	wake chan struct{}
}

func (e *entry) terminal() bool {
	switch e.status {
	case StatusDone, StatusDNF, StatusFailed, StatusCancelled, StatusDeadline:
		return true
	}
	return false
}

// cacheable reports whether the entry's terminal state is a pure function
// of the job content. Gathered runs and clean DNFs are; anything decided
// by this process's wall-clock or failures is not.
func (e *entry) cacheable() bool {
	return e.status == StatusDone || e.status == StatusDNF
}

// Stats is the GET /stats payload: the counters the cache tests assert
// against. EngineRounds is the instrumented engine-step counter — the sum
// of rounds actually executed by this process — so "a cache hit steps the
// engine zero times" is a measurable claim, not a belief.
type Stats struct {
	Submitted    int   `json:"submitted"`
	CacheHits    int   `json:"cacheHits"`
	Coalesced    int   `json:"coalesced"`
	Rejected     int   `json:"rejected"`
	EngineRounds int64 `json:"engineRounds"`
	Entries      int   `json:"entries"`
	Draining     bool  `json:"draining"`
}

// Server is the gathering-as-a-service HTTP handler: a bounded worker
// pool draining a job queue, a content-addressed result cache, and the
// streaming machinery over both. Build one with New, mount it anywhere
// (it implements http.Handler), and stop it with Shutdown.
type Server struct {
	cfg Config
	mux *http.ServeMux

	ctx         context.Context
	cancel      context.CancelFunc
	queue       chan *entry
	workersDone chan struct{}

	// feeders counts live campaign feeder goroutines (blocking queue
	// senders); Shutdown waits for them before closing the queue, so a
	// feeder can never send on a closed channel.
	feeders sync.WaitGroup

	mu        sync.Mutex
	entries   map[string]*entry // cache key -> entry (evicted on non-cacheable end)
	jobs      map[string]*entry // job id -> entry (never evicted; ids stay resolvable)
	campaigns map[string]*campaign
	seq       int
	campSeq   int
	draining  bool
	stats     Stats

	// testHold, when non-nil, gates every worker between dequeuing a job
	// and running it: runJob publishes StatusRunning, then blocks until
	// the channel yields. Tests use it to pin a worker mid-job so queue
	// overflow (429) and drain behaviour become deterministic.
	testHold chan struct{}
	// testRoundHook, when non-nil, runs after every observed round —
	// tests use it to slow a job down so Shutdown provably lands mid-run.
	testRoundHook func()
}

// New builds a Server and starts its worker pool. The pool runs until
// Shutdown closes the queue.
func New(cfg Config) *Server {
	if cfg.Workers <= 0 {
		cfg.Workers = 2
	}
	if cfg.QueueDepth <= 0 {
		cfg.QueueDepth = 16
	}
	s := &Server{
		cfg:         cfg,
		mux:         http.NewServeMux(),
		queue:       make(chan *entry, cfg.QueueDepth),
		workersDone: make(chan struct{}),
		entries:     make(map[string]*entry),
		jobs:        make(map[string]*entry),
		campaigns:   make(map[string]*campaign),
	}
	s.ctx, s.cancel = context.WithCancel(context.Background())
	s.mux.HandleFunc("POST /jobs", s.handleSubmit)
	s.mux.HandleFunc("GET /jobs/{id}", s.handleJob)
	s.mux.HandleFunc("GET /jobs/{id}/stream", s.handleStream)
	s.mux.HandleFunc("POST /campaign", s.handleCampaign)
	s.mux.HandleFunc("GET /campaigns/{id}", s.handleCampaignGet)
	s.mux.HandleFunc("GET /results/{key}", s.handleResult)
	s.mux.HandleFunc("GET /results/{key}/replay", s.handleReplay)
	s.mux.HandleFunc("GET /stats", s.handleStats)
	s.mux.HandleFunc("GET /healthz", s.handleHealthz)
	go func() {
		defer close(s.workersDone)
		// ForEach with workers == n pins one goroutine per pool slot;
		// each loops over the shared queue until Shutdown closes it.
		_ = parallel.ForEach(cfg.Workers, cfg.Workers, func(int) error {
			for e := range s.queue {
				s.runJob(e)
			}
			return nil
		})
	}()
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Shutdown drains the server: submissions start answering 503, running
// engines are cancelled at their next round boundary through the
// RunContext path — each spools a resume checkpoint when SpoolDir is set —
// and the queue closes so idle workers exit. The close waits for campaign
// feeders first (they hold blocking sends on the queue; the cancelled
// context unblocks them and their unfed items seal as cancelled), so the
// queue is provably send-free when it closes. It returns once every
// worker has finished, or with ctx's error if the caller's patience runs
// out first.
func (s *Server) Shutdown(ctx context.Context) error {
	s.mu.Lock()
	already := s.draining
	s.draining = true
	s.mu.Unlock()
	s.cancel()
	if !already {
		s.feeders.Wait()
		close(s.queue)
	}
	select {
	case <-s.workersDone:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// broadcastLocked wakes every waiting streamer. Callers hold s.mu.
func (s *Server) broadcastLocked(e *entry) {
	if e.wake != nil {
		close(e.wake)
	}
	e.wake = make(chan struct{})
}

// roundLine is one NDJSON trace record, emitted per executed round.
type roundLine struct {
	Round  int `json:"round"`
	Len    int `json:"len"`
	Merges int `json:"merges"`
	Hops   int `json:"hops"`
}

// runJob executes one admitted entry on a pool worker: rebuild the chain
// (the spec was validated at admission), run the engine under the server
// context and the wall-clock cap, publish each round as a trace line, and
// seal the terminal status. Non-cacheable ends evict the cache slot and
// spool a checkpoint for resumption.
func (s *Server) runJob(e *entry) {
	s.mu.Lock()
	e.status = StatusRunning
	s.broadcastLocked(e)
	hold := s.testHold
	hook := s.testRoundHook
	s.mu.Unlock()
	if hold != nil {
		<-hold
	}

	ch, opts, err := e.spec.build()
	if err != nil {
		// Unreachable after admission; seal it as failed rather than panic.
		s.seal(e, nil, StatusFailed, err)
		return
	}
	opts.MaxWallTime = s.cfg.MaxJobWall
	opts.Observer = sim.ObserverFunc(func(_ *chain.Chain, rep core.RoundReport) {
		line, _ := json.Marshal(roundLine{
			Round:  rep.Round,
			Len:    rep.ChainLen,
			Merges: rep.Merges(),
			Hops:   rep.MergeHops + rep.RunnerHops + rep.StartHops,
		})
		s.mu.Lock()
		e.lines = append(e.lines, line)
		s.broadcastLocked(e)
		s.mu.Unlock()
		if hook != nil {
			hook()
		}
	})
	engine, err := sim.NewEngine(ch, opts)
	if err != nil {
		s.seal(e, nil, StatusFailed, err)
		return
	}
	res, err := engine.RunContext(s.ctx)

	s.mu.Lock()
	s.stats.EngineRounds += int64(res.Rounds)
	s.mu.Unlock()

	switch {
	case err == nil && res.Gathered:
		s.seal(e, &res, StatusDone, nil)
	case errors.Is(err, sim.ErrWatchdog), errors.Is(err, sim.ErrStalled):
		// Deterministic clean DNFs: the verdict is part of the content,
		// so it caches exactly like a gathered result.
		s.seal(e, &res, StatusDNF, err)
	case errors.Is(err, context.Canceled):
		s.spool(e, engine)
		s.seal(e, &res, StatusCancelled, err)
	case errors.Is(err, sim.ErrDeadline):
		s.spool(e, engine)
		s.seal(e, &res, StatusDeadline, err)
	default:
		s.seal(e, &res, StatusFailed, err)
	}
}

// spool writes the engine's checkpoint to SpoolDir as <key>.ckpt so an
// interrupted run can be resumed by a later process. Best effort: a
// poisoned engine or a full disk must not take the drain down with it.
func (s *Server) spool(e *entry, engine *sim.Engine) {
	if s.cfg.SpoolDir == "" {
		return
	}
	cp, err := engine.Checkpoint()
	if err != nil {
		return
	}
	_ = sim.WriteCheckpoint(filepath.Join(s.cfg.SpoolDir, e.key+".ckpt"), cp)
}

// seal publishes an entry's terminal state: result JSON (when the run
// produced one), status, error text, cache eviction for non-cacheable
// ends, and the final wake broadcast.
func (s *Server) seal(e *entry, res *sim.Result, status string, err error) {
	var sealed []byte
	if res != nil {
		sealed, _ = json.Marshal(res)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	e.status = status
	e.result = sealed
	if err != nil {
		e.errMsg = err.Error()
	}
	if !e.cacheable() {
		delete(s.entries, e.key)
	}
	s.broadcastLocked(e)
}

// jobView is the JSON shape of GET /jobs/{id} and of submissions.
type jobView struct {
	ID     string          `json:"id"`
	Key    string          `json:"key"`
	Status string          `json:"status"`
	Rounds int             `json:"rounds"`
	Cached bool            `json:"cached,omitempty"`
	Error  string          `json:"error,omitempty"`
	Result json.RawMessage `json:"result,omitempty"`
}

// viewLocked renders an entry. Callers hold s.mu.
func (s *Server) viewLocked(e *entry, cached bool) jobView {
	return jobView{
		ID:     e.id,
		Key:    e.key,
		Status: e.status,
		Rounds: len(e.lines),
		Cached: cached,
		Error:  e.errMsg,
		Result: json.RawMessage(e.result),
	}
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	// Error text quotes the typed sentinels verbatim ("k+1 <= V"); HTML
	// escaping would mangle them for the curl audience this serves.
	enc.SetEscapeHTML(false)
	_ = enc.Encode(v)
}

func writeError(w http.ResponseWriter, code int, err error) {
	writeJSON(w, code, map[string]string{"error": err.Error()})
}

// handleSubmit is admission control: decode (413 beyond maxJobBytes),
// validate (400 on any typed rejection, including ErrLivelockConfig and a
// size above MaxJobSize), consult the cache (a terminal cacheable entry
// answers inline without touching the queue; a live one coalesces), refuse
// while draining (503), and otherwise enqueue unless the queue is full
// (429).
func (s *Server) handleSubmit(w http.ResponseWriter, r *http.Request) {
	var spec JobSpec
	if err := json.NewDecoder(http.MaxBytesReader(w, r.Body, maxJobBytes)).Decode(&spec); err != nil {
		code := http.StatusBadRequest
		var tooLarge *http.MaxBytesError
		if errors.As(err, &tooLarge) {
			code = http.StatusRequestEntityTooLarge
		}
		writeError(w, code, fmt.Errorf("%w: %v", ErrBadJob, err))
		return
	}
	ch, opts, err := spec.build()
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}
	key, err := cacheKey(ch, opts)
	if err != nil {
		writeError(w, http.StatusBadRequest, err)
		return
	}

	s.mu.Lock()
	s.stats.Submitted++
	if e, ok := s.entries[key]; ok {
		if e.terminal() {
			s.stats.CacheHits++
			view := s.viewLocked(e, true)
			s.mu.Unlock()
			writeJSON(w, http.StatusOK, view)
			return
		}
		s.stats.Coalesced++
		view := s.viewLocked(e, false)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, view)
		return
	}
	if s.draining {
		s.mu.Unlock()
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining, not accepting jobs"))
		return
	}
	s.seq++
	e := &entry{
		id:     fmt.Sprintf("j%d", s.seq),
		key:    key,
		spec:   spec,
		status: StatusQueued,
		wake:   make(chan struct{}),
	}
	select {
	case s.queue <- e:
	default:
		s.stats.Rejected++
		s.mu.Unlock()
		writeError(w, http.StatusTooManyRequests, errors.New("serve: job queue full, retry later"))
		return
	}
	s.entries[key] = e
	s.jobs[e.id] = e
	view := s.viewLocked(e, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusAccepted, view)
}

func (s *Server) handleJob(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	e, ok := s.jobs[r.PathValue("id")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: unknown job %q", r.PathValue("id")))
		return
	}
	view := s.viewLocked(e, false)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleResult(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	e, ok := s.entries[r.PathValue("key")]
	if !ok {
		s.mu.Unlock()
		writeError(w, http.StatusNotFound, fmt.Errorf("serve: no result for key %q", r.PathValue("key")))
		return
	}
	if !e.terminal() {
		view := s.viewLocked(e, false)
		s.mu.Unlock()
		writeJSON(w, http.StatusAccepted, view)
		return
	}
	view := s.viewLocked(e, true)
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, view)
}

func (s *Server) handleStats(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	st := s.stats
	st.Entries = len(s.entries)
	st.Draining = s.draining
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, st)
}

func (s *Server) handleHealthz(w http.ResponseWriter, r *http.Request) {
	s.mu.Lock()
	draining := s.draining
	s.mu.Unlock()
	if draining {
		writeError(w, http.StatusServiceUnavailable, errors.New("serve: draining"))
		return
	}
	w.WriteHeader(http.StatusOK)
	_, _ = w.Write([]byte("ok\n"))
}
