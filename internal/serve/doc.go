// Package serve is the gathering-as-a-service layer (ROADMAP item 1,
// DESIGN.md §12): a long-running HTTP server that accepts scenario+config
// jobs, runs them on a bounded worker pool with per-job deadlines, streams
// per-round traces as SSE/NDJSON, and — the centerpiece — answers
// re-submissions of identical jobs from a content-addressed result cache
// without stepping the engine.
//
// The cache trick is bought entirely by the repo's determinism contract: a
// simulation's Result is a pure function of (canonical scenario bytes,
// algorithm config, scheduler config, strategy, round budget), pinned by
// the golden-fixture and conformance machinery, so a SHA-256 over exactly
// those fields is a sound address for the pinned Result. Runtime knobs that
// provably cannot change bytes (wall-clock limits, invariant checking) stay
// out of the key.
//
// POST /campaign lifts admission from one job to a whole declarative
// workload spec (internal/workload): the YAML body expands
// deterministically into its item stream, every item is admitted through
// the same content-addressed cache — terminal entries answer without
// touching the queue, identical items within one campaign share a single
// engine run — and a background feeder drips items larger than the queue
// depth into the pool as workers free slots. Re-POSTing a finished
// campaign's spec bytes answers entirely from the cache, with the
// engine-round counter provably frozen.
//
// Admission control is deliberately boring: a full queue answers 429, a
// draining server answers 503, and a job whose options fail
// sim.Options.Validate — including the typed E11 livelock rejection
// (sim.ErrLivelockConfig) — answers 400 before any chain is built. Graceful
// shutdown cancels running engines at a round boundary through the PR 8
// RunContext path and spools their checkpoints, so a drained job's progress
// survives the process.
package serve
