// Command gatherd is the long-running simulation service: an HTTP server
// (internal/serve) that accepts gathering jobs, runs them on a bounded
// worker pool, streams per-round traces, and answers identical
// re-submissions from a content-addressed result cache without stepping
// the engine. See DESIGN.md §12 and the README quickstart.
//
// Usage:
//
//	gatherd -addr :8080
//	gatherd -addr 127.0.0.1:8080 -workers 4 -queue 64 -spool /var/spool/gatherd
//
// Submit a job and watch it:
//
//	curl -s localhost:8080/jobs -d '{"shape":"spiral","size":200}'
//	curl -N localhost:8080/jobs/j1/stream
//
// Or submit a whole declarative campaign (internal/workload spec):
//
//	curl -s localhost:8080/campaign --data-binary @campaign.yaml
//	curl -s localhost:8080/campaigns/c1
//
// SIGINT/SIGTERM drains gracefully: submissions get 503, running engines
// stop at their next round boundary, and — with -spool — each interrupted
// run leaves a resumable checkpoint behind. Exits 130 when interrupted,
// the conventional status of a signal-terminated process.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net/http"
	"os"
	"os/signal"
	"syscall"
	"time"

	"gridgather/internal/serve"
)

// exitInterrupted mirrors gathersim: 128+SIGINT, so scripts can tell a
// drained shutdown from a crash.
const exitInterrupted = 130

func usage() {
	w := flag.CommandLine.Output()
	fmt.Fprint(w, `gatherd — HTTP gathering-simulation service with a result cache.

Flags:
  -addr HOST:PORT    listen address (default :8080)
  -workers N         concurrent simulation workers (default 2)
  -queue N           pending-job queue depth before 429 (default 16)
  -max-job-wall D    per-job wall-clock cap, e.g. 30s, 5m (default none);
                     an expired job ends with status "deadline"
  -spool DIR         write resume checkpoints for drained/expired runs
  -drain-timeout D   how long shutdown waits for workers (default 30s)

Endpoints:
  POST /jobs                 submit {scenario|shape,size,seed,config,strategy,sched,maxRounds,workers};
                             size <= 4096 (serve.MaxJobSize), body <= 64 KiB
  POST /campaign             submit a declarative workload spec (YAML, internal/workload);
                             every expanded item is admitted like a job, deduplicated
                             by the same content-addressed cache
  GET  /campaigns/{id}       campaign progress: per-item statuses and rollup
  GET  /jobs/{id}            job status (+result once terminal)
  GET  /jobs/{id}/stream     SSE per-round trace; replays identically after completion
  GET  /results/{key}        result by content address
  GET  /results/{key}/replay finished trace as NDJSON
  GET  /stats                cache and engine counters
  GET  /healthz              liveness (503 while draining)
`)
}

func main() {
	addr := flag.String("addr", ":8080", "listen address")
	workers := flag.Int("workers", 2, "concurrent simulation workers")
	queue := flag.Int("queue", 16, "pending-job queue depth")
	maxWall := flag.Duration("max-job-wall", 0, "per-job wall-clock cap (0 = none)")
	spool := flag.String("spool", "", "checkpoint spool directory for interrupted runs")
	drainTimeout := flag.Duration("drain-timeout", 30*time.Second, "shutdown drain budget")
	flag.Usage = usage
	flag.Parse()

	if *spool != "" {
		if err := os.MkdirAll(*spool, 0o755); err != nil {
			fmt.Fprintf(os.Stderr, "gatherd: spool dir: %v\n", err)
			os.Exit(1)
		}
	}

	srv := serve.New(serve.Config{
		Workers:    *workers,
		QueueDepth: *queue,
		MaxJobWall: *maxWall,
		SpoolDir:   *spool,
	})
	httpSrv := &http.Server{Addr: *addr, Handler: srv}

	ctx, stop := signal.NotifyContext(context.Background(), syscall.SIGINT, syscall.SIGTERM)
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- httpSrv.ListenAndServe() }()
	fmt.Fprintf(os.Stderr, "gatherd: listening on %s\n", *addr)

	select {
	case err := <-errCh:
		fmt.Fprintf(os.Stderr, "gatherd: %v\n", err)
		os.Exit(1)
	case <-ctx.Done():
	}

	// Drain: stop signal delivery (a second ^C kills us the hard way),
	// refuse new work, let running engines reach a round boundary and
	// spool, then close the listener.
	stop()
	fmt.Fprintln(os.Stderr, "gatherd: draining...")
	drainCtx, cancel := context.WithTimeout(context.Background(), *drainTimeout)
	defer cancel()
	if err := srv.Shutdown(drainCtx); err != nil {
		fmt.Fprintf(os.Stderr, "gatherd: drain incomplete: %v\n", err)
	}
	if err := httpSrv.Shutdown(drainCtx); err != nil && !errors.Is(err, context.DeadlineExceeded) {
		fmt.Fprintf(os.Stderr, "gatherd: http shutdown: %v\n", err)
	}
	os.Exit(exitInterrupted)
}
