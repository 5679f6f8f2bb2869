// Command perfbench is the repository's benchmark. One invocation runs one
// named workload (gather, campaign or serve) for a fixed time from a
// single process, checks every outcome, and prints its metrics as one
// JSON object on the last line of standard output:
//
//	perfbench --workload gather --seed 1 --seconds 20 --trace 0
//
// Every workload reports the same metric names, each measured on the
// workload's own operation (README.md defines them per workload). With
// --trace 0 the metrics are the end-to-end metrics, measured with no
// tracing at all. With --trace 1 the run spends half its time repeating
// the untraced measurement and the other half driving the same inputs
// again through the layers' public functions with a span around each
// call, and prints the per-layer metrics plus the tracing overhead
// (traced minus untraced) of every end-to-end metric. The spans
// are kept in memory and written to
// <out>/spans-<workload>-seed<seed>.jsonl when the run ends. README.md
// lists the workloads and the metric map.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"time"
)

// defaultSeed is the workload seed the recorded outcomes in golden.go
// belong to.
const defaultSeed = 1

// procs pins the benchmark to the two cores it was designed for, so a
// larger machine does not change what a run measures.
const procs = 2

// setups is how often a workload sets up per run; setup_s is the median.
const setups = 5

type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
}

// run carries one invocation's settings and collects what it measures.
type run struct {
	seed   int64
	budget time.Duration
	// small shrinks every input to its minimal size (self-test only).
	small bool
	// tr is non-nil only while a traced drive runs.
	tr *tracer
	// outcomes and digest are the gather outcomes and the campaign digest
	// the untraced measurement recorded; the traced drive must reproduce
	// them.
	outcomes map[string]outcome
	digest   string

	attempted, failed int
	problems          []string
	metrics           map[string]metric
	samples           map[string]int
	// details are figures of a single workload that the table prints but
	// the result line does not carry, since every workload's result line
	// holds the same metric names.
	details []string
}

// set records a metric with the number of samples it was computed from.
func (r *run) set(name, unit string, v float64, samples int) {
	r.metrics[name] = metric{Value: v, Unit: unit}
	r.samples[name] = samples
}

// detail records a figure for the table only.
func (r *run) detail(name, unit string, v float64, samples int) {
	r.details = append(r.details, fmt.Sprintf("%-40s %16.6g %-6s n=%d (detail)", name, v, unit, samples))
}

// problem records a failed output check; the run then reports
// correct=false.
func (r *run) problem(format string, args ...any) {
	if len(r.problems) < 20 {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// attempt counts one operation and whether it failed.
func (r *run) attempt(ok bool) {
	r.attempted++
	if !ok {
		r.failed++
	}
}

// bench is one named benchmark workload. measure runs the untraced
// measurement and sets the end-to-end metrics; trace re-drives the same
// inputs with spans (r.tr is set) and sets the per-layer metrics plus the
// end-to-end metrics as seen under tracing, from which main derives the
// overhead.
type bench struct {
	measure func(r *run) error
	trace   func(r *run) error
}

var benches = map[string]bench{
	"gather":   {measureGather, traceGather},
	"campaign": {measureCampaign, traceCampaign},
	"serve":    {measureServe, traceServe},
}

func main() {
	name := flag.String("workload", "", "workload to run: gather, campaign or serve")
	seed := flag.Int64("seed", defaultSeed, "workload seed")
	seconds := flag.Float64("seconds", 30, "measuring time in seconds")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer drive")
	out := flag.String("out", ".", "directory the span file is written to")
	flag.Parse()
	w, ok := benches[*name]
	if !ok || *seconds <= 0 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(os.Stderr, "perfbench: need --workload gather|campaign|serve, --seconds > 0, --trace 0|1\n")
		os.Exit(2)
	}
	runtime.GOMAXPROCS(procs)
	res, err := execute(*name, w, *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1, false, *out)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "perfbench: %v\n", err)
		os.Exit(1)
	}
	fmt.Println(string(line))
}

// execute runs one workload and assembles its result. An error means the
// benchmark itself could not run; failed output checks are reported
// through result.Correct instead.
func execute(name string, w bench, seed int64, budget time.Duration, traced, small bool, out string) (result, error) {
	r := &run{seed: seed, budget: budget, small: small, metrics: map[string]metric{}, samples: map[string]int{}}
	if !traced {
		if err := w.measure(r); err != nil {
			return result{}, err
		}
		return r.finish(), nil
	}
	// The traced invocation splits its budget evenly between an untraced
	// reference measurement and the traced drive, so that both sides of
	// every overhead figure ran for the same time.
	r.budget = budget / 2
	if err := w.measure(r); err != nil {
		return result{}, err
	}
	untraced := r.metrics
	r.metrics, r.samples, r.details = map[string]metric{}, map[string]int{}, nil
	r.budget = budget - r.budget
	r.tr = newTracer()
	if err := w.trace(r); err != nil {
		return result{}, err
	}
	layers := map[string]metric{}
	for k, m := range r.metrics {
		if e2e, ok := untraced[k]; ok {
			layers["overhead."+k] = metric{Value: m.Value - e2e.Value, Unit: m.Unit}
			delete(r.samples, k)
			continue
		}
		layers[k] = m
	}
	r.metrics = layers
	path := filepath.Join(out, fmt.Sprintf("spans-%s-seed%d.jsonl", name, seed))
	if err := r.tr.write(path); err != nil {
		return result{}, err
	}
	fmt.Printf("spans: %d written to %s\n", len(r.tr.spans), path)
	return r.finish(), nil
}

// finish prints the human-readable metric table and the problems, and
// returns the result line's contents.
func (r *run) finish() result {
	names := make([]string, 0, len(r.metrics))
	for k := range r.metrics {
		names = append(names, k)
	}
	sort.Strings(names)
	for _, k := range names {
		m := r.metrics[k]
		n := ""
		if s, ok := r.samples[k]; ok {
			n = fmt.Sprintf("n=%d", s)
		}
		fmt.Printf("%-40s %16.6g %-6s %s\n", k, m.Value, m.Unit, n)
	}
	for _, d := range r.details {
		fmt.Println(d)
	}
	for _, p := range r.problems {
		fmt.Fprintf(os.Stderr, "perfbench: check failed: %s\n", p)
	}
	return result{
		Correct:   len(r.problems) == 0 && r.failed == 0,
		Attempted: max(r.attempted, 1),
		Failed:    r.failed,
		Metrics:   r.metrics,
	}
}

// median returns the median of xs (0 for none); xs is sorted in place.
func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs by linear interpolation between
// closest ranks; xs is sorted in place.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	pos := q * float64(len(xs)-1)
	lo := int(math.Floor(pos))
	hi := min(lo+1, len(xs)-1)
	return xs[lo] + (xs[hi]-xs[lo])*(pos-float64(lo))
}

// allocated returns the bytes allocated on the heap since the process
// started (runtime.MemStats.TotalAlloc).
func allocated() uint64 {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return ms.TotalAlloc
}

const mib = 1 << 20

// liveHeapMB returns the live heap in MB after a forced collection.
func liveHeapMB() float64 {
	runtime.GC()
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	return float64(ms.HeapAlloc) / mib
}

// pacer runs whole passes within a budget: the first pass always runs,
// and another while it is expected to overrun the budget by less than
// half a pass, so long passes neither stretch a run by a whole pass nor
// leave half the budget unused.
type pacer struct {
	budget     time.Duration
	start, cur time.Time
	passes     int
}

func newPacer(budget time.Duration) *pacer { return &pacer{budget: budget, start: time.Now()} }

// next reports whether to run another pass.
func (p *pacer) next() bool {
	now := time.Now()
	if p.passes > 0 && now.Sub(p.start)+now.Sub(p.cur)/2 > p.budget {
		return false
	}
	p.cur = now
	p.passes++
	return true
}
