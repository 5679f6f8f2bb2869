package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"gridgather/internal/generate"
	"gridgather/internal/serve"
)

// The serve workload runs gatherd in process — serve.New with one engine
// worker behind a loopback httptest server — and drives it over at most
// two client connections in two phases:
//
//   - (a) an open loop at a fixed rate of hitRate + missRate requests per
//     second, mixing repeat submissions of a warm working set (cache hits)
//     with fresh-seed submissions (misses) that are awaited on
//     /jobs/{id}/stream. Every request is timed from when it was due. The
//     rate is about a quarter of the hits-only capacity: each awaited
//     miss holds a connection, so near half the capacity both connections
//     stall behind the longest misses and the latencies swing 2-3x from
//     run to run.
//   - (b) a closed loop of hits only on both connections, which gives the
//     hit capacity.
//
// It is the only workload that crosses the serve stages (decode, build,
// key, lookup, encode), the queue and the per-entry traces the server
// never evicts, and it does no large-n round work. The hit set spans every
// generate family at three sizes because a hit rebuilds its chain before
// hashing it: serve.CacheKey costs microseconds on a 1024-robot walk and
// milliseconds on a 1024-robot rectangle.
const (
	hitRate   = 180 // phase (a) hits per second
	missRate  = 60  // phase (a) misses per second
	serveConn = 2
	// phaseAShare is the share of the measuring time phase (a) gets.
	phaseAShare = 0.7
	// capacitySlices is how many equal slices phase (b) is cut into; the
	// hit capacity is the median of their rates, so a short stall of the
	// host moves one slice rather than the figure.
	capacitySlices = 9
)

// missFamilies are the seeded families: a fresh seed gives a fresh chain,
// so every miss is a real miss.
var missFamilies = []string{"walk", "polyomino", "histogram", "doubled"}

// missSizes is how many log-spaced sizes the miss range is cut into. Every
// (family, size) pair comes up equally often, so that the tail latencies
// depend on the code rather than on how many large chains a seed drew.
const missSizes = 8

func hitSizes(small bool) []int {
	if small {
		return []int{16, 32}
	}
	return []int{64, 256, 1024}
}

func missRange(small bool) (lo, hi int) {
	if small {
		return 16, 48
	}
	return 64, 512
}

// jobView is the JSON shape gatherd answers submissions and GET
// /jobs/{id} with. Rounds is the number of trace lines the server holds
// for the job.
type jobView struct {
	ID     string          `json:"id"`
	Rounds int             `json:"rounds"`
	Cached bool            `json:"cached"`
	Result json.RawMessage `json:"result"`
}

// sealed is the part of a sealed sim.Result the checks read.
type sealed struct {
	Gathered         bool
	Rounds, FinalLen int
}

type hitEntry struct {
	spec   serve.JobSpec
	body   []byte
	result []byte // the result the warming miss sealed
}

// gatherd is one running server with its client.
type gatherd struct {
	srv       *serve.Server
	ts        *httptest.Server
	transport *http.Transport
	client    *http.Client
	hits      []hitEntry
	// keys holds the cache key of every job submitted so far.
	keys map[string]bool
	// ids holds the id of every job admitted as a miss, warming included.
	mu  sync.Mutex
	ids []string
}

func startGatherd(r *run) (*gatherd, error) {
	srv := serve.New(serve.Config{Workers: 1})
	tr := &http.Transport{MaxConnsPerHost: serveConn, MaxIdleConnsPerHost: serveConn, DisableCompression: true}
	g := &gatherd{srv: srv, ts: httptest.NewServer(srv), transport: tr,
		client: &http.Client{Transport: tr, Timeout: time.Minute}}
	g.keys = map[string]bool{}
	for _, shape := range generate.Names() {
		for _, n := range hitSizes(r.small) {
			spec := serve.JobSpec{Shape: shape, Size: n, Seed: 1}
			key, err := serve.CacheKey(spec)
			if err != nil {
				g.close()
				return nil, err
			}
			if g.keys[key] {
				continue // a family that rounds two sizes to one chain
			}
			g.keys[key] = true
			body, err := json.Marshal(spec)
			if err != nil {
				g.close()
				return nil, err
			}
			res, _, _, err := g.miss(body)
			if err != nil {
				g.close()
				return nil, fmt.Errorf("warming %s n=%d: %w", shape, n, err)
			}
			g.hits = append(g.hits, hitEntry{spec: spec, body: body, result: res})
		}
	}
	return g, nil
}

func (g *gatherd) close() {
	g.ts.Close()
	g.transport.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	_ = g.srv.Shutdown(ctx) // every job has ended; nothing is left to drain
}

// post submits one job and returns the status code and the decoded view.
func (g *gatherd) post(body []byte) (int, jobView, error) {
	resp, err := g.client.Post(g.ts.URL+"/jobs", "application/json", bytes.NewReader(body))
	if err != nil {
		return 0, jobView{}, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return 0, jobView{}, err
	}
	var v jobView
	if resp.StatusCode/100 == 2 {
		if err := json.Unmarshal(data, &v); err != nil {
			return 0, jobView{}, err
		}
	}
	return resp.StatusCode, v, nil
}

// miss submits a job that must not be cached yet, awaits its stream's
// result event and checks that the job gathered. It returns the sealed
// result and when the POST answered and the first event arrived.
func (g *gatherd) miss(body []byte) (result []byte, admitted, first time.Time, err error) {
	code, v, err := g.post(body)
	if err != nil {
		return nil, admitted, first, err
	}
	admitted = time.Now()
	if code != http.StatusAccepted || v.Cached {
		return nil, admitted, first, fmt.Errorf("fresh job answered %d cached=%v", code, v.Cached)
	}
	g.mu.Lock()
	g.ids = append(g.ids, v.ID)
	g.mu.Unlock()
	resp, err := g.client.Get(g.ts.URL + "/jobs/" + v.ID + "/stream")
	if err != nil {
		return nil, admitted, first, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return nil, admitted, first, fmt.Errorf("stream answered %d", resp.StatusCode)
	}
	br := bufio.NewReader(resp.Body)
	inResult := false
	for result == nil {
		line, err := br.ReadBytes('\n')
		if err != nil {
			return nil, admitted, first, fmt.Errorf("stream ended before its result: %w", err)
		}
		if first.IsZero() && len(line) > 1 {
			first = time.Now()
		}
		switch {
		case bytes.HasPrefix(line, []byte("event: result")):
			inResult = true
		case inResult && bytes.HasPrefix(line, []byte("data: ")):
			result = bytes.TrimSuffix(line[len("data: "):], []byte("\n"))
		}
	}
	_, _ = io.Copy(io.Discard, resp.Body) // let the connection be reused
	var s sealed
	if err := json.Unmarshal(result, &s); err != nil || !s.Gathered {
		return nil, admitted, first, fmt.Errorf("job %s ended without gathering: %.200s", v.ID, result)
	}
	return result, admitted, first, nil
}

// hit submits a warm job and checks that it is answered from the cache
// with the result its miss sealed.
func (g *gatherd) hit(h hitEntry) error {
	code, v, err := g.post(h.body)
	if err != nil {
		return err
	}
	if code != http.StatusOK || !v.Cached || !bytes.Equal(v.Result, h.result) {
		return fmt.Errorf("hit %s n=%d answered %d cached=%v, result equal=%v",
			h.spec.Shape, h.spec.Size, code, v.Cached, bytes.Equal(v.Result, h.result))
	}
	return nil
}

// retainedLines asks the server for every job admitted so far and sums
// the trace lines it still holds for them; a job it no longer knows adds
// none.
func (g *gatherd) retainedLines() (int, error) {
	g.mu.Lock()
	ids := append([]string(nil), g.ids...)
	g.mu.Unlock()
	total := 0
	for _, id := range ids {
		resp, err := g.client.Get(g.ts.URL + "/jobs/" + id)
		if err != nil {
			return 0, err
		}
		var v jobView
		switch resp.StatusCode {
		case http.StatusOK:
			err = json.NewDecoder(resp.Body).Decode(&v)
		case http.StatusNotFound:
		default:
			err = fmt.Errorf("GET /jobs/%s answered %d", id, resp.StatusCode)
		}
		_, _ = io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if err != nil {
			return 0, err
		}
		total += v.Rounds
	}
	return total, nil
}

func (g *gatherd) stats() (serve.Stats, error) {
	resp, err := g.client.Get(g.ts.URL + "/stats")
	if err != nil {
		return serve.Stats{}, err
	}
	defer resp.Body.Close()
	var st serve.Stats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return serve.Stats{}, fmt.Errorf("reading /stats: %w", err)
	}
	return st, nil
}

// setupServe starts and warms gatherd setups times and keeps the last
// server; it returns the median set-up time in seconds.
func setupServe(r *run) (*gatherd, float64, error) {
	var g *gatherd
	var times []float64
	for i := 0; i < setups; i++ {
		if g != nil {
			g.close()
		}
		t0 := time.Now()
		var err error
		if g, err = startGatherd(r); err != nil {
			return nil, 0, err
		}
		times = append(times, time.Since(t0).Seconds())
	}
	return g, median(times), nil
}

// openReq is one scheduled request of phase (a): a hit on hits[hit], or a
// miss with body when hit < 0.
type openReq struct {
	at   time.Duration // due time, from the start of the phase
	hit  int
	body []byte
}

// openTimes is what one phase (a) request measured, in milliseconds from
// its due time.
type openTimes struct {
	hit                          bool
	ok                           bool
	body, result                 []byte // a miss's job and sealed result
	late, done                   float64
	sent, admitted, first, ended time.Time
}

// deal returns the next card of a deck of n cards shuffled by rng, and
// shuffles a new deck once it is used up, so that every card comes up
// equally often in a seeded order.
func deal(rng *rand.Rand, deck *[]int, n int) int {
	if len(*deck) == 0 {
		*deck = rng.Perm(n)
	}
	c := (*deck)[0]
	*deck = (*deck)[1:]
	return c
}

// schedule lays out phase (a): requests at a fixed spacing, the misses
// spread evenly among the hits. The hits are dealt from the hit set and
// the misses from the (family, size) pairs, in an order and with chain
// seeds drawn from the workload seed.
func schedule(r *run, hits int, taken map[string]bool, d time.Duration) ([]openReq, error) {
	rng := rand.New(rand.NewSource(r.seed))
	lo, hi := missRange(r.small)
	total := int((hitRate + missRate) * d.Seconds())
	step := time.Second / (hitRate + missRate)
	reqs := make([]openReq, 0, total)
	var hitDeck, missDeck []int
	for i := 0; i < total; i++ {
		q := openReq{at: time.Duration(i) * step, hit: -1}
		if (i+1)*missRate/(hitRate+missRate) == i*missRate/(hitRate+missRate) {
			q.hit = deal(rng, &hitDeck, hits)
			reqs = append(reqs, q)
			continue
		}
		// Deal again when some earlier job already has the chain, so that
		// every miss is a real miss.
		for q.body == nil {
			c := deal(rng, &missDeck, len(missFamilies)*missSizes)
			size := float64(c/len(missFamilies)) + 0.5
			n := int(math.Round(float64(lo) * math.Pow(float64(hi)/float64(lo), size/missSizes)))
			spec := serve.JobSpec{Shape: missFamilies[c%len(missFamilies)], Size: n, Seed: rng.Int63()}
			key, err := serve.CacheKey(spec)
			if err != nil {
				return nil, err
			}
			if taken[key] {
				continue
			}
			taken[key] = true
			if q.body, err = json.Marshal(spec); err != nil {
				return nil, err
			}
		}
		reqs = append(reqs, q)
	}
	return reqs, nil
}

// openLoop runs phase (a) on serveConn connections: each connection takes
// the next request in due order, waits until it is due, and sends it.
func (g *gatherd) openLoop(r *run, d time.Duration) ([]openTimes, error) {
	reqs, err := schedule(r, len(g.hits), g.keys, d)
	if err != nil {
		return nil, err
	}
	start := time.Now()
	out := make([]openTimes, len(reqs))
	var next atomic.Int64
	var mu sync.Mutex
	var wg sync.WaitGroup
	for c := 0; c < serveConn; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				i := int(next.Add(1) - 1)
				if i >= len(reqs) {
					return
				}
				q := reqs[i]
				due := start.Add(q.at)
				time.Sleep(time.Until(due))
				t := openTimes{hit: q.hit >= 0, body: q.body, sent: time.Now()}
				var err error
				if t.hit {
					err = g.hit(g.hits[q.hit])
				} else {
					t.result, t.admitted, t.first, err = g.miss(q.body)
				}
				t.ended = time.Now()
				t.ok = err == nil
				t.late = ms(t.sent.Sub(due))
				t.done = ms(t.ended.Sub(due))
				out[i] = t
				if err != nil {
					mu.Lock()
					r.problem("request %d: %v", i, err)
					mu.Unlock()
				}
			}
		}()
	}
	wg.Wait()
	return out, nil
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// closedLoop runs phase (b): serveConn connections send hits back to back
// for d. It returns the hits' latencies from send in milliseconds and the
// median over capacitySlices equal slices of the phase of the hits
// completed per second.
func (g *gatherd) closedLoop(r *run, d time.Duration) ([]float64, float64) {
	start := time.Now()
	lats := make([][]float64, serveConn)
	done := make([][]time.Duration, serveConn)
	errs := make([][]error, serveConn)
	var wg sync.WaitGroup
	for c := 0; c < serveConn; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(r.seed + int64(c) + 1))
			var deck []int
			for time.Since(start) < d {
				t0 := time.Now()
				err := g.hit(g.hits[deal(rng, &deck, len(g.hits))])
				lats[c] = append(lats[c], ms(time.Since(t0)))
				done[c] = append(done[c], time.Since(start))
				if err != nil {
					errs[c] = append(errs[c], err)
				}
			}
		}(c)
	}
	wg.Wait()
	elapsed := time.Since(start)
	var all []float64
	rates := make([]float64, capacitySlices)
	slice := elapsed.Seconds() / capacitySlices
	for c := range lats {
		all = append(all, lats[c]...)
		for _, t := range done[c] {
			r.attempt(true)
			rates[min(int(t.Seconds()/slice), capacitySlices-1)] += 1 / slice
		}
		for _, err := range errs[c] {
			r.failed++
			r.problem("closed-loop hit: %v", err)
		}
	}
	return all, median(rates)
}

// serveRun is what one serve measurement saw.
type serveRun struct {
	open      []openTimes
	allocMB   float64 // allocated during phase (a)
	closed    []float64
	capacity  float64
	heapMB    float64
	heapBytes float64 // growth of the live heap since before set-up
	stats     serve.Stats
}

// driveServe sets up gatherd, runs both phases and reads the live heap
// and the server's counters; it sets the end-to-end metrics.
func driveServe(r *run) (*gatherd, serveRun, error) {
	var out serveRun
	runtime.GC()
	var ms0 runtime.MemStats
	runtime.ReadMemStats(&ms0)
	g, setup, err := setupServe(r)
	if err != nil {
		return nil, out, err
	}
	a0 := allocated()
	open, err := g.openLoop(r, time.Duration(float64(r.budget)*phaseAShare))
	if err != nil {
		g.close()
		return nil, out, err
	}
	out.allocMB = float64(allocated()-a0) / mib
	out.open = open
	before, err := g.stats()
	if err != nil {
		g.close()
		return nil, out, err
	}
	out.closed, out.capacity = g.closedLoop(r, r.budget-time.Duration(float64(r.budget)*phaseAShare))
	n := len(out.closed)
	if out.stats, err = g.stats(); err != nil {
		g.close()
		return nil, out, err
	}
	if out.stats.EngineRounds != before.EngineRounds {
		r.problem("engine rounds moved during the hits-only phase: %d -> %d", before.EngineRounds, out.stats.EngineRounds)
	}
	runtime.GC()
	var ms1 runtime.MemStats
	runtime.ReadMemStats(&ms1)
	out.heapMB = float64(ms1.HeapAlloc) / mib
	out.heapBytes = float64(ms1.HeapAlloc) - float64(ms0.HeapAlloc)

	fmt.Printf("hit set %d chains; phase (a) %d requests; phase (b) %d hits\n", len(g.hits), len(open), n)
	var hitLat, missLat []float64
	for _, t := range open {
		r.attempt(t.ok)
		if t.hit {
			hitLat = append(hitLat, t.done)
		} else {
			missLat = append(missLat, t.done)
		}
	}
	r.set("setup_s", "s", setup, setups)
	r.set("latency_ms", "ms", median(hitLat), len(hitLat))
	r.set("throughput_per_s", "1/s", out.capacity, n)
	r.set("alloc_mb", "MB", out.allocMB, len(open))
	r.set("heap_mb", "MB", out.heapMB, 1)
	r.detail("hit_p99_ms", "ms", quantile(hitLat, 0.99), len(hitLat))
	r.detail("miss_p50_ms", "ms", median(missLat), len(missLat))
	r.detail("miss_p99_ms", "ms", quantile(missLat, 0.99), len(missLat))
	return g, out, nil
}

func measureServe(r *run) error {
	g, _, err := driveServe(r)
	if err != nil {
		return err
	}
	g.close()
	return nil
}

func traceServe(r *run) error {
	g, run, err := driveServe(r)
	if err != nil {
		return err
	}
	defer g.close()
	var late, admit, wait, runMs []float64
	for i, t := range run.open {
		late = append(late, t.late)
		id := fmt.Sprintf("req%d", i)
		root := r.tr.add("client.request", id, -1, t.sent, t.ended)
		if t.hit || !t.ok {
			continue
		}
		admit = append(admit, float64(t.admitted.Sub(t.sent))/float64(time.Microsecond))
		wait = append(wait, ms(t.first.Sub(t.admitted)))
		runMs = append(runMs, ms(t.ended.Sub(t.first)))
		r.tr.add("serve.admit", id, root, t.sent, t.admitted)
		r.tr.add("serve.queue_wait", id, root, t.admitted, t.first)
		r.tr.add("serve.run", id, root, t.first, t.ended)
	}
	st := run.stats
	r.detail("client.late_p99_ms", "ms", quantile(late, 0.99), len(late))
	r.detail("serve.admit_miss_us", "us", median(admit), len(admit))
	r.detail("serve.queue_wait_ms", "ms", median(wait), len(wait))
	r.detail("serve.run_ms", "ms", median(runMs), len(runMs))
	r.detail("serve.cache_hit_ratio", "ratio", float64(st.CacheHits)/float64(st.Submitted), st.Submitted)
	r.detail("serve.engine_rounds", "count", float64(st.EngineRounds), 1)
	r.detail("serve.rejected", "count", float64(st.Rejected), 1)
	r.detail("serve.coalesced", "count", float64(st.Coalesced), 1)
	lines, err := g.retainedLines()
	if err != nil {
		return err
	}
	r.detail("serve.retained_trace_lines", "count", float64(lines), st.Entries)
	r.detail("serve.heap_bytes_per_entry", "B", run.heapBytes/float64(st.Entries), st.Entries)

	// In-process probes on the hit set: the key and the handler without
	// the network.
	var key, handler []float64
	for rep := 0; rep < 10; rep++ {
		for _, h := range g.hits {
			sp := r.tr.begin("serve.cache_key", h.spec.Shape, -1)
			_, err := serve.CacheKey(h.spec)
			key = append(key, float64(r.tr.end(sp))/float64(time.Microsecond))
			if err != nil {
				return err
			}
			rec := httptest.NewRecorder()
			req := httptest.NewRequest(http.MethodPost, "/jobs", bytes.NewReader(h.body))
			sp = r.tr.begin("serve.handler_hit", h.spec.Shape, -1)
			g.srv.ServeHTTP(rec, req)
			handler = append(handler, float64(r.tr.end(sp))/float64(time.Microsecond))
			var v jobView
			if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &v) != nil || !v.Cached {
				r.problem("in-process hit %s n=%d answered %d", h.spec.Shape, h.spec.Size, rec.Code)
			}
		}
	}
	r.detail("serve.cache_key_us.p50", "us", median(key), len(key))
	r.detail("serve.cache_key_us.p99", "us", quantile(key, 0.99), len(key))
	handlerP50 := median(handler)
	r.detail("serve.handler_hit_us", "us", handlerP50, len(handler))
	r.detail("net.loopback_us", "us", median(run.closed)*1e3-handlerP50, len(run.closed))

	lt, err := r.twinMisses(run.open)
	if err != nil {
		return err
	}
	r.setLayers(lt)
	return nil
}

// serveTwins is how many of phase (a)'s misses, in due order, the traced
// run gathers again through the twin drives: two decks, so every
// (family, size) pair comes up twice.
var serveTwins = 2 * len(missFamilies) * missSizes

// twinMisses rebuilds the first serveTwins misses with generate.Named, as
// gatherd does on admission, and gathers each through the twin drives,
// holding both to the result gatherd sealed for it.
func (r *run) twinMisses(open []openTimes) (*layerTotals, error) {
	lt := &layerTotals{counts: map[string]int{}}
	twins := 0
	for i, t := range open {
		if t.hit || !t.ok || twins == serveTwins {
			continue
		}
		twins++
		var spec serve.JobSpec
		var s sealed
		if err := json.Unmarshal(t.body, &spec); err != nil {
			return nil, err
		}
		if err := json.Unmarshal(t.result, &s); err != nil {
			return nil, err
		}
		id := fmt.Sprintf("req%d", i)
		sp := r.tr.begin("generate.build", id, -1)
		ch, err := generate.Named(spec.Shape, spec.Size, rand.New(rand.NewSource(spec.Seed)))
		lt.build += r.tr.end(sp)
		lt.chains++
		if err != nil {
			return nil, err
		}
		want := map[string]outcome{id: {s.Rounds, s.FinalLen}}
		check := func(o outcome, gathered bool, err error, limit int) {
			r.checkOutcome(id, o, gathered, err, limit, want)
		}
		// The misses carry no options, so gatherd ran them on the defaults.
		if _, err := r.twin(twinInput{id: id, ch: ch}, lt, lt.counts, check); err != nil {
			return nil, err
		}
	}
	return lt, nil
}
