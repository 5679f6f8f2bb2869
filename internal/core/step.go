package core

import (
	"fmt"

	"gridgather/internal/chain"
	"gridgather/internal/grid"
	"gridgather/internal/view"
)

// hostRuns is the per-robot run registry entry: a fixed-capacity slot array
// instead of a heap slice, so the registry rebuild at the end of every round
// allocates nothing. A robot stores at most two run states (the paper's
// constant-memory bound); the engine's hard invariant rejects more than
// three, so four slots cover every state the simulator can reach. Should a
// defensive path ever overflow them, the count keeps the truth (the
// occupancy audit flags it) and only the excess pointers are dropped.
type hostRuns struct {
	n    int // true number of hosted runs (may exceed the stored slots)
	runs [4]*Run
}

// add records a run on the host, dropping the pointer if all slots are full.
func (h *hostRuns) add(r *Run) {
	if h.n < len(h.runs) {
		h.runs[h.n] = r
	}
	h.n++
}

// stored returns the retained run pointers.
func (h *hostRuns) stored() []*Run {
	return h.runs[:min(h.n, len(h.runs))]
}

// stepScratch is the Algorithm's reusable per-round working state. Every
// table and slice is cleared (not re-made) at the start of the phase using
// it, which keeps the steady-state round loop allocation-free; see
// DESIGN.md §5 for the reuse rules. The per-robot tables are flat
// chain.Scratch slices indexed by handle with O(1) generation clearing —
// no pointer-keyed maps remain on the hot path (DESIGN.md §6). Nothing
// here survives a round as meaningful state — the chain, the run registry
// and the round counter are the only true state of the algorithm, which is
// why scratch reuse cannot affect determinism.
type stepScratch struct {
	decisions   []runDecision
	pending     []pendingStart
	startHops   chain.Scratch[grid.Vec]
	hops        chain.Scratch[grid.Vec]
	runnerHop   chain.Scratch[struct{}]
	survivorOf  chain.Scratch[chain.Handle]
	moved       []chain.Handle
	alive       []*Run
	pairKey     map[[2]int]int
	runViews    []view.RunView
	starts      []StartEvent
	ends        []EndEvent
	mergeEvents []chain.MergeEvent
}

// Algorithm executes the paper's gathering strategy on one chain. It owns
// the run registry and advances the configuration one FSYNC round per Step
// call, performing for every robot the three checks of Fig 15: merge, run
// operations, and (every L-th round) run starts.
type Algorithm struct {
	cfg      Config
	ch       *chain.Chain
	runs     []*Run
	byHandle chain.Scratch[hostRuns]
	round    int
	nextRun  int
	nextPair int

	// plan and scratch are reused round over round (cleared, never
	// re-allocated); their contents are valid only within one Step call.
	plan    *MergePlan
	scratch stepScratch

	// fault is the armed self-test defect (FaultNone in production) and
	// faultFrom the round it takes effect from; see fault.go.
	fault     Fault
	faultFrom int

	// anomalies accumulates defensive-path counts for the current round;
	// Step moves them into the report.
	anomalies Anomalies

	// spikes and uturns are KernelMergeScan's output (k=1 and k>=2
	// patterns, each in ascending chain order), folded into plan by
	// CombineMergePlan. See kernels.go and DESIGN.md §9.
	spikes []MergePattern
	uturns []MergePattern

	// active is the current round's activation set (nil = FSYNC), stored
	// so the kernels can consult it without an extra parameter.
	active []bool
}

// New creates an Algorithm for the chain with the given configuration.
// The chain is owned by the algorithm afterwards.
func New(ch *chain.Chain, cfg Config) (*Algorithm, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if err := ch.CheckEdges(); err != nil {
		return nil, err
	}
	a := &Algorithm{
		cfg:  cfg,
		ch:   ch,
		plan: NewMergePlan(),
		scratch: stepScratch{
			pairKey: make(map[[2]int]int),
		},
	}
	// Size the per-handle tables once; every later Reset is O(1).
	a.byHandle.Reset(ch.NumHandles())
	return a, nil
}

// Chain exposes the simulated chain (read-only use expected).
func (a *Algorithm) Chain() *chain.Chain { return a.ch }

// Config returns the active configuration.
func (a *Algorithm) Config() Config { return a.cfg }

// Round returns the number of rounds executed so far.
func (a *Algorithm) Round() int { return a.round }

// Runs returns the currently active runs. The slice is shared; callers
// must not mutate it.
func (a *Algorithm) Runs() []*Run { return a.runs }

// RunsOn implements view.RunLocator: the run states visible on a robot.
// Runs started in the current round are not yet visible, matching FSYNC
// semantics (they exist from the next look phase on). The returned slice
// is a shared scratch buffer, valid until the next RunsOn call; the view
// predicates (HasRunTowards/HasRunAway) consume it immediately.
func (a *Algorithm) RunsOn(h chain.Handle) []view.RunView {
	hr, _ := a.byHandle.Get(h) // the zero entry hosts no runs
	views := a.scratch.runViews[:0]
	for _, run := range hr.stored() {
		if !run.justStarted {
			views = append(views, view.RunView{Dir: run.Dir})
		}
	}
	a.scratch.runViews = views
	if len(views) == 0 {
		return nil
	}
	return views
}

// Gathered reports whether the configuration satisfies the termination
// condition (all robots within a 2x2 square).
func (a *Algorithm) Gathered() bool { return a.ch.Gathered() }

// pendingStart is a run about to be created this round, with the pair
// annotation filled in by pairStarts.
type pendingStart struct {
	robot chain.Handle
	idx   int
	dir   int
	kind  StartKind
	pair  int
	good  bool
}

// pairStarts identifies, for every pending run, the pending run started at
// the other endpoint of the same quasi line moving towards it (its pair,
// paper §3.2), and classifies the pair as good (Fig 12: the outer chain
// neighbours of both endpoints lie on the same side of the line). The walk
// uses the full chain — this is engine instrumentation for the Lemma 1/2
// experiments, not information available to a robot; it never influences
// behaviour. The view is unbounded, but EndpointAhead stops at the first
// confirmed deviation, so each start costs O(its quasi line) edge reads
// and no allocation.
func (a *Algorithm) pairStarts(pending []pendingStart) {
	if len(pending) < 2 {
		return
	}
	n := a.ch.Len()
	byKey := a.scratch.pairKey // (idx, dir) -> pending slot
	clear(byKey)
	for i, p := range pending {
		byKey[[2]int{p.idx, p.dir}] = i
	}
	for i := range pending {
		p := &pending[i]
		if p.pair >= 0 {
			continue
		}
		// Walk the quasi line from the start robot in moving direction;
		// the partner sits at its far end, moving back towards us. Use an
		// unbounded view: the instrumentation may see the whole chain.
		s := view.At(a.ch, p.idx, n-1, a)
		endOff, ok := EndpointAhead(s, p.dir)
		if !ok || endOff == 0 {
			continue
		}
		endIdx := ((p.idx+p.dir*endOff)%n + n) % n
		j, found := byKey[[2]int{endIdx, -p.dir}]
		if !found || pending[j].pair >= 0 {
			continue
		}
		q := &pending[j]
		id := a.nextPair
		a.nextPair++
		p.pair, q.pair = id, id
		// Good pair: equal perpendicular offsets of the outer neighbours.
		outerP := a.ch.Pos(p.idx - p.dir).Sub(a.ch.Pos(p.idx))
		outerQ := a.ch.Pos(endIdx + p.dir).Sub(a.ch.Pos(endIdx))
		p.good = outerP == outerQ
		q.good = p.good
	}
}

// InjectRun places a run on the robot at chain index idx moving in
// direction dir (+1/-1). It exists for scenario tests and experiments that
// reproduce the paper's figures with hand-placed runs; the paper's
// algorithm only creates runs through the Fig 5 start patterns. The run
// acts from the next Step call on.
func (a *Algorithm) InjectRun(idx, dir int) *Run {
	host := a.ch.At(idx)
	run := &Run{
		ID:         a.nextRun,
		Host:       host,
		Dir:        dir,
		StartRound: a.round,
		Kind:       StartStairway,
		OpOrigin:   chain.None,
		OpTarget:   chain.None,
		PassTarget: chain.None,
	}
	a.nextRun++
	a.runs = append(a.runs, run)
	hr, _ := a.byHandle.Get(host)
	hr.add(run)
	a.byHandle.Set(host, hr)
	return run
}

// resolveAlive follows merge survivor links (recorded in the scratch
// survivor table for the current round) until it reaches a robot still on
// the chain. maxHops bounds the walk by the number of merge events; a
// longer chain of links would be a cycle, which cannot happen.
func (a *Algorithm) resolveAlive(h chain.Handle, maxHops int) chain.Handle {
	for hops := 0; h != chain.None && !a.ch.Contains(h); hops++ {
		if hops > maxHops {
			return chain.None
		}
		next, ok := a.scratch.survivorOf.Get(h)
		if !ok {
			return chain.None
		}
		h = next
	}
	return h
}

// Step executes one fully synchronous (FSYNC) round and reports what
// happened: every robot is activated. Stepping a gathered configuration is
// a no-op that reports Gathered.
//
// The report's event slices (Starts, Ends, MergeEvents) are backed by
// scratch buffers reused by the next Step call; callers that retain them
// across rounds must copy (see DESIGN.md §5).
func (a *Algorithm) Step() (RoundReport, error) { return a.StepActivated(nil) }

// activeAt reports whether the robot at chain index i is activated this
// round; a nil activation set means FSYNC (everyone is).
func activeAt(active []bool, i int) bool {
	return active == nil || (i >= 0 && i < len(active) && active[i])
}

// StepActivated executes one round under a partial activation set:
// active[i] decides whether the robot at chain index i (at the start of
// the round) performs its look–compute–move cycle. Sleeping robots keep
// their position, start no runs, execute no merge hops, and their hosted
// runs are frozen in place; their stale positions remain fully visible to
// active robots (internal/sched documents the model). A nil set selects
// the FSYNC fast path, which is byte-identical to the pre-scheduler
// implementation — golden traces and the bench trajectory pin that.
func (a *Algorithm) StepActivated(active []bool) (RoundReport, error) {
	rep := RoundReport{Round: a.round}
	if a.ch.Gathered() {
		rep.ChainLen = a.ch.Len()
		rep.Gathered = true
		return rep, nil
	}
	if active != nil && len(active) != a.ch.Len() {
		return rep, fmt.Errorf("core: activation set has %d entries for %d robots", len(active), a.ch.Len())
	}
	a.anomalies = Anomalies{}
	a.active = active
	sc := &a.scratch
	nh := a.ch.NumHandles()
	n := a.ch.Len()
	// Materialise the lazy ring-order cache before the look phase, so the
	// kernels only ever read it.
	a.ch.Handles()

	// ---- Look & compute -------------------------------------------------
	// 1. Merge patterns (Fig 15 step 1). Participants suspend run
	//    operations; blacks hop towards the whites.
	a.KernelMergeScan(0, 0, n)
	if err := a.CombineMergePlan(); err != nil {
		return rep, err
	}
	plan := a.plan
	rep.MergePatterns = len(plan.Patterns)

	// 2. Run operations (Fig 15 step 2), decided against the frozen
	//    look-phase state for every active run. All newly-started flags
	//    clear before any decision: runs created in the same earlier round
	//    become visible to each other simultaneously (FSYNC symmetry).
	for _, run := range a.runs {
		run.justStarted = false
	}
	a.KernelDecide(0, 0, len(a.runs))
	decisions := sc.decisions

	// 3. Run starts (Fig 15 step 3): every L-th round, robots matching the
	//    Fig 5 patterns start runs, unless they take part in a merge. The
	//    start lists are reset here too, so a round that scans nothing
	//    never sees a between-rounds kernel call's output.
	sc.pending = sc.pending[:0]
	sc.startHops.Reset(nh)
	if !a.cfg.DisableRunStarts &&
		a.round%a.cfg.RunPeriod == 0 && n >= MinChainForRuns &&
		(!a.cfg.SequentialRuns || len(a.runs) == 0) {
		a.KernelStartScan(0, 0, n)
		a.pairStarts(sc.pending)
	}
	pending := sc.pending

	// ---- Move -----------------------------------------------------------
	// Collect all hops; apply simultaneously. A robot receives at most one
	// hop source: merge participants have no active run decisions or
	// starts, runner/start hops collide only in anomalous situations,
	// where both are suppressed.
	sc.hops.Reset(nh)
	for _, h := range plan.HopHandles() {
		if !activeAt(active, a.ch.IndexOf(h)) {
			continue // sleeping blacks execute no merge hop
		}
		if v, ok := plan.Hop(h); ok {
			sc.hops.Set(h, v)
			rep.MergeHops++
		}
	}
	sc.runnerHop.Reset(nh)
	for i := range decisions {
		d := &decisions[i]
		if d.terminate || d.hop.IsZero() {
			continue
		}
		r := d.run.Host
		if sc.hops.Has(r) || sc.runnerHop.Has(r) {
			a.anomalies.HopConflicts++
			if sc.runnerHop.Has(r) && sc.hops.Has(r) {
				// Two runner hops on one robot: both are suppressed, so
				// the hop counted when the first one was accepted is
				// retracted too.
				sc.hops.Delete(r)
				rep.RunnerHops--
			}
			continue
		}
		sc.hops.Set(r, d.hop)
		sc.runnerHop.Set(r, struct{}{})
		rep.RunnerHops++
	}
	for _, r := range sc.startHops.Keys() {
		h, _ := sc.startHops.Get(r)
		if sc.hops.Has(r) {
			a.anomalies.HopConflicts++
			continue
		}
		sc.hops.Set(r, h)
		rep.StartHops++
	}
	// Edge-conflict suppression: two runs can end up back to back on the
	// two corners of one jog — merge splices teleport run hosts along
	// survivor links, so opposite-direction runs may become ring
	// neighbours without ever approaching face to face (where run passing
	// would have handled them; found by the conformance campaign on
	// doubled chains, DESIGN.md §7). Both then reshape away from each
	// other and would stretch their shared edge beyond a chain edge.
	// Every runner hop on such an edge is suppressed, like any other hop
	// conflict; the runs advance without reshaping this round.
	//
	// The scan runs to a fixpoint because a suppression changes the edges
	// around the now-static robot: with three or more adjacent runners, a
	// pair validated with both hops applied must be re-validated once a
	// later suppression stops one of them. Termination: every pass that
	// reports a change deletes at least one hop. At the fixpoint all
	// edges are legal — an edge with a live runner hop was verified
	// against the neighbour's effective hop; a lone reshapement hop next
	// to static neighbours lands on the diagonal between them (legal by
	// the operation's geometry); merge-pattern edges are legal by pattern
	// geometry and their neighbours are participants (no runner or start
	// hops); and adjacent corner starts are geometrically impossible.
	//
	// The FSYNC scan therefore only needs to inspect runner hops. Under a
	// partial activation set those geometric guarantees are gone — a merge
	// hop can sit next to a sleeping black of its own pattern, a start hop
	// next to a frozen neighbour FSYNC would have moved — so the non-FSYNC
	// branch below runs the same fixpoint over EVERY hop, retracting the
	// counter of whichever class the suppressed hop belonged to. The two
	// branches are kept separate so the FSYNC path stays byte-identical.
	if active == nil {
		for changed := true; changed; {
			changed = false
			for _, r := range sc.hops.Keys() {
				if !sc.runnerHop.Has(r) {
					continue
				}
				h, ok := sc.hops.Get(r)
				if !ok {
					continue // already suppressed
				}
				for _, dir := range [2]int{+1, -1} {
					nb := a.ch.Next(r)
					if dir < 0 {
						nb = a.ch.Prev(r)
					}
					nh, _ := sc.hops.Get(nb) // zero when static or suppressed
					after := a.ch.PosOf(nb).Add(nh).Sub(a.ch.PosOf(r).Add(h))
					if after.IsChainEdge() {
						continue
					}
					sc.hops.Delete(r)
					rep.RunnerHops--
					if sc.runnerHop.Has(nb) && sc.hops.Has(nb) {
						sc.hops.Delete(nb)
						rep.RunnerHops--
					}
					a.anomalies.HopConflicts++
					changed = true
					break
				}
			}
		}
	} else {
		// retract suppresses r's hop and takes it back out of the counter
		// of its class. The classes are disjoint by construction: merge
		// participants host no surviving run decisions, and start hops are
		// dropped on robots that already hop.
		retract := func(r chain.Handle) {
			sc.hops.Delete(r)
			switch {
			case sc.runnerHop.Has(r):
				rep.RunnerHops--
			case sc.startHops.Has(r):
				rep.StartHops--
			default:
				rep.MergeHops--
			}
		}
		for changed := true; changed; {
			changed = false
			for _, r := range sc.hops.Keys() {
				h, ok := sc.hops.Get(r)
				if !ok {
					continue // already suppressed
				}
				for _, dir := range [2]int{+1, -1} {
					nb := a.ch.Next(r)
					if dir < 0 {
						nb = a.ch.Prev(r)
					}
					nh, _ := sc.hops.Get(nb) // zero when static, sleeping, or suppressed
					after := a.ch.PosOf(nb).Add(nh).Sub(a.ch.PosOf(r).Add(h))
					if after.IsChainEdge() {
						continue
					}
					retract(r)
					a.anomalies.HopConflicts++
					changed = true
					break
				}
			}
		}
	}
	sc.moved = sc.moved[:0]
	if err := a.kernelMove(0, len(sc.hops.Keys())); err != nil {
		return rep, err
	}
	// Only edges incident to a moved robot can have changed; checking those
	// is equivalent to the full CheckEdges sweep at O(#moved) cost.
	if err := a.ch.CheckEdgesAround(sc.moved); err != nil {
		return rep, fmt.Errorf("core: chain broke in round %d: %w", a.round, err)
	}

	// ---- Merge resolution ------------------------------------------------
	sc.mergeEvents = sc.mergeEvents[:0]
	a.kernelResolveMerges(0, len(sc.moved))
	events := sc.mergeEvents
	rep.MergeEvents = events
	sc.survivorOf.Reset(nh)
	for _, ev := range events {
		sc.survivorOf.Set(ev.Removed, ev.Survivor)
	}

	// ---- Apply run decisions ----------------------------------------------
	sc.ends = sc.ends[:0]
	sc.alive = a.runs[:0]
	a.kernelApply(0, len(sc.decisions), len(events))
	a.runs = sc.alive
	ends := sc.ends
	rep.Ends = ends

	// Materialise run starts. The starting robots never take part in a
	// merge (excluded above), so they are still on the chain; resolveAlive
	// is a defensive guard only.
	starts := sc.starts[:0]
	for _, ps := range pending {
		r := a.resolveAlive(ps.robot, len(events))
		if r == chain.None {
			continue
		}
		run := &Run{
			ID:          a.nextRun,
			Host:        r,
			Dir:         ps.dir,
			StartRound:  a.round,
			Kind:        ps.kind,
			OpOrigin:    chain.None,
			OpTarget:    chain.None,
			PassTarget:  chain.None,
			justStarted: true,
		}
		a.nextRun++
		if ps.kind == StartCorner {
			run.Mode = ModeTraverse
			run.TraverseLeft = OpCTraverse
			run.OpOrigin = r
			// The next corner after the corner cut is the immediate
			// neighbour in moving direction.
			idx := a.ch.IndexOf(r)
			if idx >= 0 {
				run.OpTarget = a.ch.At(idx + ps.dir)
			}
		}
		a.runs = append(a.runs, run)
		starts = append(starts, StartEvent{
			RunID: run.ID, RobotID: a.ch.ID(r), Dir: ps.dir, Kind: ps.kind,
			Pair: ps.pair, Good: ps.good,
		})
	}
	sc.starts = starts
	rep.Starts = starts

	// Rebuild the run registry and audit occupancy. The O(1) generation
	// reset drops the previous round's entries, so robots removed by
	// merges are not retained.
	a.byHandle.Reset(nh)
	for _, run := range a.runs {
		hr, _ := a.byHandle.Get(run.Host)
		hr.add(run)
		a.byHandle.Set(run.Host, hr)
	}
	for _, h := range a.byHandle.Keys() {
		if hr, ok := a.byHandle.Get(h); ok && hr.n > 2 {
			a.anomalies.TripleOccupancy++
		}
	}

	rep.ActiveRuns = len(a.runs)
	rep.ChainLen = a.ch.Len()
	rep.Gathered = a.ch.Gathered()
	rep.Anomalies = a.anomalies
	a.round++
	return rep, nil
}
