package stream

import (
	"cmp"
	"context"
	"encoding/binary"
	"fmt"
	"hash"
	"hash/fnv"
	"sync"
	"time"

	"dtmsched/internal/engine"
	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/obs"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
	"dtmsched/internal/windows"
)

// Config describes one streaming service run.
type Config struct {
	// G and Metric describe the network (Metric nil = the graph itself).
	G      *graph.Graph
	Metric graph.Metric
	// NumObjects is the shared object count; Home holds each object's
	// initial position (len NumObjects).
	NumObjects int
	Home       []graph.NodeID
	// Source supplies the transaction stream (a *Generator for seeded
	// load, or any custom Source).
	Source Source
	// MaxWindow caps the transactions per scheduling window (0 = the
	// number of nodes — one full window of the paper's batch model).
	MaxWindow int
	// QueueCap bounds the admission queue (0 = 2×MaxWindow).
	QueueCap int
	// Policy selects the backpressure behavior when the queue is full.
	Policy Policy
	// Verify selects the per-window verification. Every window passes
	// one Definition-1 check on the serving loop's cross-window chain
	// whatever the mode; VerifyFull (the zero value) adds a simulator
	// replay of the window in the engine, while VerifyFast and VerifyOff
	// both rely on the loop's check alone.
	Verify engine.VerifyMode
	// Retry and Deadline are the engine's per-window execution policies.
	Retry    engine.RetryPolicy
	Deadline time.Duration
	// PipelineDepth is how many cut windows may queue for execution
	// while earlier ones run (0 = 1): the cutter fills window w+1 while
	// the executor drains window w.
	PipelineDepth int
	// Collector receives stream_* admission/window metrics and the
	// engine's per-stage instrumentation; nil costs nothing.
	Collector *obs.Collector
	// Hook observes the per-window engine jobs (ledger hooks etc.).
	Hook engine.Hook

	// Faults, when set to a non-empty injector (NewChaos, or any
	// faults.Injector), turns on fault-tolerant serving: every window
	// executes under sim.RunFaulty, transactions homed on down nodes are
	// requeued with backoff instead of scheduled into a doomed window,
	// and the admission circuit breaker sheds load while windows run
	// inflated. Nil or empty keeps serving byte-identical to the
	// fault-free path (same decisions, same Digest).
	Faults faults.Injector
	// MaxRequeue bounds how many times one transaction is pushed back
	// before it is shed (0 = 3).
	MaxRequeue int
	// RequeueBackoff is the base requeue delay in window-time steps: the
	// k-th requeue of a transaction waits base·2^(k−1) steps, or until
	// its node's known restart if later (0 = 4).
	RequeueBackoff int64
	// InflationTrip is the circuit-breaker trip threshold on the rolling
	// mean window inflation — committed window makespan over fault-free
	// planned makespan, both relative to the cut step (0 = 1.5). While
	// tripped, admission runs Reject regardless of Policy.
	InflationTrip float64
	// InflationReset closes the breaker again once the rolling mean
	// falls to it (0 = halfway between 1 and InflationTrip). Must not
	// exceed InflationTrip.
	InflationReset float64
	// BreakerWindow is the rolling-mean length in executed windows
	// (0 = 4).
	BreakerWindow int
	// OnCancel selects the context-cancellation behavior: CancelAbort
	// (default) returns the context error immediately; CancelDrain
	// flushes the queue and in-flight windows and returns the summary
	// with Result.Cancelled set.
	OnCancel CancelPolicy
}

// Result summarizes one drained stream. Every field is deterministic for
// a fixed seed and configuration.
type Result struct {
	// Admitted / Rejected / Blocked are the admission-control outcomes:
	// transactions that entered the queue, were dropped by the Reject
	// policy (or the tripped breaker), or stalled at least once under
	// the Block policy.
	Admitted int64
	Rejected int64
	Blocked  int64
	// Committed counts transactions whose window the engine executed.
	Committed int64
	// Windows is the number of cut windows.
	Windows int
	// WindowSizes holds each window's transaction count, in cut order.
	WindowSizes []int
	// Clock is the final logical step (the last window's last commit).
	Clock int64
	// QueuePeak is the maximum queue depth observed after any admission.
	QueuePeak int
	// CommCost is the total object travel distance across all windows.
	CommCost int64
	// MeanResponse / MaxResponse aggregate commit − arrival over all
	// committed transactions.
	MeanResponse float64
	MaxResponse  int64
	// Throughput is Committed / Clock, in transactions per step.
	Throughput float64
	// Digest fingerprints the run's logical decisions — admission order,
	// window cuts, commit steps, and (under faults) every requeue, shed,
	// and breaker transition — so two runs can be compared for
	// bit-determinism without retaining every schedule.
	Digest uint64

	// Requeued counts requeue decisions (one transaction may requeue
	// several times); RequeuePeak is the largest requeue backlog after
	// any window cut. Both zero without faults.
	Requeued    int64
	RequeuePeak int
	// Shed counts admitted transactions dropped after exhausting their
	// requeue budget — surfaced, never silently lost.
	Shed int64
	// DegradedWindows counts executed windows that committed past their
	// planned end under faults.
	DegradedWindows int
	// MeanInflation is the mean window-relative fault inflation over all
	// executed windows (1 = every window on plan; 0 without faults).
	MeanInflation float64
	// BreakerTrips / BreakerRecoveries count admission circuit-breaker
	// transitions.
	BreakerTrips      int
	BreakerRecoveries int
	// Cancelled reports that the run was cut short by context
	// cancellation under CancelDrain: the source was abandoned but every
	// admitted transaction was flushed through a window.
	Cancelled bool
}

// windowJob is one cut window handed to the executor: the shadow
// instance (homes frozen at the objects' release positions), the
// absolute-time schedule, and the cut interval the health layer judges
// fault inflation against.
type windowJob struct {
	index      int
	in         *tm.Instance
	sched      *schedule.Schedule
	cutClock   int64
	plannedEnd int64
}

// windowOutcome is the executor's deterministic feedback for one window:
// the window-relative inflation the breaker consumes, drained by the
// serving loop with a fixed lag of PipelineDepth windows.
type windowOutcome struct {
	index     int
	inflation float64
	degraded  bool
}

// qitem is one queued transaction plus its health-layer state.
type qitem struct {
	it       Item
	attempts int   // requeue count so far
	retryAt  int64 // earliest cut step this item is eligible again
}

// Digest tags for the fault-path records. Normal records are (seq ≥ 0,
// step ≥ 1) pairs, so a negative first word is unambiguous; none of these
// are written on a zero-fault run.
const (
	digestRequeue int64 = -1
	digestShed    int64 = -2
	digestBreaker int64 = -3
)

// server is one Serve run: the configuration with its defaults filled
// in, the serving loop's state, and the executor the loop hands windows
// to. The loop goroutine owns every field except execErr and committed,
// which only the executor writes and the loop reads after it exits.
type server struct {
	ctx context.Context
	cfg Config

	// faultsOn turns on the health layer and the breaker. Off, there are
	// no requeue checks, no breaker and no extra digest records, so the
	// zero-fault run stays byte-identical to the historical path.
	faultsOn bool

	res    *Result
	digest hash.Hash64

	// Chained scheduling state: object release steps/nodes and per-node
	// last-commit steps span the whole stream, exactly as windows.Run
	// chains homes across a finite sequence. chain places every window;
	// checker re-derives the same state from the finished schedules
	// alone. The mutable conflict index holds only the window being
	// placed and keeps its member-list capacity across windows.
	chain, checker *schedule.Chain
	index          *tm.ConflictIndex

	// Admission and cutting.
	queue      []qitem
	pending    *Item
	pendingHit bool // pending already counted as blocked
	srcDone    bool
	lastArrive int64
	clock      int64
	totalResp  float64

	// Circuit breaker: a rolling window of per-window inflation ratios
	// fed only from the deterministic outcome drain.
	breakerOpen bool
	inflHist    []float64
	sumInfl     float64
	reported    int

	// Executor.
	jobs      chan windowJob
	outcomes  chan windowOutcome // nil without faults
	execWG    sync.WaitGroup
	execErr   error
	committed int64
}

// Serve drains the configured stream: admit → cut → place → execute
// until the source is exhausted and every window has run. It returns the
// deterministic run summary, or the first error (invalid configuration,
// an infeasible window caught by the cross-window check, or a window
// whose engine execution failed after retries).
func Serve(ctx context.Context, cfg Config) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	s := newServer(ctx, cfg)
	s.start()
	err := s.loop()
	close(s.jobs)
	s.execWG.Wait()
	if err != nil {
		return nil, err
	}
	return s.finish()
}

// newServer fills in cfg's defaults (Validate has ruled out negative
// values, so zero is the only value left to replace) and sets up the
// loop's state.
func newServer(ctx context.Context, cfg Config) *server {
	if cfg.Metric == nil {
		cfg.Metric = cfg.G
	}
	cfg.MaxWindow = cmp.Or(cfg.MaxWindow, cfg.G.NumNodes())
	cfg.QueueCap = cmp.Or(cfg.QueueCap, 2*cfg.MaxWindow)
	cfg.PipelineDepth = cmp.Or(cfg.PipelineDepth, 1)
	cfg.MaxRequeue = cmp.Or(cfg.MaxRequeue, 3)
	cfg.RequeueBackoff = cmp.Or(cfg.RequeueBackoff, 4)
	cfg.InflationTrip = cmp.Or(cfg.InflationTrip, 1.5)
	cfg.InflationReset = cmp.Or(cfg.InflationReset, 1+(cfg.InflationTrip-1)/2)
	cfg.BreakerWindow = cmp.Or(cfg.BreakerWindow, 4)
	// The loop's checker chain is each window's one Definition-1 check,
	// and a stronger one than Validate on the shadow instance, which
	// starts every object at step 0 and every node idle; in the engine,
	// windows only add VerifyFull's simulator replay.
	if cfg.Verify != engine.VerifyFull {
		cfg.Verify = engine.VerifyOff
	}
	s := &server{
		ctx:        ctx,
		cfg:        cfg,
		faultsOn:   cfg.Faults != nil && !cfg.Faults.Empty(),
		res:        &Result{},
		digest:     fnv.New64a(),
		chain:      schedule.NewChain(cfg.Metric, cfg.G.NumNodes(), cfg.Home),
		checker:    schedule.NewChain(cfg.Metric, cfg.G.NumNodes(), cfg.Home),
		index:      tm.NewConflictIndex(cfg.NumObjects),
		lastArrive: -1,
		jobs:       make(chan windowJob, cfg.PipelineDepth),
	}
	if s.faultsOn {
		// Room past the PipelineDepth outcomes the loop may leave
		// unconsumed, so the executor never blocks on a send while the
		// loop waits to submit a window or for the executor to exit.
		s.outcomes = make(chan windowOutcome, cfg.PipelineDepth+2)
	}
	return s
}

// loop is the serving loop: it owns all scheduling state, so executor
// interleaving never touches determinism.
func (s *server) loop() error {
	for {
		if err := s.ctx.Err(); err != nil {
			if s.cfg.OnCancel != CancelDrain {
				return err
			}
			// Graceful shutdown: abandon the source (the un-admitted
			// pending arrival with it) and flush everything already
			// admitted through the normal cut/execute path.
			s.res.Cancelled, s.srcDone, s.pending = true, true, nil
		}
		// Deterministic breaker feedback: before cutting window w, the
		// outcomes of windows ≤ w − PipelineDepth have been consumed, so
		// the breaker state feeding this iteration's admission and cut
		// depends only on the seed and configuration, never on executor
		// timing.
		if s.faultsOn {
			for need := s.res.Windows - s.cfg.PipelineDepth + 1; s.reported < need; {
				s.handleOutcome(<-s.outcomes)
			}
		}
		if err := s.admit(s.clock); err != nil {
			return err
		}
		if len(s.queue) == 0 {
			if s.srcDone && s.pending == nil {
				return nil
			}
			// Idle: jump the clock to the next arrival. pending is
			// non-nil here (a blocked arrival cannot coexist with an
			// empty queue since queueCap ≥ 1).
			s.clock = s.pending.Arrive
			if err := s.admit(s.clock); err != nil {
				return err
			}
		}
		cut := s.cut()
		if len(cut) == 0 {
			s.skip()
			continue
		}
		wj, err := s.place(cut)
		if err != nil {
			return err
		}
		if err := s.submit(wj); err != nil {
			return err
		}
	}
}

// admit pulls arrivals with Arrive ≤ upTo into the bounded queue in
// arrival order, applying the backpressure policy when full. A tripped
// breaker forces Reject whatever the configured policy.
func (s *server) admit(upTo int64) error {
	var admitted, rejected, blocked int64
	policy := s.cfg.Policy
	if s.breakerOpen {
		policy = Reject
	}
	for {
		if s.pending == nil {
			if s.srcDone {
				break
			}
			it, ok := s.cfg.Source.Next()
			if !ok {
				s.srcDone = true
				break
			}
			if it.Arrive < s.lastArrive {
				return fmt.Errorf("stream: source emitted arrival %d after %d (must be non-decreasing)", it.Arrive, s.lastArrive)
			}
			if it.Node < 0 || int(it.Node) >= s.cfg.G.NumNodes() {
				return fmt.Errorf("stream: transaction %d at node %d outside [0,%d)", it.Seq, it.Node, s.cfg.G.NumNodes())
			}
			if len(it.Objects) == 0 {
				return fmt.Errorf("stream: transaction %d requests no objects", it.Seq)
			}
			for _, o := range it.Objects {
				if o < 0 || int(o) >= s.cfg.NumObjects {
					return fmt.Errorf("stream: transaction %d requests object %d outside [0,%d)", it.Seq, o, s.cfg.NumObjects)
				}
			}
			s.lastArrive = it.Arrive
			s.pending = &it
			s.pendingHit = false
		}
		if s.pending.Arrive > upTo {
			break
		}
		if len(s.queue) >= s.cfg.QueueCap {
			if policy == Reject {
				rejected++
				s.pending = nil
				continue
			}
			// Block: the arrival waits at the source; count the stall
			// once and stop pulling until space frees up.
			if !s.pendingHit {
				blocked++
				s.pendingHit = true
			}
			break
		}
		s.queue = append(s.queue, qitem{it: *s.pending})
		admitted++
		s.pending = nil
		s.res.QueuePeak = max(s.res.QueuePeak, len(s.queue))
	}
	s.res.Admitted += admitted
	s.res.Rejected += rejected
	s.res.Blocked += blocked
	s.cfg.Collector.StreamAdmit(admitted, rejected, blocked, len(s.queue))
	return nil
}

// cut takes the next window first-come-first-served from the queue
// front, skipping transactions whose node is already in the window (the
// batch model admits one transaction per node per window); skipped items
// keep their queue order for the next cut. Under faults the health layer
// runs first: items homed on a node that is down at the cut step are
// requeued with exponential backoff in window-time (or until the node's
// known restart), and items that exhausted their requeue budget are shed.
func (s *server) cut() []Item {
	cut := make([]Item, 0, s.cfg.MaxWindow)
	inWindow := make(map[graph.NodeID]bool, s.cfg.MaxWindow)
	rest := s.queue[:0]
	var requeuedNow, shedNow int64
	for _, q := range s.queue {
		if s.faultsOn {
			if q.retryAt > s.clock {
				rest = append(rest, q)
				continue
			}
			if restart, down := s.cfg.Faults.NodeDownUntil(q.it.Node, s.clock+1); down {
				q.attempts++
				if q.attempts > s.cfg.MaxRequeue {
					shedNow++
					s.res.Shed++
					s.hash64(digestShed, int64(q.it.Seq), s.clock)
					continue
				}
				q.retryAt = s.clock + s.cfg.RequeueBackoff<<min(q.attempts-1, 20)
				if restart != faults.Forever && restart > q.retryAt {
					q.retryAt = restart
				}
				requeuedNow++
				s.res.Requeued++
				s.hash64(digestRequeue, int64(q.it.Seq), q.retryAt)
				rest = append(rest, q)
				continue
			}
		}
		if len(cut) < s.cfg.MaxWindow && !inWindow[q.it.Node] {
			inWindow[q.it.Node] = true
			cut = append(cut, q.it)
		} else {
			rest = append(rest, q)
		}
	}
	s.queue = rest
	if s.faultsOn {
		backlog := 0
		for _, q := range s.queue {
			if q.attempts > 0 {
				backlog++
			}
		}
		s.res.RequeuePeak = max(s.res.RequeuePeak, backlog)
		if requeuedNow > 0 || shedNow > 0 {
			s.cfg.Collector.StreamRequeue(requeuedNow, backlog)
			s.cfg.Collector.StreamShed(shedNow)
		}
	}
	return cut
}

// skip handles a cut that came out empty because everything eligible was
// requeued or shed (only possible under faults): it advances the clock to
// the next event — the earliest retry, or the next arrival if the queue
// has room for it — instead of cutting an empty window. Bounded retries
// guarantee progress even against a permanently down node. An empty
// queue is left to the loop top's drain and idle jump.
func (s *server) skip() {
	if len(s.queue) == 0 {
		return
	}
	next := s.queue[0].retryAt
	for _, q := range s.queue[1:] {
		next = min(next, q.retryAt)
	}
	if len(s.queue) < s.cfg.QueueCap && s.pending != nil && s.pending.Arrive < next {
		next = s.pending.Arrive
	}
	s.clock = max(next, s.clock+1)
}

// place schedules a cut window. Its shadow instance holds the window's
// transactions with object homes frozen at the current release
// positions, so the engine's replay sees exactly the handoff state
// placement used (the homes are a copy because the loop keeps advancing
// the chain while the executor runs). windows.Place list-schedules it
// after the clock — every member arrived ≤ clock, so t ≥ clock+1 > its
// arrival — and the checker chain checks it once against Definition 1
// across every window so far, pricing it in the same walk. place then
// records the window's responses, cost and digest entries.
func (s *server) place(cut []Item) (windowJob, error) {
	txns := make([]tm.Txn, len(cut))
	for i, it := range cut {
		txns[i] = tm.Txn{Node: it.Node, Objects: it.Objects}
	}
	in := tm.NewInstance(s.cfg.G, s.cfg.Metric, s.cfg.NumObjects, txns, s.chain.Holders())
	sched, end := windows.Place(s.chain, s.index, in, s.clock+1)
	cost, err := s.checker.Check(in, sched)
	if err != nil {
		return windowJob{}, fmt.Errorf("stream: window %d infeasible: %w", s.res.Windows, err)
	}
	responses := make([]int64, len(cut))
	for i, it := range cut {
		t := sched.Times[in.Txns[i].ID]
		r := t - it.Arrive
		responses[i] = r
		s.totalResp += float64(r)
		s.res.MaxResponse = max(s.res.MaxResponse, r)
		s.hash64(int64(it.Seq), t)
	}
	s.res.CommCost += cost
	s.cfg.Collector.StreamWindow(len(cut), end-s.clock, responses)
	s.res.WindowSizes = append(s.res.WindowSizes, len(cut))
	return windowJob{index: s.res.Windows, in: in, sched: sched, cutClock: s.clock, plannedEnd: end}, nil
}

// submit hands a placed window to the executor and moves the clock to
// the window's last commit. Under CancelDrain it waits for a free slot
// even after cancellation, so every admitted window still runs.
func (s *server) submit(wj windowJob) error {
	cancelC := s.ctx.Done()
	if s.cfg.OnCancel == CancelDrain {
		cancelC = nil
	}
	select {
	case s.jobs <- wj:
	case <-cancelC:
		return s.ctx.Err()
	}
	s.res.Windows++
	s.clock = wj.plannedEnd
	return nil
}

// start launches the executor goroutine, which runs every window in
// turn while the loop cuts the next ones. Under faults it reports each
// window's outcome on a FIFO channel the loop drains at fixed
// deterministic points (before cutting window w it has consumed the
// outcomes of windows ≤ w − PipelineDepth).
func (s *server) start() {
	ctx := s.ctx
	if s.cfg.OnCancel == CancelDrain {
		ctx = context.WithoutCancel(ctx)
	}
	s.execWG.Add(1)
	go func() {
		defer s.execWG.Done()
		if s.outcomes != nil {
			defer close(s.outcomes)
		}
		for wj := range s.jobs {
			oc := s.execute(ctx, wj)
			if s.outcomes != nil {
				s.outcomes <- oc
			}
		}
	}()
}

// execute runs one window through the engine, with the batch layer's
// retry and deadline policies, on the executor goroutine itself (RunBatch
// runs its one worker on the caller). After a failure it runs no further
// windows but still reports their neutral outcomes.
func (s *server) execute(ctx context.Context, wj windowJob) windowOutcome {
	oc := windowOutcome{index: wj.index, inflation: 1}
	if s.execErr != nil {
		return oc
	}
	job := engine.Job{
		Name:           fmt.Sprintf("stream/w%d", wj.index),
		Instance:       wj.in,
		Schedule:       wj.sched,
		Algorithm:      "stream/window",
		Verify:         s.cfg.Verify,
		SkipLowerBound: true,
	}
	if s.faultsOn {
		job.Faults = s.cfg.Faults
	}
	results, err := engine.RunBatch(ctx, []engine.Job{job}, engine.Options{
		Workers:   1,
		Hook:      s.cfg.Hook,
		Collector: s.cfg.Collector,
		Deadline:  s.cfg.Deadline,
		Retry:     s.cfg.Retry,
	})
	if err == nil {
		err = results[0].Err
	}
	if err != nil {
		s.execErr = fmt.Errorf("stream: window %d execution failed: %w", wj.index, err)
		return oc
	}
	s.committed += int64(wj.in.NumTxns())
	s.cfg.Collector.StreamCommit(wj.in.NumTxns())
	if fr := results[0].Report.Fault; fr != nil && wj.plannedEnd > wj.cutClock {
		oc.inflation = max(1, float64(fr.Makespan-wj.cutClock)/float64(wj.plannedEnd-wj.cutClock))
		oc.degraded = fr.Makespan > wj.plannedEnd
	}
	return oc
}

// handleOutcome feeds one window's outcome to the circuit breaker.
func (s *server) handleOutcome(oc windowOutcome) {
	s.reported++
	s.sumInfl += oc.inflation
	if oc.degraded {
		s.res.DegradedWindows++
	}
	s.cfg.Collector.StreamFaultWindow(oc.inflation, oc.degraded)
	s.inflHist = append(s.inflHist, oc.inflation)
	if len(s.inflHist) > s.cfg.BreakerWindow {
		s.inflHist = s.inflHist[1:]
	}
	var mean float64
	for _, v := range s.inflHist {
		mean += v
	}
	mean /= float64(len(s.inflHist))
	switch {
	case !s.breakerOpen && mean >= s.cfg.InflationTrip:
		s.breakerOpen = true
		s.res.BreakerTrips++
		s.cfg.Collector.StreamBreaker(true)
		s.hash64(digestBreaker, int64(oc.index), 1)
	case s.breakerOpen && mean <= s.cfg.InflationReset:
		s.breakerOpen = false
		s.res.BreakerRecoveries++
		s.cfg.Collector.StreamBreaker(false)
		s.hash64(digestBreaker, int64(oc.index), 0)
	}
}

// hash64 appends little-endian words to the run digest.
func (s *server) hash64(vs ...int64) {
	var buf [8]byte
	for _, v := range vs {
		binary.LittleEndian.PutUint64(buf[:], uint64(v))
		s.digest.Write(buf[:])
	}
}

// finish runs after the executor has exited: it consumes the remaining
// outcomes and fills in the summary.
func (s *server) finish() (*Result, error) {
	if s.outcomes != nil {
		for oc := range s.outcomes {
			s.handleOutcome(oc)
		}
	}
	if s.execErr != nil {
		return nil, s.execErr
	}
	res := s.res
	res.Committed = s.committed
	res.Clock = s.clock
	if res.Committed > 0 {
		res.MeanResponse = s.totalResp / float64(res.Committed)
	}
	if res.Clock > 0 {
		res.Throughput = float64(res.Committed) / float64(res.Clock)
	}
	if s.reported > 0 {
		res.MeanInflation = s.sumInfl / float64(s.reported)
	}
	res.Digest = s.digest.Sum64()
	return res, nil
}
