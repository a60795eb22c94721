package sim

import (
	"fmt"
	"sort"

	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// FaultyOptions configures RunFaulty.
type FaultyOptions struct {
	Options
	// Inject scripts the faults. A nil or empty injector makes RunFaulty
	// exactly Run (same result, same events, nil report, and no extra
	// allocations — the empty path is CI-guarded).
	Inject faults.Injector
	// BackoffBase is the delay in simulated steps before the first
	// re-dispatch of a dropped move (default 1). The delay doubles after
	// every consecutive drop of the same hop.
	BackoffBase int64
	// BackoffMax caps the re-dispatch delay (default 64 steps).
	BackoffMax int64
	// MaxRetries bounds consecutive re-dispatches of one hop (default
	// 32); exceeding the budget aborts the run with an error rather than
	// spinning on an injector that drops everything.
	MaxRetries int
}

// Defaults for FaultyOptions' zero values.
const (
	defaultBackoffBase = 1
	defaultBackoffMax  = 64
	defaultMaxRetries  = 32
)

// faultEnv answers the simulator's routing queries on the surviving
// subgraph (healthy links at their weight, slowed links multiplied, down
// links and crashed nodes removed) without building it. Fault state is
// piecewise-constant between injector boundaries, so a query at step is
// answered against the state at the start of step's epoch, in two tiers:
//
//  1. Healthy path: walk the base graph's cached shortest path from u to
//     v; if every node on it is up and every link has factor 1, its base
//     length is the answer. This is exact: surviving edges never get
//     cheaper, so no surviving path is shorter.
//  2. Otherwise an early-exit Dijkstra over the base graph applies the
//     fault state edge by edge, on scratch arrays reused by every query of
//     the run.
type faultEnv struct {
	in     *tm.Instance
	inj    faults.Injector
	bounds []int64

	// Dijkstra scratch, allocated by the first search. best[x] is live
	// only while stamp[x] == gen; a live best of -1 marks x crashed for
	// the current query.
	gen   uint32
	stamp []uint32
	best  []int64
	heap  []heapItem
}

// heapItem is a Dijkstra frontier entry.
type heapItem struct {
	d int64
	x graph.NodeID
}

func newFaultEnv(in *tm.Instance, inj faults.Injector) *faultEnv {
	return &faultEnv{in: in, inj: inj, bounds: inj.Boundaries()}
}

// epoch returns the index of the epoch containing step: the number of
// boundaries at or before it.
func (e *faultEnv) epoch(step int64) int {
	return sort.Search(len(e.bounds), func(i int) bool { return e.bounds[i] > step })
}

// epochStart returns the first step of the epoch containing step.
func (e *faultEnv) epochStart(step int64) int64 {
	if i := e.epoch(step); i > 0 {
		return e.bounds[i-1]
	}
	return 0
}

// factor is the injector's link factor of {a, b} at step, queried with
// the endpoints in ascending order.
func (e *faultEnv) factor(a, b graph.NodeID, step int64) int64 {
	if a > b {
		a, b = b, a
	}
	return e.inj.LinkFactor(a, b, step)
}

func (e *faultEnv) down(v graph.NodeID, step int64) bool {
	_, down := e.inj.NodeDownUntil(v, step)
	return down
}

// dist returns the surviving-subgraph distance between u and v at step,
// and false when the endpoints are partitioned for that whole epoch.
func (e *faultEnv) dist(step int64, u, v graph.NodeID) (int64, bool) {
	if u == v {
		return 0, true
	}
	at := e.epochStart(step)
	t := e.in.G.Tree(u)
	if t.Dist[v] == graph.Inf {
		return 0, false
	}
	if e.healthy(t, v, at) {
		return t.Dist[v], true
	}
	return e.search(at, u, v)
}

// healthy reports whether the tree path from its source to v survives
// untouched at step.
func (e *faultEnv) healthy(t *graph.ShortestPathTree, v graph.NodeID, step int64) bool {
	for x := v; ; {
		if e.down(x, step) {
			return false
		}
		if x == t.Source {
			return true
		}
		p := t.Parent[x]
		if e.factor(p, x, step) != 1 {
			return false
		}
		x = p
	}
}

// search is Dijkstra from src over the fault state at step, stopping as
// soon as dst is settled.
func (e *faultEnv) search(step int64, src, dst graph.NodeID) (int64, bool) {
	if e.down(src, step) || e.down(dst, step) {
		return 0, false
	}
	if e.stamp == nil {
		n := e.in.G.NumNodes()
		e.stamp, e.best = make([]uint32, n), make([]int64, n)
	}
	e.gen++
	if e.gen == 0 { // wrapped: every stamp is stale again
		clear(e.stamp)
		e.gen = 1
	}
	e.stamp[src], e.best[src] = e.gen, 0
	e.heap = append(e.heap[:0], heapItem{0, src})
	for len(e.heap) > 0 {
		it := e.pop()
		if it.d > e.best[it.x] {
			continue // stale entry
		}
		if it.x == dst {
			return it.d, true
		}
		for _, edge := range e.in.G.Neighbors(it.x) {
			y := edge.To
			if e.stamp[y] != e.gen {
				e.stamp[y], e.best[y] = e.gen, graph.Inf
				if e.down(y, step) {
					e.best[y] = -1
				}
			}
			// Factors are ≥ 1, so an edge that loses at its base weight
			// needs no factor lookup.
			if by := e.best[y]; by < 0 || it.d+edge.Weight >= by {
				continue
			}
			f := e.factor(it.x, y, step)
			if f <= 0 {
				continue
			}
			if nd := it.d + edge.Weight*f; nd < e.best[y] {
				e.best[y] = nd
				e.push(heapItem{nd, y})
			}
		}
	}
	return 0, false
}

// push and pop maintain e.heap as a binary min-heap on d.
func (e *faultEnv) push(it heapItem) {
	h := append(e.heap, it)
	for i := len(h) - 1; i > 0; {
		p := (i - 1) / 2
		if h[p].d <= h[i].d {
			break
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
	e.heap = h
}

func (e *faultEnv) pop() heapItem {
	h := e.heap
	top := h[0]
	last := len(h) - 1
	h[0] = h[last]
	h = h[:last]
	for i := 0; ; {
		c := 2*i + 1
		if c >= len(h) {
			break
		}
		if c+1 < len(h) && h[c+1].d < h[c].d {
			c++
		}
		if h[i].d <= h[c].d {
			break
		}
		h[i], h[c] = h[c], h[i]
		i = c
	}
	e.heap = h
	return top
}

// nextBoundary returns the first fault boundary strictly after step, and
// false when none remains (the fault state is final from step on).
func (e *faultEnv) nextBoundary(step int64) (int64, bool) {
	i := e.epoch(step)
	if i == len(e.bounds) {
		return 0, false
	}
	return e.bounds[i], true
}

// RunFaulty replays schedule s on instance in while the injector breaks the
// model of Section 2.1, and repairs the execution instead of failing it:
//
//   - an object whose move is dropped in transit is re-dispatched with
//     bounded exponential backoff (BackoffBase/BackoffMax/MaxRetries);
//   - a move across downed links travels the shortest path of the
//     surviving subgraph, and waits for the next fault boundary when the
//     endpoints are partitioned outright;
//   - a crashed node defers its transaction's commit (and any dispatch
//     touching it) until the restart.
//
// The scheduled step of every transaction is kept as a floor — faults only
// ever delay commits — and each object still visits its requesters in
// schedule order, so single-copy semantics are preserved by construction
// and re-verified: the recovered commit times are cross-checked against
// schedule.Validate's Definition 1 invariants before returning.
//
// The returned Result measures the faulty execution (its Makespan and
// CommCost include recovery delays and detours; CommCost counts delivered
// moves only). The Report quantifies the recovery work and the makespan
// inflation against the fault-free baseline. With a nil or empty injector
// the run is exactly Run and the report is nil.
//
// Determinism: for a fixed (instance, schedule, injector, options) the
// Result, the Report, and the event trace are identical across runs — all
// fault decisions are seeded, never drawn from wall-clock or shared state.
func RunFaulty(in *tm.Instance, s *schedule.Schedule, opt FaultyOptions) (*Result, *faults.Report, error) {
	if opt.Inject == nil || opt.Inject.Empty() {
		res, err := Run(in, s, opt.Options)
		return res, nil, err
	}
	if err := checkInput(in, s); err != nil {
		return nil, nil, err
	}
	horizon := s.Makespan()
	limit := opt.MaxSteps
	if limit == 0 {
		// Faults legitimately push events past the planned makespan, so
		// the derived cap is a generous safety net (repeated backoff,
		// crash windows, partition waits) rather than the makespan: the
		// run must still terminate against an unrecoverable plan.
		limit = 16*horizon + lastBoundary(opt.Inject) + 4096
	} else if horizon > limit {
		return nil, nil, fmt.Errorf("sim: schedule makespan %d exceeds step limit %d", horizon, limit)
	}
	backoffBase := opt.BackoffBase
	if backoffBase <= 0 {
		backoffBase = defaultBackoffBase
	}
	backoffMax := opt.BackoffMax
	if backoffMax <= 0 {
		backoffMax = defaultBackoffMax
	}
	maxRetries := opt.MaxRetries
	if maxRetries <= 0 {
		maxRetries = defaultMaxRetries
	}

	env := newFaultEnv(in, opt.Inject)
	fr := &faults.Report{Faults: opt.Inject.Count(), BaselineMakespan: horizon}

	itineraries := make([][]tm.TxnID, in.NumObjects)
	for o := range itineraries {
		itineraries[o] = s.Order(in, tm.ObjectID(o))
	}

	res := &Result{ObjectDistance: make([]int64, in.NumObjects)}
	// Object state mirrors Run's, plus the per-object dispatch-attempt
	// counter that scripted MoveDrop faults key on.
	type objState struct {
		node    graph.NodeID
		arrives int64
		next    int
		seq     int
	}
	objs := make([]objState, in.NumObjects)

	dispatch := func(o int, from graph.NodeID, commitStep int64) error {
		it := itineraries[o]
		st := &objs[o]
		if st.next >= len(it) {
			return nil // no further requester; object rests
		}
		dest := in.Txns[it[st.next]].Node
		depart := commitStep
		backoff := backoffBase
		retries := 0
		var d int64
		for {
			if depart > limit {
				return fmt.Errorf("sim: object %d still undelivered to node %d at step %d, past the step limit %d",
					o, dest, depart, limit)
			}
			// A crashed endpoint blocks the move until its restart.
			deferred := false
			for _, v := range [2]graph.NodeID{from, dest} {
				if restart, down := opt.Inject.NodeDownUntil(v, depart); down {
					if restart >= faults.Forever {
						return fmt.Errorf("sim: object %d cannot move %d→%d: node %d never restarts", o, from, dest, v)
					}
					fr.DeferredMoves++
					depart = restart
					deferred = true
					break
				}
			}
			if deferred {
				continue
			}
			// Route on the surviving subgraph; a partition waits for the
			// next fault boundary to restore connectivity.
			var ok bool
			d, ok = env.dist(depart, from, dest)
			if !ok {
				nb, more := env.nextBoundary(depart)
				if !more {
					return fmt.Errorf("sim: object %d is permanently partitioned from node %d (no fault boundary after step %d)",
						o, dest, depart)
				}
				fr.BlockedWaits++
				depart = nb
				continue
			}
			seq := st.seq
			st.seq++
			if opt.Inject.DropMove(tm.ObjectID(o), seq, depart) {
				retries++
				if retries > maxRetries {
					return fmt.Errorf("sim: object %d moving %d→%d exceeded the retry budget (%d consecutive drops)",
						o, from, dest, maxRetries)
				}
				fr.Retries++
				fr.WastedComm += d
				if opt.Trace {
					res.Events = append(res.Events,
						Event{Step: depart, Kind: EventDrop, Object: tm.ObjectID(o), Txn: it[st.next], From: from, To: dest})
				}
				depart += backoff
				backoff *= 2
				if backoff > backoffMax {
					backoff = backoffMax
				}
				continue
			}
			break
		}
		st.node = dest
		st.arrives = depart + d
		if st.arrives > limit {
			return fmt.Errorf("sim: object %d departing node %d at step %d would reach node %d only at step %d, past the step limit %d",
				o, from, depart, dest, st.arrives, limit)
		}
		if base := in.Dist(from, dest); d > base {
			fr.Reroutes++
			fr.RerouteExtra += d - base
		}
		if opt.Trace && d > 0 {
			res.Events = append(res.Events,
				Event{Step: depart, Kind: EventDepart, Object: tm.ObjectID(o), Txn: it[st.next], From: from, To: dest},
				Event{Step: st.arrives, Kind: EventArrive, Object: tm.ObjectID(o), Txn: it[st.next], To: dest})
		}
		res.CommCost += d
		res.ObjectDistance[o] += d
		if d > 0 {
			res.Moves++
		}
		return nil
	}

	// Step 0: every object departs home toward its first requester.
	for o := 0; o < in.NumObjects; o++ {
		objs[o] = objState{node: in.Home[o], arrives: 0, next: 0}
		if err := dispatch(o, in.Home[o], 0); err != nil {
			return nil, nil, err
		}
	}

	// Commit transactions in scheduled order. Feasible schedules give the
	// users of every object strictly increasing times, so each object's
	// chain of requesters is processed in itinerary order and every
	// dependency (the previous holder's actual commit) is already
	// resolved when a transaction is reached — one pass suffices even
	// though faults shift actual commit steps past later-scheduled,
	// unrelated transactions.
	order := make([]tm.TxnID, in.NumTxns())
	for i := range order {
		order[i] = tm.TxnID(i)
	}
	sort.Slice(order, func(a, b int) bool {
		ta, tb := s.Times[order[a]], s.Times[order[b]]
		if ta != tb {
			return ta < tb
		}
		return order[a] < order[b]
	})

	actual := make([]int64, in.NumTxns())
	for _, id := range order {
		txn := &in.Txns[id]
		step := s.Times[id] // the schedule is a floor: faults only delay
		for _, o := range txn.Objects {
			st := &objs[o]
			it := itineraries[o]
			if st.next >= len(it) || it[st.next] != id {
				return nil, nil, fmt.Errorf("sim: object %d is not headed to transaction %d (single-copy conflict)", o, id)
			}
			if st.node != txn.Node {
				return nil, nil, fmt.Errorf("sim: object %d is at/heading to node %d, not transaction %d's node %d",
					o, st.node, id, txn.Node)
			}
			if st.arrives > step {
				step = st.arrives // recovery delay, not an infeasibility
			}
		}
		// A crashed node defers the commit to its restart.
		for {
			restart, down := opt.Inject.NodeDownUntil(txn.Node, step)
			if !down {
				break
			}
			if restart >= faults.Forever {
				return nil, nil, fmt.Errorf("sim: transaction %d cannot commit: node %d never restarts", id, txn.Node)
			}
			step = restart
		}
		if step > limit {
			return nil, nil, fmt.Errorf("sim: transaction %d deferred to step %d, past the step limit %d", id, step, limit)
		}
		if step > s.Times[id] {
			fr.DeferredCommits++
			fr.DeferredSteps += step - s.Times[id]
			if opt.Trace {
				res.Events = append(res.Events, Event{Step: step, Kind: EventDefer, Txn: id, Node: txn.Node})
			}
		}
		actual[id] = step
		if opt.Trace {
			res.Events = append(res.Events, Event{Step: step, Kind: EventExecute, Txn: id, Node: txn.Node})
		}
		res.Executed++
		if step > res.Makespan {
			res.Makespan = step
		}
		for _, o := range txn.Objects {
			objs[o].next++
			if err := dispatch(int(o), txn.Node, step); err != nil {
				return nil, nil, err
			}
		}
	}

	// Cross-check: recovery must preserve single-copy semantics. Every
	// surviving-subgraph distance is at least the healthy shortest path,
	// so the recovered commit times must themselves form a feasible
	// schedule under Definition 1 — anything else is a simulator bug.
	recovered := &schedule.Schedule{Times: actual}
	if err := recovered.Validate(in); err != nil {
		return nil, nil, fmt.Errorf("sim: internal: recovered schedule violates Definition 1: %w", err)
	}

	fr.Makespan = res.Makespan
	if horizon > 0 {
		fr.Inflation = float64(fr.Makespan) / float64(horizon)
	}
	return res, fr, nil
}

// lastBoundary returns the injector's final finite boundary (0 when none).
func lastBoundary(inj faults.Injector) int64 {
	b := inj.Boundaries()
	if len(b) == 0 {
		return 0
	}
	return b[len(b)-1]
}

// MustRunFaulty is RunFaulty for tests and examples that treat failure as a
// programming error.
func MustRunFaulty(in *tm.Instance, s *schedule.Schedule, opt FaultyOptions) (*Result, *faults.Report) {
	res, fr, err := RunFaulty(in, s, opt)
	if err != nil {
		panic(err)
	}
	return res, fr
}
