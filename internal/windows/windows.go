// Package windows extends the one-shot batch model to repeated batches
// (windows) of transactions, in the spirit of the window-based contention
// management of Sharma & Busch that the paper cites [33]: every node
// receives a fresh transaction each window, and windows execute either
// behind a global barrier (each window starts after the previous one
// fully finishes) or pipelined (a window's transaction may start as soon
// as its own objects are available, overlapping the previous window's
// stragglers).
//
// Object homes evolve across windows: window i+1 finds each object where
// window i released it. Feasibility spans the whole sequence: per-object
// handoff chains cross window boundaries, and transactions sharing a node
// (one per window) execute at distinct steps.
package windows

import (
	"cmp"
	"fmt"
	"math/rand"
	"slices"

	"dtmsched/internal/depgraph"
	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/tm"
)

// Sequence is a multi-window workload over one communication graph.
type Sequence struct {
	// G and Metric describe the network.
	G      *graph.Graph
	Metric graph.Metric
	// NumObjects is the shared object count (constant across windows).
	NumObjects int
	// Home is each object's initial position before window 0.
	Home []graph.NodeID
	// Windows holds the per-window instances; all share G, Metric, and
	// NumObjects, with homes chained automatically during scheduling.
	Windows []*tm.Instance
}

// Generate builds a Sequence of `count` windows, each drawn independently
// from the workload over all nodes. Homes for window 0 follow the
// placement policy; later windows inherit positions.
func Generate(r *rand.Rand, g *graph.Graph, metric graph.Metric, w tm.Workload, count int, place tm.Placement) (*Sequence, error) {
	if count < 1 {
		return nil, fmt.Errorf("windows: count %d < 1", count)
	}
	seq := &Sequence{G: g, Metric: metric, NumObjects: w.W}
	for i := 0; i < count; i++ {
		in := w.Generate(r, g, metric, g.Nodes(), place)
		if err := in.Validate(); err != nil {
			return nil, fmt.Errorf("windows: window %d invalid: %w", i, err)
		}
		seq.Windows = append(seq.Windows, in)
	}
	seq.Home = append([]graph.NodeID(nil), seq.Windows[0].Home...)
	return seq, nil
}

// Result reports one multi-window execution.
type Result struct {
	// Mode is "barrier" or "pipelined".
	Mode string
	// Makespan is the completion step of the last window's last
	// transaction.
	Makespan int64
	// PerWindow holds each window's schedule (times local to the global
	// clock).
	PerWindow []*schedule.Schedule
	// WindowEnd[i] is the last commit step of window i.
	WindowEnd []int64
}

// Run schedules the sequence window by window. With pipelined = false, a
// global barrier separates windows: each window takes the §2.3 greedy
// coloring shifted past the previous window's completion. With pipelined
// = true, each window is list-scheduled by Place from step 1, so a
// window's cold transactions overlap the previous window's stragglers.
func Run(seq *Sequence, pipelined bool) (*Result, error) {
	mode := "barrier"
	if pipelined {
		mode = "pipelined"
	}
	res := &Result{Mode: mode}

	// chain places every window; checker independently re-derives the
	// per-object handoff chains and per-node commit ordering from the
	// finished schedules alone, so a placement bug in either mode
	// surfaces as an error instead of an infeasible sequence.
	chain := schedule.NewChain(seq.Metric, seq.G.NumNodes(), seq.Home)
	checker := schedule.NewChain(seq.Metric, seq.G.NumNodes(), seq.Home)
	index := tm.NewConflictIndex(seq.NumObjects)
	var clock int64

	for wi, in := range seq.Windows {
		var s *schedule.Schedule
		var windowEnd int64
		if pipelined {
			s, windowEnd = Place(chain, index, in, 1)
		} else {
			// Barrier: the coloring shifted by one offset past the clock
			// and the exact object and node constraints.
			ids, local := color(index, in)
			delta := chain.Offset(in, ids, local, clock)
			s = schedule.New(in.NumTxns())
			for i, id := range ids {
				t := local[i] + delta
				s.Times[id] = t
				chain.Commit(&in.Txns[id], t)
				windowEnd = max(windowEnd, t)
			}
		}
		clock = max(clock, windowEnd)
		if _, err := checker.Check(in, s); err != nil {
			return nil, fmt.Errorf("windows: window %d: %s mode cross-check failed: %w", wi, mode, err)
		}
		res.PerWindow = append(res.PerWindow, s)
		res.WindowEnd = append(res.WindowEnd, windowEnd)
		res.Makespan = max(res.Makespan, windowEnd)
	}
	return res, nil
}

// Place list-schedules window in on chain: it colors the window's
// dependency graph, then gives each transaction, in (color, ID) order,
// the earliest step at or after floor that its objects can reach it and
// its node is free, and commits it to the chain. It returns the schedule
// and its last step (floor − 1 for an empty window).
//
// index must track in's object space and hold no members; Place leaves
// it empty again, keeping its member-list capacity for the next window.
func Place(chain *schedule.Chain, index *tm.ConflictIndex, in *tm.Instance, floor int64) (*schedule.Schedule, int64) {
	ids, local := color(index, in)
	order := make([]int, len(ids))
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(a, b int) int {
		if c := cmp.Compare(local[a], local[b]); c != 0 {
			return c
		}
		return cmp.Compare(ids[a], ids[b])
	})
	s := schedule.New(in.NumTxns())
	end := floor - 1
	for _, i := range order {
		txn := &in.Txns[ids[i]]
		t := chain.Earliest(txn, floor)
		s.Times[txn.ID] = t
		chain.Commit(txn, t)
		end = max(end, t)
	}
	return s, end
}

// color builds window in's dependency graph over the mutable index —
// registering its members, building, deregistering — and colors it
// greedily in node order. Cross-window constraints ride on the chain,
// not on index edges, so the index only ever holds one window.
func color(index *tm.ConflictIndex, in *tm.Instance) ([]tm.TxnID, []int64) {
	for i := range in.Txns {
		index.Add(in.Txns[i].ID, in.Txns[i].Objects)
	}
	h := depgraph.BuildOpts(in, nil, depgraph.Options{Index: index})
	local := h.GreedyColor(h.OrderByNode(in))
	for i := range in.Txns {
		index.Remove(in.Txns[i].ID, in.Txns[i].Objects)
	}
	return h.IDs, local
}
