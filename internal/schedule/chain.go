package schedule

import (
	"fmt"

	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
)

// Chain is the chained state of Definition 1 across a sequence of
// schedules over one object space: each object's release step and node
// (its home at step 0 initially) and each node's last commit step. An
// object released at step t on node u can serve node v no earlier than
// t + dist(u, v), and a node commits at strictly increasing steps.
//
// Schedulers place transactions with Earliest or Offset and record them
// with Commit; Check re-derives the same state from finished schedules
// alone, so a cross-check runs a second Chain fed only the output.
//
// Per-object and per-node entries are only touched for the objects and
// node of the transactions involved, so callers that place disjoint
// object and node sets may share one Chain from several goroutines.
type Chain struct {
	metric graph.Metric
	relT   []int64        // release step per object (0 = still at home)
	relN   []graph.NodeID // release node per object
	busy   []int64        // last commit step per node (0 = none)
}

// NewChain starts a chain over a graph of numNodes nodes whose objects
// begin at home (len = object count) at step 0.
func NewChain(metric graph.Metric, numNodes int, home []graph.NodeID) *Chain {
	return &Chain{
		metric: metric,
		relT:   make([]int64, len(home)),
		relN:   append([]graph.NodeID(nil), home...),
		busy:   make([]int64, numNodes),
	}
}

// Holders returns a copy of each object's current release node: the
// homes a later schedule over the same object space starts from.
func (c *Chain) Holders() []graph.NodeID {
	return append([]graph.NodeID(nil), c.relN...)
}

// Earliest returns the earliest step at or after floor at which txn can
// execute: every object it requests has reached its node, and its node
// has committed everything before (list scheduling).
func (c *Chain) Earliest(txn *tm.Txn, floor int64) int64 {
	t := floor
	for _, o := range txn.Objects {
		if need := c.relT[o] + c.metric.Dist(c.relN[o], txn.Node); need > t {
			t = need
		}
	}
	if b := c.busy[txn.Node]; b >= t {
		t = b + 1
	}
	return t
}

// Commit records txn executing at step t: its objects are released on
// its node at t, and its node is busy through t.
func (c *Chain) Commit(txn *tm.Txn, t int64) {
	for _, o := range txn.Objects {
		if t > c.relT[o] {
			c.relT[o] = t
			c.relN[o] = txn.Node
		}
	}
	if t > c.busy[txn.Node] {
		c.busy[txn.Node] = t
	}
}

// Offset returns the smallest δ ≥ floor such that the batch ids, run at
// local[i] + δ, respects every release point and node commit: the exact
// shift that composes a batch after the chain. Local times must be ≥ 1
// and already satisfy the batch's own constraints (a valid
// dependency-graph coloring does); then each object's first batch use
// binds, because the triangle inequality carries its slack to later uses.
func (c *Chain) Offset(in *tm.Instance, ids []tm.TxnID, local []int64, floor int64) int64 {
	delta := floor
	for i, id := range ids {
		if need := c.Earliest(&in.Txns[id], 1) - local[i]; need > delta {
			delta = need
		}
	}
	return delta
}

// Check validates schedule s of instance in against the chained state
// and, when it is feasible, advances the state past it and returns its
// communication cost: the distance each object travels from its release
// node through its users in execution order.
//
//   - every transaction has t(T_i) ≥ 1;
//   - each node commits after its last commit in earlier schedules, and
//     hosts at most one transaction per step;
//   - each object's users, in execution order, run at distinct steps, and
//     each is reachable from wherever the previous user (possibly in an
//     earlier schedule, else the home) released the object.
//
// The instance must share the chain's object space. On error the chain
// state is unspecified; a failed sequence should not be checked further.
func (c *Chain) Check(in *tm.Instance, s *Schedule) (int64, error) {
	if len(s.Times) != in.NumTxns() {
		return 0, fmt.Errorf("schedule: %d times for %d transactions", len(s.Times), in.NumTxns())
	}
	if in.NumObjects != len(c.relT) {
		return 0, fmt.Errorf("schedule: instance has %d objects, chain tracks %d", in.NumObjects, len(c.relT))
	}
	for i, t := range s.Times {
		if t < 1 {
			return 0, fmt.Errorf("schedule: transaction %d has time %d < 1", i, t)
		}
		if node := in.Txns[i].Node; t <= c.busy[node] {
			return 0, fmt.Errorf("schedule: node %d runs transaction %d at step %d, not after its commit at step %d",
				node, i, t, c.busy[node])
		}
	}
	var cost int64
	var users []tm.TxnID
	for o := 0; o < in.NumObjects; o++ {
		users = s.appendOrder(users[:0], in, tm.ObjectID(o))
		for i, id := range users {
			t, node := s.Times[id], in.Txns[id].Node
			if i > 0 && t == s.Times[users[i-1]] {
				return 0, fmt.Errorf("schedule: object %d used by transactions %d and %d both at step %d",
					o, users[i-1], id, t)
			}
			d := c.metric.Dist(c.relN[o], node)
			if t < c.relT[o]+d {
				return 0, fmt.Errorf("schedule: object %d released at step %d on node %d cannot reach transaction %d (node %d) by step %d",
					o, c.relT[o], c.relN[o], id, node, t)
			}
			cost += d
			c.relT[o], c.relN[o] = t, node
		}
	}
	// Every step is now after the node's earlier commits, so an equal
	// entry can only come from another transaction of this schedule.
	for i, t := range s.Times {
		node := in.Txns[i].Node
		if t == c.busy[node] {
			return 0, fmt.Errorf("schedule: node %d hosts two transactions at step %d", node, t)
		}
		if t > c.busy[node] {
			c.busy[node] = t
		}
	}
	return cost, nil
}
