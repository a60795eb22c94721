package schedule_test

import (
	"fmt"
	"strings"
	"testing"

	"dtmsched/internal/graph"
	"dtmsched/internal/schedule"
	"dtmsched/internal/sim"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/windows"
	"dtmsched/internal/xrand"
)

func sequenceOn(t *testing.T, count int, seed int64) *windows.Sequence {
	t.Helper()
	topo := topology.NewClique(24)
	seq, err := windows.Generate(xrand.New(seed), topo.Graph(), graph.FuncMetric(topo.Dist), tm.UniformK(8, 2), count, tm.PlaceAtRandomUser)
	if err != nil {
		t.Fatal(err)
	}
	return seq
}

// replay feeds every window of a finished run through a fresh chain.
func replay(seq *windows.Sequence, res *windows.Result) error {
	c := schedule.NewChain(seq.Metric, seq.G.NumNodes(), seq.Home)
	for wi, in := range seq.Windows {
		if _, err := c.Check(in, res.PerWindow[wi]); err != nil {
			return err
		}
	}
	return nil
}

func TestChainAcceptsBothModes(t *testing.T) {
	for _, pipelined := range []bool{false, true} {
		seq := sequenceOn(t, 5, 11)
		res, err := windows.Run(seq, pipelined)
		if err != nil {
			t.Fatalf("pipelined=%v: %v", pipelined, err)
		}
		if err := replay(seq, res); err != nil {
			t.Fatalf("pipelined=%v: feasible sequence rejected: %v", pipelined, err)
		}
	}
}

func TestChainRejectsCorruption(t *testing.T) {
	seq := sequenceOn(t, 4, 12)
	corrupt := func(mutate func(res *windows.Result)) error {
		res, err := windows.Run(seq, true)
		if err != nil {
			t.Fatal(err)
		}
		mutate(res)
		return replay(seq, res)
	}

	// Pulling a later window's transaction to step 1 breaks its objects'
	// handoff chains (or its node's commit ordering).
	if err := corrupt(func(r *windows.Result) { r.PerWindow[2].Times[0] = 1 }); err == nil {
		t.Fatal("handoff corruption accepted")
	}
	// Cloning one window's times into the next forces node reuse at
	// equal steps (every node hosts one transaction per window).
	if err := corrupt(func(r *windows.Result) { copy(r.PerWindow[1].Times, r.PerWindow[0].Times) }); err == nil {
		t.Fatal("node-reuse corruption accepted")
	}
	// Zero times are rejected outright.
	if err := corrupt(func(r *windows.Result) { r.PerWindow[3].Times[5] = 0 }); err == nil {
		t.Fatal("zero time accepted")
	}
}

func TestChainRejectsSharedObjectTie(t *testing.T) {
	// Two transactions sharing the single object at the same step: the
	// object would need to be at two nodes at once.
	topo := topology.NewClique(4)
	g := topo.Graph()
	metric := graph.FuncMetric(topo.Dist)
	txns := []tm.Txn{
		{Node: g.Nodes()[0], Objects: []tm.ObjectID{0}},
		{Node: g.Nodes()[1], Objects: []tm.ObjectID{0}},
	}
	in := tm.NewInstance(g, metric, 1, txns, []graph.NodeID{g.Nodes()[0]})
	c := schedule.NewChain(metric, g.NumNodes(), in.Home)
	_, err := c.Check(in, &schedule.Schedule{Times: []int64{2, 2}})
	if err == nil || !strings.Contains(err.Error(), "both at step") {
		t.Fatalf("tie on shared object not rejected: %v", err)
	}
}

func TestChainRejectsNodeTie(t *testing.T) {
	// One node hosting two transactions at the same step, on disjoint
	// objects: only the per-node rule can see it.
	g := graph.New(2)
	g.AddUnitEdge(0, 1)
	txns := []tm.Txn{{Node: 1, Objects: []tm.ObjectID{0}}, {Node: 1, Objects: []tm.ObjectID{1}}}
	in := tm.NewInstance(g, nil, 2, txns, []graph.NodeID{1, 1})
	if _, err := schedule.NewChain(g, 2, in.Home).Check(in, &schedule.Schedule{Times: []int64{3, 2}}); err != nil {
		t.Fatalf("distinct steps on one node rejected: %v", err)
	}
	_, err := schedule.NewChain(g, 2, in.Home).Check(in, &schedule.Schedule{Times: []int64{2, 2}})
	if err == nil || !strings.Contains(err.Error(), "two transactions") {
		t.Fatalf("two transactions on one node at one step not rejected: %v", err)
	}
}

func TestChainMismatchedShapes(t *testing.T) {
	seq := sequenceOn(t, 1, 13)
	res, err := windows.Run(seq, true)
	if err != nil {
		t.Fatal(err)
	}
	n := seq.G.NumNodes()
	// Wrong object-space width.
	c := schedule.NewChain(seq.Metric, n, seq.Home[:len(seq.Home)-1])
	if _, err := c.Check(seq.Windows[0], res.PerWindow[0]); err == nil {
		t.Fatal("object-count mismatch accepted")
	}
	// Wrong transaction count.
	c = schedule.NewChain(seq.Metric, n, seq.Home)
	short := res.PerWindow[0].Clone()
	short.Times = short.Times[:len(short.Times)-1]
	if _, err := c.Check(seq.Windows[0], short); err == nil {
		t.Fatal("times-length mismatch accepted")
	}
}

// TestChainCheckCostMatchesCommCostAndSim: on random instances across
// the line, clique, grid and cluster families, the cost Check returns on
// a fresh chain equals the route-based Schedule.CommCost and the
// simulator's measured CommCost.
func TestChainCheckCostMatchesCommCostAndSim(t *testing.T) {
	topos := []topology.Topology{
		topology.NewLine(12), topology.NewClique(10), topology.NewGrid(4, 5), topology.NewCluster(3, 4, 5),
	}
	for _, topo := range topos {
		g, metric := topo.Graph(), graph.FuncMetric(topo.Dist)
		for seed := int64(0); seed < 25; seed++ {
			name := fmt.Sprintf("%s/seed=%d", topo.Kind(), seed)
			r := xrand.New(seed)
			w := 2 + r.Intn(10)
			in := tm.UniformK(w, 1+r.Intn(min(w, 4))).Generate(r, g, metric, g.Nodes(), tm.PlaceAtRandomUser)
			// A feasible schedule in a random placement order, so objects
			// take varied routes.
			place := schedule.NewChain(metric, g.NumNodes(), in.Home)
			s := schedule.New(in.NumTxns())
			for _, i := range r.Perm(in.NumTxns()) {
				s.Times[i] = place.Earliest(&in.Txns[i], 1+r.Int63n(4))
				place.Commit(&in.Txns[i], s.Times[i])
			}
			cost, err := schedule.NewChain(metric, g.NumNodes(), in.Home).Check(in, s)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			simRes, err := sim.Run(in, s, sim.Options{})
			if err != nil {
				t.Fatalf("%s: simulator: %v", name, err)
			}
			if ref := s.CommCost(in); cost != ref || cost != simRes.CommCost {
				t.Fatalf("%s: Check cost %d, CommCost %d, simulated %d", name, cost, ref, simRes.CommCost)
			}
		}
	}
}
