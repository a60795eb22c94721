package lower

import (
	"fmt"
	"math/rand"
	"reflect"
	"testing"

	"dtmsched/internal/core"
	"dtmsched/internal/graph"
	"dtmsched/internal/sim"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
)

// certifyTopologies are the topologies of perfbench's batch-certify
// workload, each with its object count w₀ (about 12 requesters per object
// at k = 2).
var certifyTopologies = []struct {
	name string
	mk   func() topology.Topology
	w0   int
}{
	{"grid12", func() topology.Topology { return topology.NewSquareGrid(12) }, 24},
	{"clique128", func() topology.Topology { return topology.NewClique(128) }, 21},
	{"clique64", func() topology.Topology { return topology.NewClique(64) }, 11},
	{"line64", func() topology.Topology { return topology.NewLine(64) }, 11},
	{"hypercube6", func() topology.Topology { return topology.NewHypercube(6) }, 11},
	{"fogcloud4x8", func() topology.Topology { return topology.NewFogCloud([]int{4, 8}, []int64{8, 1}) }, 6},
	{"star4x8", func() topology.Topology { return topology.NewStar(4, 8) }, 6},
	{"cluster4x8", func() topology.Topology { return topology.NewCluster(4, 8, 16) }, 5},
}

// scalarOf is the part of a witness-path bound the scalar path must
// reproduce, with every witness-only field zero.
func scalarOf(b Bound) Bound {
	return Bound{
		Value:          b.Value,
		MaxUse:         b.MaxUse,
		MaxWalkLB:      b.MaxWalkLB,
		ExactObjects:   b.ExactObjects,
		BoundedObjects: b.BoundedObjects,
	}
}

// TestScalarBoundMatchesWitness checks the pruned scalar path against the
// witness path on the batch-certify topologies across object counts
// around w₀ (so objects range from a handful of requesters to far past
// tsp.ExactLimit), k ∈ {1, 2, 3} and 6 seeds: 576 instances.
func TestScalarBoundMatchesWitness(t *testing.T) {
	if testing.Short() {
		t.Skip("576 witness-path bounds")
	}
	for _, tc := range certifyTopologies {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			topo := tc.mk()
			g := topo.Graph()
			metric := graph.FuncMetric(topo.Dist)
			for _, w := range []int{tc.w0, 2 * tc.w0, tc.w0 / 2, 3} {
				for k := 1; k <= 3; k++ {
					k := min(k, w) // cluster4x8's w₀/2 is 2 objects
					for seed := int64(1); seed <= 6; seed++ {
						r := rand.New(rand.NewSource(seed))
						in := tm.UniformK(w, k).Generate(r, g, metric, g.Nodes(), tm.PlaceAtRandomUser)
						want := scalarOf(ComputeOpts(in, Options{Witness: true}))
						if got := ComputeOpts(in, Options{}); !reflect.DeepEqual(got, want) {
							t.Errorf("w=%d k=%d seed=%d: scalar %+v, witness %+v", w, k, seed, got, want)
						}
					}
				}
			}
		})
	}
}

// fuzzTopology decodes a topology kind and size byte into one of the
// paper's families, or a random weighted tree for non-unit metrics.
func fuzzTopology(kind, size uint8, r *rand.Rand) (*graph.Graph, graph.Metric) {
	s := int(size)
	var topo topology.Topology
	switch kind % 8 {
	case 0:
		topo = topology.NewClique(2 + s%40)
	case 1:
		topo = topology.NewLine(2 + s%64)
	case 2:
		topo = topology.NewSquareGrid(2 + s%8)
	case 3:
		topo = topology.NewHypercube(1 + s%6)
	case 4:
		topo = topology.NewStar(1+s%5, 1+s/5%8)
	case 5:
		topo = topology.NewCluster(1+s%4, 1+s/4%8, int64(1+s%20))
	case 6:
		topo = topology.NewFogCloud([]int{1 + s%4, 1 + s/4%8}, []int64{8, 1})
	default:
		n := 2 + s%40
		g := graph.New(n)
		perm := r.Perm(n)
		for i := 1; i < n; i++ {
			g.AddEdge(graph.NodeID(perm[i]), graph.NodeID(perm[r.Intn(i)]), 1+r.Int63n(9))
		}
		return g, nil
	}
	return topo.Graph(), graph.FuncMetric(topo.Dist)
}

// FuzzScalarBound checks the scalar path on decoded instances: its Value
// and MaxWalkLB equal the witness path's, Value ≥ ℓ, and Value never
// exceeds the simulated makespan of a feasible greedy schedule. Its seed
// corpus is testdata/fuzz/FuzzScalarBound: one input per topology kind.
func FuzzScalarBound(f *testing.F) {
	f.Fuzz(func(t *testing.T, kind, size, wb, kb uint8, seed int64) {
		r := rand.New(rand.NewSource(seed))
		g, metric := fuzzTopology(kind, size, r)
		w := 1 + int(wb)%12
		k := 1 + int(kb)%min(w, 3)
		in := tm.UniformK(w, k).Generate(r, g, metric, g.Nodes(), tm.PlaceAtRandomUser)
		name := fmt.Sprintf("%s w=%d k=%d seed=%d", g.Name(), w, k, seed)

		scalar := ComputeOpts(in, Options{})
		witness := ComputeOpts(in, Options{Witness: true})
		if scalar.Value != witness.Value || scalar.MaxWalkLB != witness.MaxWalkLB {
			t.Fatalf("%s: scalar Value/MaxWalkLB %d/%d, witness %d/%d",
				name, scalar.Value, scalar.MaxWalkLB, witness.Value, witness.MaxWalkLB)
		}
		if scalar.Value < int64(scalar.MaxUse) {
			t.Fatalf("%s: Value %d below ℓ = %d", name, scalar.Value, scalar.MaxUse)
		}
		res, err := (&core.Greedy{}).Schedule(in)
		if err != nil {
			t.Fatalf("%s: greedy: %v", name, err)
		}
		run, err := sim.Run(in, res.Schedule, sim.Options{})
		if err != nil {
			t.Fatalf("%s: simulating greedy: %v", name, err)
		}
		if scalar.Value > run.Makespan {
			t.Fatalf("%s: bound %d exceeds the greedy makespan %d", name, scalar.Value, run.Makespan)
		}
	})
}
