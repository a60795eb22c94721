package sim

import (
	"fmt"
	"testing"

	"dtmsched/internal/core"
	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// survivingGraph is the routing oracle: the surviving subgraph of in.G at
// step, built outright — healthy links at their weight, slowed links
// multiplied, down links and every link of a crashed node removed.
func survivingGraph(in *tm.Instance, inj faults.Injector, step int64) *graph.Graph {
	src := in.G
	n := src.NumNodes()
	g := graph.New(n)
	for u := 0; u < n; u++ {
		if _, down := inj.NodeDownUntil(graph.NodeID(u), step); down {
			continue
		}
		for _, edge := range src.Neighbors(graph.NodeID(u)) {
			if edge.To <= graph.NodeID(u) {
				continue
			}
			if _, down := inj.NodeDownUntil(edge.To, step); down {
				continue
			}
			f := inj.LinkFactor(graph.NodeID(u), edge.To, step)
			if f <= 0 {
				continue
			}
			g.AddEdge(graph.NodeID(u), edge.To, edge.Weight*f)
		}
	}
	return g
}

// TestFaultEnvDistMatchesSurvivingGraph checks faultEnv.dist — healthy-path
// shortcut and filtered Dijkstra alike — against shortest paths on the
// materialized surviving subgraph, for random plans on every paper
// topology family, including partitions (oracle Inf, dist not ok).
func TestFaultEnvDistMatchesSurvivingGraph(t *testing.T) {
	topos := []topology.Topology{
		topology.NewClique(12),
		topology.NewSquareGrid(5),
		topology.NewCluster(3, 5, 4),
		topology.NewLine(12),
		topology.NewStar(4, 4),
	}
	const horizon = 200
	var healthy, searched, partitioned int
	for _, topo := range topos {
		g := topo.Graph()
		in := tm.NewInstance(g, nil, 0, nil, nil)
		n := g.NumNodes()
		for _, rate := range []float64{0.05, 0.2, 0.5} {
			for _, recur := range []int64{0, 16} {
				name := fmt.Sprintf("%s/rate=%g/recur=%d", g, rate, recur)
				plan, err := faults.New(faults.Config{
					Seed: xrand.Derive(5, name), Horizon: horizon, Recur: recur,
					LinkDownRate: rate, LinkSlowRate: rate, CrashRate: rate / 2, MeanOutage: 12,
				}, g)
				if err != nil {
					t.Fatal(err)
				}
				env := newFaultEnv(in, plan)
				steps := []int64{0, horizon / 2, 2 * horizon}
				for _, b := range plan.Boundaries() {
					steps = append(steps, b-1, b)
				}
				rng := xrand.NewDerived(5, name, "queries")
				for _, step := range steps {
					if step < 0 {
						continue
					}
					oracle := survivingGraph(in, plan, step)
					for q := 0; q < 8; q++ {
						u, v := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
						want := oracle.Dist(u, v)
						if u == v {
							want = 0 // a node reaches itself even while crashed
						}
						got, ok := env.dist(step, u, v)
						switch {
						case want == graph.Inf && ok:
							t.Fatalf("%s: step %d %d→%d: dist %d, oracle partitioned", name, step, u, v, got)
						case want != graph.Inf && (!ok || got != want):
							t.Fatalf("%s: step %d %d→%d: dist (%d, %v), oracle %d", name, step, u, v, got, ok, want)
						case want == graph.Inf:
							partitioned++
						case u != v && want == in.G.Dist(u, v) && env.healthy(in.G.Tree(u), v, step):
							healthy++
						default:
							searched++
						}
					}
				}
			}
		}
	}
	// The sample must exercise every tier, or the test proves little.
	if healthy == 0 || searched == 0 || partitioned == 0 {
		t.Fatalf("queries: %d healthy-path, %d searched, %d partitioned; want all > 0", healthy, searched, partitioned)
	}
	t.Logf("queries: %d healthy-path, %d searched, %d partitioned", healthy, searched, partitioned)
}

// BenchmarkRunFaulty replays one greedy-scheduled window — every node of
// a 4×16 cluster running a w=64, k=2 transaction — under a serve-chaos
// style plan (10% link down/slow, 5% crash, 2.5% drop, redrawn every 91
// steps).
func BenchmarkRunFaulty(b *testing.B) {
	g := topology.NewCluster(4, 16, 8).Graph()
	in := tm.UniformK(64, 2).Generate(xrand.NewDerived(1, "bench", "runfaulty"), g, nil, g.Nodes(), tm.PlaceAtRandomUser)
	res, err := (&core.Greedy{}).Schedule(in)
	if err != nil {
		b.Fatal(err)
	}
	plan := faults.MustNew(faults.Config{
		Seed: 1000, Horizon: 2857, Recur: 91, MeanOutage: 45,
		LinkDownRate: 0.1, LinkSlowRate: 0.1, CrashRate: 0.05, DropRate: 0.025,
	}, g)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := RunFaulty(in, res.Schedule, FaultyOptions{Inject: plan}); err != nil {
			b.Fatal(err)
		}
	}
}
