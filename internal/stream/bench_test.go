package stream

import (
	"context"
	"testing"

	"dtmsched/internal/engine"
	"dtmsched/internal/graph"
	"dtmsched/internal/obs"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// The serve-chaos shape: a 4×16 cluster (bridge weight 8) serving a
// uniform w=64, k=2 stream of 1,000 transactions at 0.7 per step under
// 10% chaos, with the horizon (2857) and redraw chunk (91) that `dtmsched
// serve -faults` derives for that stream.
const (
	benchTxns    = 1000
	benchRate    = 0.7
	benchW       = 64
	benchHorizon = 2857
	benchChunk   = 91
)

func benchChaos() ChaosConfig {
	return ChaosConfig{Rate: 0.1, Seed: 1000, Horizon: benchHorizon, Chunk: benchChunk}
}

// BenchmarkChaosPlan measures fault-plan generation alone.
func BenchmarkChaosPlan(b *testing.B) {
	g := topology.NewCluster(4, 16, 8).Graph()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := NewChaos(benchChaos(), g); err != nil {
			b.Fatal(err)
		}
	}
}

// benchStream pre-generates the serve benchmarks' stream of txns
// transactions on the 4×16 cluster, with its seeded object homes.
func benchStream(b *testing.B, txns int) (*topology.ClusterGraph, []graph.NodeID, sliceSource) {
	topo := topology.NewCluster(4, 16, 8)
	g := topo.Graph()
	rng := xrand.NewDerived(1, "serve", "homes", "cluster")
	home := make([]graph.NodeID, benchW)
	for o := range home {
		home[o] = g.Nodes()[rng.Intn(g.NumNodes())]
	}
	gen, err := MakeGenerator(xrand.NewDerived(1, "serve", "gen", "cluster"), g, tm.UniformK(benchW, 2), benchRate, txns)
	if err != nil {
		b.Fatal(err)
	}
	var items sliceSource
	for it, ok := gen.Next(); ok; it, ok = gen.Next() {
		items = append(items, it)
	}
	return topo, home, items
}

// BenchmarkServeChaos measures serving one pre-generated stream under a
// pre-built chaos plan: the serving loop and the faulty replay of every
// window, without plan generation or arrival generation.
func BenchmarkServeChaos(b *testing.B) {
	topo, home, items := benchStream(b, benchTxns)
	g := topo.Graph()
	inj, err := NewChaos(benchChaos(), g)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Serve(context.Background(), Config{
			G: g, Metric: graph.FuncMetric(topo.Dist), NumObjects: benchW, Home: home,
			Source: items.source(), Verify: engine.VerifyFast, Faults: inj,
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Committed+res.Shed != benchTxns {
			b.Fatalf("committed %d + shed %d of %d transactions", res.Committed, res.Shed, benchTxns)
		}
	}
	b.ReportMetric(float64(benchTxns*b.N)/b.Elapsed().Seconds(), "txn/s")
}

// BenchmarkServeClean measures the fault-free serve-clean shape: 5,000
// pre-generated transactions through `dtmsched serve`'s defaults (block
// policy, fast verification, pipeline depth 2, one engine attempt per
// window) with a metrics collector attached, so the per-window costs —
// placement, the chain check, the executor handoff and the collector —
// are all that is timed.
func BenchmarkServeClean(b *testing.B) {
	const txns = 5000
	topo, home, items := benchStream(b, txns)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		res, err := Serve(context.Background(), Config{
			G: topo.Graph(), Metric: graph.FuncMetric(topo.Dist), NumObjects: benchW, Home: home,
			Source: items.source(), Policy: Block, Verify: engine.VerifyFast, PipelineDepth: 2,
			Retry: engine.RetryPolicy{MaxAttempts: 1}, Collector: obs.NewMetricsCollector(),
		})
		if err != nil {
			b.Fatal(err)
		}
		if res.Committed != txns {
			b.Fatalf("committed %d of %d transactions", res.Committed, txns)
		}
	}
	b.ReportMetric(float64(txns*b.N)/b.Elapsed().Seconds(), "txn/s")
}
