package main

import (
	"context"
	"fmt"

	"dtmsched/internal/stream"
	"dtmsched/internal/topology"
)

// certifyCells are the paper's scheduler families on the quick-sweep
// topologies of `dtmsched bench -suite quick`, plus the second clique
// size and the hypercube of the E1 sweep. Each has k=2 and w chosen so
// every object has about 12 requesters (n·k/w): the lower bound solves
// each object exactly, and certification does nearly all the work. Each
// cell is a piece of the workload, run by a RunBatch call of its own.
var certifyCells = []cell{
	{name: "grid12", family: "core.grid", mk: func() topology.Topology { return topology.NewSquareGrid(12) }, w: 24, k: 2, trials: 8},
	{name: "clique128", family: "core.greedy", mk: func() topology.Topology { return topology.NewClique(128) }, w: 21, k: 2, trials: 8},
	{name: "clique64", family: "core.greedy", mk: func() topology.Topology { return topology.NewClique(64) }, w: 11, k: 2, trials: 8},
	{name: "line64", family: "core.line", mk: func() topology.Topology { return topology.NewLine(64) }, w: 11, k: 2, trials: 8},
	{name: "hypercube6", family: "core.greedy", mk: func() topology.Topology { return topology.NewHypercube(6) }, w: 11, k: 2, trials: 8},
	{name: "fogcloud4x8", family: "hier.schedule", mk: func() topology.Topology { return topology.NewFogCloud([]int{4, 8}, []int64{8, 1}) }, w: 6, k: 2, trials: 8},
	{name: "star4x8", family: "core.star", mk: func() topology.Topology { return topology.NewStar(4, 8) }, w: 6, k: 2, trials: 8},
	{name: "cluster4x8", family: "core.cluster", mk: func() topology.Topology { return topology.NewCluster(4, 8, 16) }, w: 5, k: 2, trials: 8},
}

// scaleCells are the same families on 2k–4k-node instances. Every object
// has about 4 requesters (6 on cluster and star, whose schedulers grow
// fastest with k), so the certified bound that lb_ratio needs stays cheap,
// and k and the trial counts give each family a similar share of the
// schedule time. Each cell is a piece of the workload.
var scaleCells = []cell{
	{name: "cluster16x128", family: "core.cluster", mk: func() topology.Topology { return topology.NewCluster(16, 128, 16) }, w: 1024, k: 3, trials: 3},
	{name: "star16x128", family: "core.star", mk: func() topology.Topology { return topology.NewStar(16, 128) }, w: 1024, k: 3, trials: 5},
	{name: "grid64", family: "core.grid", mk: func() topology.Topology { return topology.NewSquareGrid(64) }, w: 4096, k: 4, trials: 7},
	{name: "line4096", family: "core.line", mk: func() topology.Topology { return topology.NewLine(4096) }, w: 8192, k: 8, trials: 8},
	{name: "fogcloud8x16x16", family: "hier.schedule", mk: func() topology.Topology {
		return topology.NewFogCloud([]int{8, 16, 16}, []int64{8, 4, 1})
	}, w: 4096, k: 8, trials: 9},
	{name: "clique2048", family: "core.greedy", mk: func() topology.Topology { return topology.NewClique(2048) }, w: 4096, k: 8, trials: 9},
}

// Serving workload sizes: transactions per stream, streams, and arrival
// rate per step. 0.7 txn/step sits below the ~0.9 at which this cluster's
// backlog grows. Each serve-chaos iteration serves its streams chaosRuns
// times, since generating the chaos plans takes several times as long as
// serving.
var (
	cleanSpec = serveSpec{txns: 5000, streams: 4, rate: 0.7}
	chaosSpec = serveSpec{txns: 1000, streams: 5, rate: 0.7, chaos: 0.1}
	chaosRuns = 6
)

// pinnedClean is a fault-free serving run whose digest must never move:
// `dtmsched serve -topo cluster -alpha 4 -beta 16 -gamma 8 -w 64 -k 2
// -rate 0.7 -txns 20000 -seed 1` prints the same digest.
var (
	pinnedCleanSpec   = serveSpec{txns: 20000, streams: 1, rate: 0.7}
	pinnedCleanSeed   = int64(1)
	pinnedCleanDigest = "e185b9cc42d44879"
)

// checkPinnedClean serves the pinned stream and compares its digest.
func checkPinnedClean() error {
	r, err := setupStream(&pinnedCleanSpec, pinnedCleanSeed, 0, nil, -1)
	if err != nil {
		return err
	}
	res, err := stream.Serve(context.Background(), r.config(&replay{items: r.items}, nil, nil))
	if err != nil {
		return err
	}
	if got := fmt.Sprintf("%016x", res.Digest); got != pinnedCleanDigest {
		return fmt.Errorf("zero-fault digest of the pinned stream moved: %s, pinned %s", got, pinnedCleanDigest)
	}
	return nil
}

// batchWorkload wraps a batch spec as a workload.
func batchWorkload(name, why string, spec batchSpec) workload {
	bounds := map[string]int64{}
	return workload{name: name, why: why, inputs: func(seed int64) runner {
		return newBatchRun(&spec, seed, bounds)
	}}
}

// serveWorkload wraps a serving spec as a workload that serves its stream
// runs times per set-up; check, if not nil, is its extra correctness check.
func serveWorkload(name, why string, spec serveSpec, runs int, check func() error) workload {
	return workload{name: name, why: why, selfCheck: check, runs: runs, inputs: func(seed int64) runner {
		return newServeRun(&spec, seed)
	}}
}

// workloads lists the benchmark's workloads with the reason each exists.
func workloads() []workload {
	return []workload{
		batchWorkload("batch-certify",
			"lower/tsp does nearly all the work, so Measure-stage changes show here while the schedulers barely run",
			batchSpec{cells: certifyCells, certify: true}),
		batchWorkload("batch-scale",
			"pair of batch-certify: core, hier, depgraph and sim do the work on 2k-4k-node instances and lower does none",
			batchSpec{cells: scaleCells}),
		serveWorkload("serve-clean",
			"per-window costs dominate: the serving loop, executor handoff and metrics collector; faults and lower do nothing",
			cleanSpec, 1, checkPinnedClean),
		serveWorkload("serve-chaos",
			"same stream under 10% chaos: fault-plan generation and sim.RunFaulty dominate; against serve-clean it isolates fault cost",
			chaosSpec, chaosRuns, nil),
	}
}

func findWorkload(name string) *workload {
	for _, w := range workloads() {
		if w.name == name {
			return &w
		}
	}
	return nil
}

func workloadNames() []string {
	var names []string
	for _, w := range workloads() {
		names = append(names, w.name)
	}
	return names
}
