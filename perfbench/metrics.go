package main

import (
	"fmt"
	"math"
)

// Metric classes decide how two runs compare. A count is a deterministic
// function of the workload and seed, so two runs of one seed must agree on
// it exactly on any machine. A time depends on the machine, so two runs
// compare on it only when their stamps match.
const (
	classCount = "count"
	classTime  = "time"
)

// metricDef is one entry of the benchmark's metric catalogue.
type metricDef struct {
	name   string
	unit   string
	better string // "lower" or "higher"
	class  string
	// bound is the share of the baseline median by which an end-to-end
	// metric may get worse before a change counts as a regression.
	bound float64
	// target names the end-to-end metric a per-layer metric should move
	// and the workloads on which it should move it.
	target string
}

// endToEnd are the metrics a user of the scheduler sees. Every workload
// reports all of them, none is ever 0, and the untraced run measures them.
// Metrics that do not apply to a workload take their neutral value, as
// documented in the per-workload notes of README.md.
var endToEnd = []metricDef{
	{name: "setup_s", unit: "s", better: "lower", class: classTime, bound: 0.25},
	{name: "wall_s", unit: "s", better: "lower", class: classTime, bound: 0.25},
	{name: "txn_per_s", unit: "1/s", better: "higher", class: classTime, bound: 0.25},
	{name: "ok_frac", unit: "ratio", better: "higher", class: classCount, bound: 0.05},
	{name: "mem_peak_mb", unit: "MB", better: "lower", class: classTime, bound: 0.25},
	{name: "makespan_steps", unit: "steps", better: "lower", class: classCount, bound: 0.05},
	{name: "comm_cost", unit: "dist", better: "lower", class: classCount, bound: 0.05},
	{name: "lb_ratio", unit: "ratio", better: "lower", class: classCount, bound: 0.05},
	{name: "resp_mean_steps", unit: "steps", better: "lower", class: classCount, bound: 0.15},
	{name: "resp_p99_steps", unit: "steps", better: "lower", class: classCount, bound: 0.25},
	{name: "inflation_mean", unit: "ratio", better: "lower", class: classCount, bound: 0.2},
}

// perLayer are the traced run's metrics, one or more per layer of the
// program, each with the end-to-end metric and workload it should move.
// A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{name: "topology.build_s", unit: "s", better: "lower", class: classTime, target: "setup_s on batch-scale, batch-certify"},
	{name: "tm.generate_s", unit: "s", better: "lower", class: classTime, target: "setup_s on batch-scale, batch-certify"},
	{name: "core.greedy_s", unit: "s", better: "lower", class: classTime, target: "txn_per_s on batch-scale; flat on batch-certify"},
	{name: "core.line_s", unit: "s", better: "lower", class: classTime, target: "txn_per_s on batch-scale; flat on batch-certify"},
	{name: "core.grid_s", unit: "s", better: "lower", class: classTime, target: "txn_per_s on batch-scale; flat on batch-certify"},
	{name: "core.cluster_s", unit: "s", better: "lower", class: classTime, target: "txn_per_s on batch-scale; flat on batch-certify"},
	{name: "core.star_s", unit: "s", better: "lower", class: classTime, target: "txn_per_s on batch-scale; flat on batch-certify"},
	{name: "hier.schedule_s", unit: "s", better: "lower", class: classTime, target: "txn_per_s on batch-scale; flat on batch-certify"},
	{name: "depgraph.build_s", unit: "s", better: "lower", class: classTime, target: "txn_per_s on batch-scale"},
	{name: "depgraph.color_s", unit: "s", better: "lower", class: classTime, target: "txn_per_s on batch-scale"},
	{name: "depgraph.edges", unit: "count", better: "lower", class: classCount, target: "txn_per_s on batch-scale"},
	{name: "schedule.validate_s", unit: "s", better: "lower", class: classTime, target: "txn_per_s on batch-scale"},
	{name: "sim.run_s", unit: "s", better: "lower", class: classTime, target: "txn_per_s on batch-scale"},
	{name: "sim.steps", unit: "steps", better: "lower", class: classCount, target: "txn_per_s on batch-scale"},
	{name: "sim.moves", unit: "count", better: "lower", class: classCount, target: "txn_per_s on batch-scale"},
	{name: "lower.bound_s", unit: "s", better: "lower", class: classTime, target: "wall_s, txn_per_s on batch-certify, lb_ratio fixed"},
	{name: "lower.exact_objects", unit: "count", better: "higher", class: classCount, target: "wall_s, txn_per_s on batch-certify, lb_ratio fixed"},
	{name: "lower.bounded_objects", unit: "count", better: "lower", class: classCount, target: "wall_s, txn_per_s on batch-certify, lb_ratio fixed"},
	{name: "engine.job_p50_ms", unit: "ms", better: "lower", class: classTime, target: "txn_per_s on batch-certify, batch-scale"},
	{name: "engine.job_p90_ms", unit: "ms", better: "lower", class: classTime, target: "txn_per_s on batch-certify, batch-scale"},
	{name: "engine.window_p50_ms", unit: "ms", better: "lower", class: classTime, target: "txn_per_s on serve-chaos mostly"},
	{name: "engine.window_p99_ms", unit: "ms", better: "lower", class: classTime, target: "txn_per_s on serve-chaos mostly"},
	{name: "engine.verify_s", unit: "s", better: "lower", class: classTime, target: "txn_per_s on serve-chaos mostly"},
	{name: "stream.serve_s", unit: "s", better: "lower", class: classTime, target: "txn_per_s, resp_* on serve-clean, serve-chaos"},
	{name: "stream.source_s", unit: "s", better: "lower", class: classTime, target: "txn_per_s, resp_* on serve-clean, serve-chaos"},
	{name: "stream.exec_busy_frac", unit: "ratio", better: "lower", class: classTime, target: "txn_per_s, resp_* on serve-clean, serve-chaos"},
	{name: "stream.windows", unit: "count", better: "lower", class: classCount, target: "txn_per_s, resp_* on serve-clean, serve-chaos"},
	{name: "stream.window_size_mean", unit: "txns", better: "higher", class: classCount, target: "txn_per_s, resp_* on serve-clean, serve-chaos"},
	{name: "stream.queue_peak", unit: "txns", better: "lower", class: classCount, target: "txn_per_s, resp_* on serve-clean, serve-chaos"},
	{name: "stream.requeued", unit: "count", better: "lower", class: classCount, target: "txn_per_s, resp_* on serve-clean, serve-chaos"},
	{name: "stream.breaker_trips", unit: "count", better: "lower", class: classCount, target: "txn_per_s, resp_* on serve-clean, serve-chaos"},
	{name: "faults.plan_s", unit: "s", better: "lower", class: classTime, target: "setup_s, wall_s on serve-chaos; zero on serve-clean"},
	{name: "faults.plan_faults", unit: "count", better: "lower", class: classCount, target: "setup_s, wall_s on serve-chaos; zero on serve-clean"},
	{name: "faults.link_queries", unit: "count", better: "lower", class: classCount, target: "txn_per_s on serve-chaos"},
	{name: "faults.node_queries", unit: "count", better: "lower", class: classCount, target: "txn_per_s on serve-chaos"},
	{name: "faults.drop_queries", unit: "count", better: "lower", class: classCount, target: "txn_per_s on serve-chaos"},
	{name: "obs.collector_frac", unit: "ratio", better: "lower", class: classTime, target: "txn_per_s on serve-clean"},
	{name: "go.alloc_bytes_per_txn", unit: "B", better: "lower", class: classTime, target: "txn_per_s, mem_peak_mb on all workloads"},
	{name: "go.gc_cycles", unit: "count", better: "lower", class: classTime, target: "txn_per_s, mem_peak_mb on all workloads"},
	// The trace's own cost: traced over untraced wall, minus 1, and the
	// share of the traced wall that no layer span covers.
	{name: "trace.overhead_frac", unit: "ratio", better: "lower", class: classTime},
	{name: "trace.other_frac", unit: "ratio", better: "lower", class: classTime},
}

// metricValue is one reported metric in the result line.
type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// fill turns raw values into the reported metric set: exactly the
// catalogue's metrics, each with its unit. A missing value is a bug in
// the workload code, not a 0.
func fill(defs []metricDef, vals map[string]float64) (map[string]metricValue, error) {
	out := make(map[string]metricValue, len(defs))
	for _, d := range defs {
		v, ok := vals[d.name]
		if !ok {
			return nil, fmt.Errorf("metric %s was not measured", d.name)
		}
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return nil, fmt.Errorf("metric %s measured as %v", d.name, v)
		}
		out[d.name] = metricValue{Value: v, Unit: d.unit}
	}
	return out, nil
}
