package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"dtmsched/internal/core"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// tinyWorkloads are the four workloads at test size, built by the same
// constructors as the real ones.
func tinyWorkloads() []workload {
	cells := []cell{
		{name: "clique8", family: "core.greedy", mk: func() topology.Topology { return topology.NewClique(8) }, w: 4, k: 2, trials: 2},
		{name: "grid4", family: "core.grid", mk: func() topology.Topology { return topology.NewSquareGrid(4) }, w: 4, k: 2, trials: 2},
		{name: "line8", family: "core.line", mk: func() topology.Topology { return topology.NewLine(8) }, w: 4, k: 2, trials: 2},
		{name: "cluster2x4", family: "core.cluster", mk: func() topology.Topology { return topology.NewCluster(2, 4, 4) }, w: 4, k: 2, trials: 2},
		{name: "star2x4", family: "core.star", mk: func() topology.Topology { return topology.NewStar(2, 4) }, w: 4, k: 2, trials: 2},
		{name: "fogcloud2x4", family: "hier.schedule", mk: func() topology.Topology {
			return topology.NewFogCloud([]int{2, 4}, []int64{4, 1})
		}, w: 4, k: 2, trials: 2},
	}
	return []workload{
		batchWorkload("batch-certify", "", batchSpec{cells: cells, certify: true}),
		batchWorkload("batch-scale", "", batchSpec{cells: cells}),
		serveWorkload("serve-clean", "", serveSpec{txns: 200, streams: 2, rate: 0.7}, 1, nil),
		serveWorkload("serve-chaos", "", serveSpec{txns: 200, streams: 2, rate: 0.7, chaos: 0.1}, 2, nil),
	}
}

func TestTinyWorkloads(t *testing.T) {
	for _, w := range tinyWorkloads() {
		w := w
		t.Run(w.name, func(t *testing.T) {
			rec, _, err := measure(&w, 3, 0, false)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Result.Correct || rec.Result.Failed != 0 || rec.Result.Attempted == 0 {
				t.Fatalf("untraced run: correct=%v attempted=%d failed=%d problems=%v",
					rec.Result.Correct, rec.Result.Attempted, rec.Result.Failed, rec.Problems)
			}
			for _, d := range endToEnd {
				if v := rec.Result.Metrics[d.name].Value; v <= 0 {
					t.Errorf("%s = %v, end-to-end metrics must be positive", d.name, v)
				}
			}

			rec, tr, err := measure(&w, 3, 0, true)
			if err != nil {
				t.Fatal(err)
			}
			if !rec.Result.Correct || len(rec.Result.Metrics) != len(perLayer) {
				t.Fatalf("traced run: correct=%v, %d metrics, problems=%v", rec.Result.Correct, len(rec.Result.Metrics), rec.Problems)
			}
			if strings.HasPrefix(w.name, "serve") {
				if rec.Result.Metrics["stream.windows"].Value == 0 {
					t.Error("traced serve reported no windows")
				}
			} else if rec.Result.Metrics["sim.steps"].Value == 0 {
				t.Error("traced batch reported no simulator steps")
			}
			if w.name == "serve-chaos" && rec.Result.Metrics["faults.link_queries"].Value == 0 {
				t.Error("traced chaos run counted no link queries")
			}

			dir := t.TempDir()
			if err := save(rec, tr, dir); err != nil {
				t.Fatal(err)
			}
			b, err := os.ReadFile(filepath.Join(dir, "results", w.name+"-seed3-trace1.trace.json"))
			if err != nil {
				t.Fatal(err)
			}
			var trace struct {
				TraceEvents []chromeEvent `json:"traceEvents"`
			}
			if err := json.Unmarshal(b, &trace); err != nil {
				t.Fatal(err)
			}
			if len(trace.TraceEvents) == 0 || trace.TraceEvents[0].Ph != "X" {
				t.Fatalf("trace has %d events", len(trace.TraceEvents))
			}
		})
	}
}

// corrupting schedules every transaction at step 1, so any two that share
// an object collide.
type corrupting struct{ core.Scheduler }

func (c corrupting) Schedule(in *tm.Instance) (*core.Result, error) {
	res, err := c.Scheduler.Schedule(in)
	if err != nil {
		return nil, err
	}
	for i := range res.Schedule.Times {
		res.Schedule.Times[i] = 1
	}
	res.Makespan = 1
	return res, nil
}

func TestCorruptedScheduleCountsAsFailed(t *testing.T) {
	w := tinyWorkloads()[0]
	br := w.inputs(5).(*batchRun)
	if err := setupAll(br, nil, -1); err != nil {
		t.Fatal(err)
	}
	job := &br.cells[1].engine[0]
	job.Scheduler = corrupting{job.Scheduler}
	if err := runAll(br, nil, -1); err != nil {
		t.Fatal(err)
	}
	o := br.outcome()
	if o.failed != 1 || len(o.problems) != 1 {
		t.Fatalf("failed = %d, problems = %v; want the corrupted job alone", o.failed, o.problems)
	}
	want := float64(o.attempted-1) / float64(o.attempted)
	if got := o.det["ok_frac"]; got != want {
		t.Fatalf("ok_frac = %v, want %v", got, want)
	}
}

func TestBalancedK(t *testing.T) {
	g := topology.NewClique(37).Graph()
	const w, k = 8, 3
	wl := balancedK(xrand.New(9), g.Nodes(), w, k)
	uses := make([]int, w)
	for _, v := range g.Nodes() {
		objs := wl.Pick(nil, v)
		seen := map[tm.ObjectID]bool{}
		for _, o := range objs {
			if seen[o] {
				t.Fatalf("node %d picks object %d twice", v, o)
			}
			seen[o] = true
			uses[o]++
		}
	}
	lo, hi := uses[0], uses[0]
	for _, u := range uses {
		lo, hi = min(lo, u), max(hi, u)
	}
	if hi-lo > 1 {
		t.Fatalf("object use counts %v differ by more than one", uses)
	}
}

func TestPinnedCleanDigest(t *testing.T) {
	if err := checkPinnedClean(); err != nil {
		t.Fatal(err)
	}
}

func TestCompareRecords(t *testing.T) {
	rec := func(seed int64, cpu string, wall, makespan float64) record {
		return record{
			Workload: "serve-clean", Seed: seed, Stamp: stamp{NProc: 2, GOMAXPROCS: 2, GoVersion: "go", CPU: cpu},
			Result: summary{Correct: true, Metrics: map[string]metricValue{"wall_s": {Value: wall}, "makespan_steps": {Value: makespan}}},
		}
	}
	cases := []struct {
		name     string
		old, new []record
		want     int
		mention  string
	}{
		{"same stamp, same counts", []record{rec(1, "a", 1, 10)}, []record{rec(1, "a", 1.05, 10)}, comparePass, "exact"},
		{"slower beyond the bound", []record{rec(1, "a", 1, 10)}, []record{rec(1, "a", 2, 10)}, compareFail, "WORSE"},
		{"count moved", []record{rec(1, "a", 1, 10)}, []record{rec(1, "a", 1, 11)}, compareFail, "MOVED"},
		{"different CPU", []record{rec(1, "a", 1, 10)}, []record{rec(1, "b", 1, 10)}, compareNotComparable, "stamps differ"},
		{"no common seed", []record{rec(1, "a", 1, 10)}, []record{rec(2, "a", 1, 10)}, compareNotComparable, "no seed in common"},
	}
	for _, c := range cases {
		lines, code := compareRecords(c.old, c.new)
		text := strings.Join(lines, "\n")
		if code != c.want || !strings.Contains(text, c.mention) {
			t.Errorf("%s: code %d, want %d mentioning %q:\n%s", c.name, code, c.want, c.mention, text)
		}
	}
}

// TestBenchmarkJSON keeps BENCHMARK.json and the metric catalogue in step.
func TestBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type entry struct {
		Name   string   `json:"name"`
		Why    string   `json:"why"`
		Unit   string   `json:"unit"`
		Better string   `json:"better"`
		Bound  *float64 `json:"bound"`
	}
	var spec struct {
		Workloads []entry `json:"workloads"`
		EndToEnd  []entry `json:"end_to_end"`
		PerLayer  []entry `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	ws := workloads()
	if len(spec.Workloads) != len(ws) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(spec.Workloads), len(ws))
	}
	for i, w := range ws {
		if spec.Workloads[i].Name != w.name || spec.Workloads[i].Why != w.why {
			t.Errorf("workload %d: BENCHMARK.json has %+v, the benchmark %q: %q", i, spec.Workloads[i], w.name, w.why)
		}
	}
	check := func(kind string, got []entry, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, the catalogue %d", kind, len(got), len(want))
		}
		for i, d := range want {
			e := got[i]
			bound := 0.0
			if e.Bound != nil {
				bound = *e.Bound
			}
			if e.Name != d.name || e.Unit != d.unit || e.Better != d.better || bound != d.bound {
				t.Errorf("%s %d: BENCHMARK.json has %+v (bound %v), the catalogue %+v", kind, i, e, bound, d)
			}
		}
	}
	check("end_to_end", spec.EndToEnd, endToEnd)
	check("per_layer", spec.PerLayer, perLayer)
}

// TestRefKernelAllocs keeps the reference kernel off the heap, so its time
// does not depend on how much garbage the program left behind.
func TestRefKernelAllocs(t *testing.T) {
	if a := testing.AllocsPerRun(5, func() { refKernel() }); a != 0 {
		t.Fatalf("reference kernel allocates %v times per run", a)
	}
}
