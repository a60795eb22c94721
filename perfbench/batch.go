package main

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"dtmsched/internal/core"
	"dtmsched/internal/depgraph"
	"dtmsched/internal/engine"
	"dtmsched/internal/graph"
	"dtmsched/internal/hier"
	"dtmsched/internal/lower"
	"dtmsched/internal/sim"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// batchWorkers is the engine's worker count on the batch workloads.
const batchWorkers = 2

// cell is one topology of a batch workload with the scheduler family the
// paper gives it and the number of instances generated on it.
type cell struct {
	name   string
	family string // per-layer span name of the scheduler: core.greedy, ..., hier.schedule
	mk     func() topology.Topology
	w, k   int
	trials int
}

// newScheduler builds the cell family's scheduler. The randomized
// families draw from rng, so each job gets its own.
func newScheduler(family string, topo topology.Topology, rng *rand.Rand) (core.Scheduler, error) {
	switch family {
	case "core.greedy":
		return &core.Greedy{}, nil
	case "core.line":
		return &core.Line{Topo: topo.(*topology.Line)}, nil
	case "core.grid":
		return &core.Grid{Topo: topo.(*topology.Grid)}, nil
	case "core.cluster":
		return &core.Cluster{Topo: topo.(*topology.ClusterGraph), Rng: rng}, nil
	case "core.star":
		return &core.Star{Topo: topo.(*topology.Star), Rng: rng}, nil
	case "hier.schedule":
		return &hier.Scheduler{Topo: topo.(*topology.FogCloud)}, nil
	}
	return nil, fmt.Errorf("unknown scheduler family %q", family)
}

// balancedK is tm.UniformK with every object requested equally often
// (within one when w does not divide n·k): the n·k request slots hold each
// object in turn, shuffled, then repaired so no node asks for an object
// twice. Certifying an object costs exponentially more the more nodes
// request it, so fixing the request counts keeps the work of a batch the
// same for every seed while the requesters stay random.
func balancedK(rng *rand.Rand, nodes []graph.NodeID, w, k int) tm.Workload {
	slots := make([]tm.ObjectID, len(nodes)*k)
	for i := range slots {
		slots[i] = tm.ObjectID(i % w)
	}
	rng.Shuffle(len(slots), func(i, j int) { slots[i], slots[j] = slots[j], slots[i] })
	// holds reports whether another slot of slot i's node holds o.
	holds := func(i int, o tm.ObjectID) bool {
		g := i / k * k
		for j := g; j < g+k; j++ {
			if j != i && slots[j] == o {
				return true
			}
		}
		return false
	}
	for i := range slots {
		for holds(i, slots[i]) {
			j := rng.Intn(len(slots))
			if j/k != i/k && !holds(j, slots[i]) && !holds(i, slots[j]) {
				slots[i], slots[j] = slots[j], slots[i]
			}
		}
	}
	picks := make(map[graph.NodeID][]tm.ObjectID, len(nodes))
	for n, v := range nodes {
		picks[v] = slots[n*k : (n+1)*k]
	}
	return tm.Workload{W: w, K: k, Name: "balanced", Pick: func(_ *rand.Rand, v graph.NodeID) []tm.ObjectID {
		return append([]tm.ObjectID(nil), picks[v]...)
	}}
}

// batchSpec is a batch workload: its cells and whether the engine
// computes the certified lower bound of every instance.
type batchSpec struct {
	cells   []cell
	certify bool
}

// batchJob is one generated instance with what it takes to rebuild its
// scheduler for the traced layer pass.
type batchJob struct {
	cell *cell
	topo topology.Topology
	in   *tm.Instance
	name string
	seed int64
}

// batchRun is one copy of a batch workload's inputs. Its pieces are the
// cells, each pushed through the engine by a RunBatch call of its own.
type batchRun struct {
	spec  *batchSpec
	seed  int64
	cells []batchCell
	// bounds caches the certified bound per job name when the engine
	// skips it; instances repeat exactly across passes of one seed.
	bounds map[string]int64
}

// batchCell is the set-up jobs of one cell and their last results.
type batchCell struct {
	jobs    []batchJob
	engine  []engine.Job
	results []engine.JobResult
}

func newBatchRun(spec *batchSpec, seed int64, bounds map[string]int64) *batchRun {
	return &batchRun{spec: spec, seed: seed, cells: make([]batchCell, len(spec.cells)), bounds: bounds}
}

func (r *batchRun) pieces() int { return len(r.cells) }

// setup builds cell p's topology, instances and schedulers.
func (r *batchRun) setup(p int, tr *tracer, parent int) error {
	c := &r.spec.cells[p]
	bc := batchCell{}
	i := tr.begin("topology.build", c.name, parent, trackMain)
	topo := c.mk()
	tr.end(i)
	g := topo.Graph()
	metric := graph.FuncMetric(topo.Dist)
	for t := 0; t < c.trials; t++ {
		name := fmt.Sprintf("%s#%d", c.name, t)
		rng := xrand.NewDerived(r.seed, "perfbench", "instance", name)
		i := tr.begin("tm.generate", name, parent, trackMain)
		in := balancedK(rng, g.Nodes(), c.w, c.k).Generate(rng, g, metric, g.Nodes(), tm.PlaceAtRandomUser)
		tr.end(i)
		bj := batchJob{cell: c, topo: topo, in: in, name: name, seed: r.seed}
		sched, err := bj.scheduler()
		if err != nil {
			return err
		}
		bc.jobs = append(bc.jobs, bj)
		bc.engine = append(bc.engine, engine.Job{
			Name:           name,
			Instance:       in,
			Scheduler:      sched,
			Verify:         engine.VerifyFull,
			SkipLowerBound: !r.spec.certify,
		})
	}
	r.cells[p] = bc
	return nil
}

// scheduler returns a fresh scheduler for the job, seeded identically
// every time so the engine pass and the layer pass schedule alike.
func (j *batchJob) scheduler() (core.Scheduler, error) {
	return newScheduler(j.cell.family, j.topo, xrand.NewDerived(j.seed, "perfbench", "scheduler", j.name))
}

// run pushes every job of cell p through the engine: schedule, full
// verification (algebraic check plus simulator replay) and, on
// batch-certify, the certified lower bound.
func (r *batchRun) run(p int, tr *tracer, parent int) error {
	bc := &r.cells[p]
	opt := engine.Options{Workers: batchWorkers}
	if tr != nil {
		opt.Hook = tr.engineHook(parent, func(ev engine.Event) int { return trackJobBase + ev.Job })
	}
	i := tr.begin("engine.run_batch", r.spec.cells[p].name, parent, trackMain)
	res, err := engine.RunBatch(context.Background(), bc.engine, opt)
	tr.end(i)
	bc.results = res
	return err
}

// eachJob calls f with every set-up job and its last result, cell by cell.
func (r *batchRun) eachJob(f func(j *batchJob, res *engine.JobResult)) {
	for c := range r.cells {
		bc := &r.cells[c]
		for i := range bc.jobs {
			var res *engine.JobResult
			if i < len(bc.results) {
				res = &bc.results[i]
			}
			f(&bc.jobs[i], res)
		}
	}
}

// outcome checks the last run's outputs and derives the deterministic
// metrics. A job fails when the engine reports an error (an infeasible
// schedule fails VerifyFull), when the simulator did not execute every
// transaction, or, with a bound, when the makespan sits below it.
func (r *batchRun) outcome() *outcome {
	o := &outcome{}
	var makespan, comm, bound int64
	var commits []int64
	r.eachJob(func(j *batchJob, res *engine.JobResult) {
		o.attempted++
		in := j.in
		fail := func(format string, args ...any) {
			o.failed++
			o.problems = append(o.problems, fmt.Sprintf("job %s: ", j.name)+fmt.Sprintf(format, args...))
		}
		if res == nil {
			fail("no result")
			return
		}
		if res.Err != nil {
			fail("%v", res.Err)
			return
		}
		rep := res.Report
		if rep.Counters.Executed != int64(in.NumTxns()) {
			fail("simulator executed %d of %d transactions", rep.Counters.Executed, in.NumTxns())
			return
		}
		b := rep.Bound.Value
		if !r.spec.certify {
			b = r.bound(res.Name, in)
		}
		if b < 1 || rep.Makespan < b {
			fail("makespan %d below certified bound %d", rep.Makespan, b)
			return
		}
		o.txns += int64(in.NumTxns())
		makespan += rep.Makespan
		comm += rep.CommCost
		bound += b
		commits = append(commits, rep.Schedule.Times...)
	})
	o.det = map[string]float64{
		"ok_frac":        float64(o.attempted-o.failed) / float64(max(o.attempted, 1)),
		"makespan_steps": float64(makespan),
		"comm_cost":      float64(comm),
		"lb_ratio":       ratio(makespan, bound),
		// Every transaction of a batch arrives at step 0, so its
		// response time is its commit step.
		"resp_mean_steps": mean(commits),
		"resp_p99_steps":  float64(quantile(commits, 0.99)),
		// Batches run fault-free: every job commits on plan.
		"inflation_mean": 1,
	}
	return o
}

// bound is the certified lower bound of a job the engine ran without
// one, computed once per process outside the timed passes.
func (r *batchRun) bound(name string, in *tm.Instance) int64 {
	b, ok := r.bounds[name]
	if !ok {
		b = lower.ComputeOpts(in, lower.Options{Workers: batchWorkers}).Value
		r.bounds[name] = b
	}
	return b
}

// layers calls each layer directly on every instance, one job at a time,
// so each call gets its own span: the family's scheduler, the dependency
// graph build and coloring, the algebraic validation, the simulator and,
// on batch-certify, the lower bound.
func (r *batchRun) layers(tr *tracer, parent int, vals map[string]float64, _ time.Duration) error {
	var edges, steps, moves, exact, bounded int64
	var all []*batchJob
	r.eachJob(func(j *batchJob, _ *engine.JobResult) { all = append(all, j) })
	for _, j := range all {
		in := j.in
		js := tr.begin("bench.job", j.name, parent, trackMain)
		sched, err := j.scheduler()
		if err != nil {
			return err
		}
		i := tr.begin(j.cell.family, j.name, js, trackMain)
		res, err := sched.Schedule(in)
		tr.end(i)
		if err != nil {
			return fmt.Errorf("job %s: %w", j.name, err)
		}
		i = tr.begin("depgraph.build", j.name, js, trackMain)
		h := depgraph.BuildOpts(in, nil, depgraph.Options{})
		tr.end(i)
		i = tr.begin("depgraph.color", j.name, js, trackMain)
		h.GreedyColor(h.OrderByNode(in))
		tr.end(i)
		edges += h.NumEdges()
		i = tr.begin("schedule.validate", j.name, js, trackMain)
		err = res.Schedule.Validate(in)
		tr.end(i)
		if err != nil {
			return fmt.Errorf("job %s: %w", j.name, err)
		}
		i = tr.begin("sim.run", j.name, js, trackMain)
		sr, err := sim.Run(in, res.Schedule, sim.Options{})
		tr.end(i)
		if err != nil {
			return fmt.Errorf("job %s: %w", j.name, err)
		}
		steps += sr.Makespan
		moves += sr.Moves
		if r.spec.certify {
			i = tr.begin("lower.bound", j.name, js, trackMain)
			b := lower.ComputeOpts(in, lower.Options{Witness: true})
			tr.end(i)
			exact += int64(b.ExactObjects)
			bounded += int64(b.BoundedObjects)
		}
		tr.end(js)
	}
	for _, fam := range []string{"core.greedy", "core.line", "core.grid", "core.cluster", "core.star", "hier.schedule"} {
		vals[fam+"_s"] = tr.total(fam).Seconds()
	}
	for _, name := range []string{"depgraph.build", "depgraph.color", "schedule.validate", "sim.run", "lower.bound"} {
		vals[name+"_s"] = tr.total(name).Seconds()
	}
	vals["depgraph.edges"] = float64(edges)
	vals["sim.steps"] = float64(steps)
	vals["sim.moves"] = float64(moves)
	vals["lower.exact_objects"] = float64(exact)
	vals["lower.bounded_objects"] = float64(bounded)
	jobs := tr.durations("engine.job")
	vals["engine.job_p50_ms"] = ms(quantileDur(jobs, 0.50))
	vals["engine.job_p90_ms"] = ms(quantileDur(jobs, 0.90))
	return nil
}
