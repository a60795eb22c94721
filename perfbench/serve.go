package main

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"time"

	"dtmsched/internal/engine"
	"dtmsched/internal/faults"
	"dtmsched/internal/graph"
	"dtmsched/internal/obs"
	"dtmsched/internal/stream"
	"dtmsched/internal/tm"
	"dtmsched/internal/topology"
	"dtmsched/internal/xrand"
)

// serveSpec is a serving workload: `dtmsched serve` on a cluster topology
// (α=4 clusters of β=16 nodes, inter-cluster weight γ=8) with a uniform
// w=64, k=2 workload, arrivals open-loop in logical steps at rate per
// step, and chaos injection at chaos (0 = fault-free). The workload
// serves streams independent streams of txns transactions each, one after
// another, so that each timed Serve call is short.
type serveSpec struct {
	txns    int
	streams int
	rate    float64
	chaos   float64
}

// Cluster shape and workload of both serving workloads.
const (
	serveAlpha = 4
	serveBeta  = 16
	serveGamma = 8
	serveW     = 64
	serveK     = 2
)

// respBounds gives the response-time histogram one bucket per step, so
// its 99th percentile is exact rather than a power-of-two bucket edge.
var respBounds = func() []int64 {
	b := make([]int64, 1<<14)
	for i := range b {
		b[i] = int64(i + 1)
	}
	return b
}()

// replay is a Source over a stream generated at set-up, so the timed run
// serves transactions without generating them.
type replay struct {
	items []stream.Item
	next  int
}

func (s *replay) Next() (stream.Item, bool) {
	if s.next >= len(s.items) {
		return stream.Item{}, false
	}
	s.next++
	return s.items[s.next-1], true
}

// timedSource measures the time the serving loop spends pulling arrivals.
// Only the serving loop calls it, so it needs no locking.
type timedSource struct {
	src  stream.Source
	busy time.Duration
}

func (s *timedSource) Next() (stream.Item, bool) {
	t := time.Now()
	it, ok := s.src.Next()
	s.busy += time.Since(t)
	return it, ok
}

// countingInjector counts the fault queries the serving path makes.
// Engine jobs may query from several goroutines, hence the atomics.
type countingInjector struct {
	faults.Injector
	link, node, drop atomic.Int64
}

func (c *countingInjector) LinkFactor(u, v graph.NodeID, step int64) int64 {
	c.link.Add(1)
	return c.Injector.LinkFactor(u, v, step)
}

func (c *countingInjector) NodeDownUntil(v graph.NodeID, step int64) (int64, bool) {
	c.node.Add(1)
	return c.Injector.NodeDownUntil(v, step)
}

func (c *countingInjector) DropMove(o tm.ObjectID, seq int, step int64) bool {
	c.drop.Add(1)
	return c.Injector.DropMove(o, seq, step)
}

// serveStream is one set-up stream of a serving workload.
type serveStream struct {
	g     *graph.Graph
	topo  topology.Topology
	homes []graph.NodeID
	items []stream.Item
	inj   faults.Injector

	// Outputs of the last run.
	res    *stream.Result
	source *timedSource
	counts *countingInjector
}

// streamSeed is the seed stream p of a run with the given seed derives
// its arrivals from: `dtmsched serve -seed` with this value serves the
// same stream.
func streamSeed(seed int64, p int) int64 { return seed*100 + int64(p) }

// chaosSeed is the seed of stream p's chaos plan, the same in every run:
// `dtmsched serve -faults RATE,SEED` with this value draws the same plan.
// The fault scenario is part of the workload and the run's seed varies
// the traffic it meets. Drawn from the run's seed, the plans made the
// serving work of a 5,000-transaction run differ by up to 1.5x from seed
// to seed, more than a 25% bound can absorb.
func chaosSeed(p int) int64 { return 1000 + int64(p) }

// setupStream builds the topology, object homes, the whole arrival stream
// and, under chaos, the fault plan drawn from planSeed. The other seeds
// derive from seed with the labels `dtmsched serve` uses, so a stream's
// digest equals the CLI's for the same flags, -seed and -faults.
func setupStream(spec *serveSpec, seed, planSeed int64, tr *tracer, parent int) (*serveStream, error) {
	i := tr.begin("topology.build", "cluster", parent, trackMain)
	topo := topology.NewCluster(serveAlpha, serveBeta, serveGamma)
	tr.end(i)
	g := topo.Graph()
	r := &serveStream{g: g, topo: topo}

	i = tr.begin("tm.generate", "stream", parent, trackMain)
	homeRng := xrand.NewDerived(seed, "serve", "homes", "cluster")
	r.homes = make([]graph.NodeID, serveW)
	for o := range r.homes {
		r.homes[o] = g.Nodes()[homeRng.Intn(g.NumNodes())]
	}
	gen, err := stream.MakeGenerator(xrand.NewDerived(seed, "serve", "gen", "cluster"), g, tm.UniformK(serveW, serveK), spec.rate, spec.txns)
	if err != nil {
		return nil, err
	}
	r.items = make([]stream.Item, 0, spec.txns)
	for {
		it, ok := gen.Next()
		if !ok {
			break
		}
		r.items = append(r.items, it)
	}
	tr.end(i)

	if spec.chaos > 0 {
		// Horizon and redraw chunk as `dtmsched serve -faults` sets them:
		// twice the nominal stream duration, and the steps one window of
		// node-count transactions takes to arrive.
		horizon := max(int64(2*float64(spec.txns)/spec.rate), 64)
		chunk := int64(float64(g.NumNodes()) / spec.rate)
		i = tr.begin("faults.plan", "chaos", parent, trackMain)
		r.inj, err = stream.NewChaos(stream.ChaosConfig{Rate: spec.chaos, Seed: planSeed, Horizon: horizon, Chunk: chunk}, g)
		tr.end(i)
		if err != nil {
			return nil, err
		}
	}
	return r, nil
}

// config is the `dtmsched serve` default configuration over the set-up
// inputs: block backpressure, fast verification, pipeline depth 2, one
// engine attempt per window, shed after 3 requeues, breaker trip at 1.5.
func (r *serveStream) config(src stream.Source, inj faults.Injector, col *obs.Collector) stream.Config {
	return stream.Config{
		G:             r.g,
		Metric:        graph.FuncMetric(r.topo.Dist),
		NumObjects:    serveW,
		Home:          r.homes,
		Source:        src,
		Policy:        stream.Block,
		Verify:        engine.VerifyFast,
		Retry:         engine.RetryPolicy{MaxAttempts: 1},
		PipelineDepth: 2,
		Collector:     col,
		Faults:        inj,
		MaxRequeue:    3,
		InflationTrip: 1.5,
		OnCancel:      stream.CancelDrain,
	}
}

// newCollector is the serve metrics collector, with the response-time
// histogram registered at one-step resolution before Serve first uses it.
func newCollector() (*obs.Collector, *obs.Histogram) {
	col := obs.NewMetricsCollector()
	return col, col.Registry().Histogram("stream_txn_response_steps", respBounds)
}

// serveRun is one copy of a serving workload's inputs. Its pieces are
// the streams; a run of the workload serves them in order through one
// metrics collector, as one long-lived service would.
type serveRun struct {
	spec    *serveSpec
	seed    int64
	streams []*serveStream
	col     *obs.Collector
	resp    *obs.Histogram // response times of the last run, every stream
}

func newServeRun(spec *serveSpec, seed int64) *serveRun {
	return &serveRun{spec: spec, seed: seed, streams: make([]*serveStream, spec.streams)}
}

func (r *serveRun) pieces() int { return len(r.streams) }

func (r *serveRun) setup(p int, tr *tracer, parent int) error {
	st, err := setupStream(r.spec, streamSeed(r.seed, p), chaosSeed(p), tr, parent)
	r.streams[p] = st
	return err
}

// run serves stream p; stream 0 starts a new run with a fresh collector.
// Traced, the source and the injector are wrapped to measure arrivals and
// count fault queries, and the engine's per-window stage events become
// spans on the executor track.
func (r *serveRun) run(p int, tr *tracer, parent int) error {
	if p == 0 {
		r.col, r.resp = newCollector()
	}
	st := r.streams[p]
	var src stream.Source = &replay{items: st.items}
	inj := st.inj
	st.source, st.counts = nil, nil
	if tr != nil {
		st.source = &timedSource{src: src}
		src = st.source
		if inj != nil {
			st.counts = &countingInjector{Injector: inj}
			inj = st.counts
		}
	}
	cfg := st.config(src, inj, r.col)
	i := tr.begin("stream.serve", fmt.Sprint(p), parent, trackMain)
	if tr != nil {
		cfg.Hook = tr.engineHook(i, func(engine.Event) int { return trackExecutor })
	}
	res, err := stream.Serve(context.Background(), cfg)
	tr.end(i)
	st.res = res
	return err
}

// serveUncollected serves every stream once more without a metrics
// collector and returns the wall time.
func (r *serveRun) serveUncollected() (time.Duration, error) {
	t := time.Now()
	for _, st := range r.streams {
		if _, err := stream.Serve(context.Background(), st.config(&replay{items: st.items}, st.inj, nil)); err != nil {
			return 0, err
		}
	}
	return time.Since(t), nil
}

// outcome checks the last run's accounting and derives the deterministic
// metrics. In every stream each offered transaction is admitted or
// rejected, each admitted one commits or is shed, and the windows add up
// to the committed count; every committed transaction has exactly one
// response time.
func (r *serveRun) outcome() *outcome {
	o := &outcome{}
	check := func(ok bool, format string, args ...any) {
		if !ok {
			o.problems = append(o.problems, fmt.Sprintf(format, args...))
		}
	}
	var clock, comm, lastSum, windows int64
	var respSum, inflSum float64
	var digests []string
	for p, st := range r.streams {
		res := st.res
		offered := int64(len(st.items))
		o.attempted += offered
		o.txns += res.Committed
		check(res.Admitted+res.Rejected == offered, "stream %d: offered %d != admitted %d + rejected %d", p, offered, res.Admitted, res.Rejected)
		check(res.Admitted == res.Committed+res.Shed, "stream %d: admitted %d != committed %d + shed %d", p, res.Admitted, res.Committed, res.Shed)
		var windowed int64
		for _, n := range res.WindowSizes {
			windowed += int64(n)
		}
		check(windowed == res.Committed, "stream %d: window sizes sum to %d, committed %d", p, windowed, res.Committed)
		last := st.items[len(st.items)-1].Arrive
		check(res.Clock > last, "stream %d: final clock %d not after the last arrival %d", p, res.Clock, last)
		clock += res.Clock
		comm += res.CommCost
		lastSum += last + 1
		windows += int64(res.Windows)
		respSum += res.MeanResponse * float64(res.Committed)
		inflSum += res.MeanInflation * float64(res.Windows)
		digests = append(digests, fmt.Sprintf("%016x", res.Digest))
	}
	check(r.resp.Count() == o.txns, "%d response times for %d commits", r.resp.Count(), o.txns)
	o.failed = o.attempted - o.txns
	o.digest = strings.Join(digests, ",")

	inflation := inflSum / float64(max(windows, 1))
	if r.spec.chaos == 0 {
		inflation = 1 // fault-free: every window commits on plan
	}
	o.det = map[string]float64{
		"ok_frac":        float64(o.txns) / float64(o.attempted),
		"makespan_steps": float64(clock),
		"comm_cost":      float64(comm),
		// No transaction commits before it arrives, so the last
		// arrival plus one step bounds each final clock from below.
		"lb_ratio":        float64(clock) / float64(lastSum),
		"resp_mean_steps": respSum / float64(max(o.txns, 1)),
		"resp_p99_steps":  float64(r.resp.Quantile(0.99)),
		"inflation_mean":  inflation,
	}
	return o
}

// layers reports the serving layers from the traced run, then serves once
// more without the metrics collector to price it against base, the
// untraced run's serve time.
func (r *serveRun) layers(tr *tracer, parent int, vals map[string]float64, base time.Duration) error {
	serve := tr.total("stream.serve")
	windows := tr.durations("engine.job")
	var source time.Duration
	var committed, nwindows, requeued, trips, queuePeak int64
	var planFaults, link, node, drop int64
	for _, st := range r.streams {
		res := st.res
		source += st.source.busy
		committed += res.Committed
		nwindows += int64(res.Windows)
		requeued += res.Requeued
		trips += int64(res.BreakerTrips)
		queuePeak = max(queuePeak, int64(res.QueuePeak))
		if st.counts != nil {
			planFaults += int64(st.inj.Count())
			link += st.counts.link.Load()
			node += st.counts.node.Load()
			drop += st.counts.drop.Load()
		}
	}
	vals["stream.serve_s"] = serve.Seconds()
	vals["stream.source_s"] = source.Seconds()
	vals["stream.exec_busy_frac"] = tr.total("engine.job").Seconds() / serve.Seconds()
	vals["stream.windows"] = float64(nwindows)
	vals["stream.window_size_mean"] = float64(committed) / float64(max(nwindows, 1))
	vals["stream.queue_peak"] = float64(queuePeak)
	vals["stream.requeued"] = float64(requeued)
	vals["stream.breaker_trips"] = float64(trips)
	vals["engine.window_p50_ms"] = ms(quantileDur(windows, 0.50))
	vals["engine.window_p99_ms"] = ms(quantileDur(windows, 0.99))
	vals["faults.plan_faults"] = float64(planFaults)
	vals["faults.link_queries"] = float64(link)
	vals["faults.node_queries"] = float64(node)
	vals["faults.drop_queries"] = float64(drop)
	i := tr.begin("bench.serve_uncollected", "", parent, trackMain)
	d, err := r.serveUncollected()
	tr.end(i)
	if err != nil {
		return err
	}
	vals["obs.collector_frac"] = 1 - d.Seconds()/base.Seconds()
	return nil
}
