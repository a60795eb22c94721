// Command perfbench is the benchmark of record for the dtmsched
// reproduction. It runs one workload through the repository's public
// layer entry points for a fixed time, checks every output, and prints
// the end-to-end metrics (untraced run, -trace 0) or the per-layer
// metrics (traced run, -trace 1) as the last line of standard output:
//
//	{"correct": true, "attempted": 480, "failed": 0, "metrics": {"wall_s": {"value": 2.31, "unit": "s"}, ...}}
//
// Build and run it from the repository root with perfbench/run.sh:
//
//	bash perfbench/run.sh --workload batch-certify --seed 1 --seconds 12 --trace 0
//	bash perfbench/run.sh compare OLD NEW
//
// Each run also writes a result record (the line above plus the run's
// stamp and digest) under -out, and a traced run writes its spans there
// as Chrome trace-event JSON. compare reads two sets of result records.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"runtime/metrics"
	"strings"
	"time"
)

// outcome is what one run of a workload produced, once checked.
type outcome struct {
	attempted int64 // jobs (batch) or offered transactions (serve)
	failed    int64 // failed jobs, or offered transactions not committed
	txns      int64 // transactions scheduled and verified, or committed
	det       map[string]float64
	digest    string // serve Result.Digest of each piece, comma-separated
	problems  []string
}

// runner holds one copy of a workload's inputs. A workload is cut into
// pieces: independent parts (a batch cell, a serving stream) that are set
// up and run by calls of their own, so that every timed call is short and
// a sample of the reference kernel follows each (see refKernelTime).
type runner interface {
	pieces() int
	// setup builds piece p's inputs; it is the timed set-up.
	setup(p int, tr *tracer, parent int) error
	// run is the timed part: it hands piece p's inputs to the program.
	run(p int, tr *tracer, parent int) error
	// outcome checks the last run of every piece.
	outcome() *outcome
	// layers adds the workload's per-layer metrics after a traced run,
	// making any extra calls they need; base is the untraced run time.
	layers(tr *tracer, parent int, vals map[string]float64, base time.Duration) error
}

// workload is a named input set of the benchmark.
type workload struct {
	name string
	why  string
	// inputs returns an empty runner whose pieces derive from the seed.
	inputs func(seed int64) runner
	// selfCheck, when set, is an extra correctness check run once.
	selfCheck func() error
	// runs is how many times an iteration runs the inputs it set up;
	// 0 means once. A workload whose set-up costs far more than its run
	// runs it several times, so a run of the benchmark gathers many
	// timed runs.
	runs int
}

// setupAll sets up every piece of r.
func setupAll(r runner, tr *tracer, parent int) error {
	for p := 0; p < r.pieces(); p++ {
		if err := r.setup(p, tr, parent); err != nil {
			return err
		}
	}
	return nil
}

// runAll runs every piece of r.
func runAll(r runner, tr *tracer, parent int) error {
	for p := 0; p < r.pieces(); p++ {
		if err := r.run(p, tr, parent); err != nil {
			return err
		}
	}
	return nil
}

// iteration is one untraced set-up of every piece followed by one or
// more runs of every piece.
type iteration struct {
	setup []time.Duration   // per piece
	runs  [][]time.Duration // per run, per piece
	outs  []*outcome        // each run's checked outputs
	// heapPeaks holds each run's heap peak; the first run's covers the
	// set-up too.
	heapPeaks []uint64
	// alloc and gcs cover the set-up and the first run.
	alloc uint64
	gcs   uint32
	// kernel holds a sample of the reference kernel's time after each
	// timed call.
	kernel []time.Duration
}

// runOnce sets the workload up and runs it untraced, from a collected
// heap so one iteration's garbage does not bill the next.
func runOnce(w *workload, seed int64) (iteration, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	heap := sampleHeap()
	defer heap.stop()
	r := w.inputs(seed)
	var it iteration
	for p := 0; p < r.pieces(); p++ {
		t := time.Now()
		err := r.setup(p, nil, -1)
		it.setup = append(it.setup, time.Since(t))
		if err != nil {
			return iteration{}, fmt.Errorf("set-up: %w", err)
		}
		it.kernel = append(it.kernel, kernelSample())
	}
	for k := 0; k < max(w.runs, 1); k++ {
		var ds []time.Duration
		for p := 0; p < r.pieces(); p++ {
			t := time.Now()
			err := r.run(p, nil, -1)
			ds = append(ds, time.Since(t))
			if err != nil {
				return iteration{}, fmt.Errorf("run: %w", err)
			}
			it.kernel = append(it.kernel, kernelSample())
		}
		it.runs = append(it.runs, ds)
		it.heapPeaks = append(it.heapPeaks, heap.take())
		if k == 0 {
			runtime.ReadMemStats(&m1)
		}
		it.outs = append(it.outs, r.outcome())
	}
	it.alloc, it.gcs = m1.TotalAlloc-m0.TotalAlloc, m1.NumGC-m0.NumGC
	return it, nil
}

// heapSampleEvery is how often sampleHeap reads the heap size: thousands
// of readings per run, so the largest lands near the heap's real peak
// even on serve-chaos, which collects about once a millisecond.
const heapSampleEvery = time.Millisecond

// heapSampler reads the bytes held by heap objects, live or not yet
// swept, in a goroutine of its own.
type heapSampler struct {
	takes chan chan uint64
	done  chan struct{}
}

// sampleHeap starts a heap sampler; stop it with stop.
func sampleHeap() *heapSampler {
	h := &heapSampler{takes: make(chan chan uint64), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		s := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		var peak uint64
		tick := time.NewTicker(heapSampleEvery)
		defer tick.Stop()
		for {
			metrics.Read(s)
			peak = max(peak, s[0].Value.Uint64())
			select {
			case reply, ok := <-h.takes:
				if !ok {
					return
				}
				reply <- peak
				peak = 0
			case <-tick.C:
			}
		}
	}()
	return h
}

// take returns the largest reading since the sampler started or since
// the last take, whichever came later.
func (h *heapSampler) take() uint64 {
	reply := make(chan uint64)
	h.takes <- reply
	return <-reply
}

// stop ends the sampler and waits for its goroutine to return.
func (h *heapSampler) stop() {
	close(h.takes)
	<-h.done
}

// runTraced repeats base's set-up and run with spans around every call
// into the program, then lets the workload make its layer calls, and
// returns the per-layer metrics with the tracer that holds the spans.
func runTraced(w *workload, seed int64, base iteration) (map[string]float64, *tracer, *outcome, error) {
	vals := make(map[string]float64, len(perLayer))
	for _, m := range perLayer {
		vals[m.name] = 0
	}
	tr := newTracer()
	root := tr.begin("bench.pass", "", -1, trackMain)
	su := tr.begin("bench.setup", "", root, trackMain)
	r := w.inputs(seed)
	err := setupAll(r, tr, su)
	tr.end(su)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("traced set-up: %w", err)
	}
	ru := tr.begin("bench.run", "", root, trackMain)
	err = runAll(r, tr, ru)
	tr.end(ru)
	tr.end(root)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("traced run: %w", err)
	}
	out := r.outcome()
	pass := tr.spans[root].end - tr.spans[root].start
	vals["trace.overhead_frac"] = pass.Seconds()/(sum(base.setup)+sum(base.runs[0])).Seconds() - 1
	vals["trace.other_frac"] = tr.otherFrac(root)

	ly := tr.begin("bench.layers", "", -1, trackMain)
	err = r.layers(tr, ly, vals, sum(base.runs[0]))
	tr.end(ly)
	if err != nil {
		return nil, nil, nil, fmt.Errorf("layer calls: %w", err)
	}
	for _, name := range []string{"topology.build", "tm.generate", "faults.plan", "engine.verify"} {
		vals[name+"_s"] = tr.total(name).Seconds()
	}
	vals["go.alloc_bytes_per_txn"] = float64(base.alloc) / float64(max(base.outs[0].txns, 1))
	vals["go.gc_cycles"] = float64(base.gcs)
	return vals, tr, out, nil
}

// stamp is the environment a run measured on. Time-class metrics of two
// runs compare only when their stamps are equal.
type stamp struct {
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	GoVersion  string `json:"go_version"`
	CPU        string `json:"cpu_model"`
}

func currentStamp() stamp {
	return stamp{
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		GoVersion:  runtime.Version(),
		CPU:        cpuModel(),
	}
}

// cpuModel reads the processor name the kernel reports, or "unknown".
func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// summary is the result line the benchmark prints last.
type summary struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// record is a run's result line with what makes it comparable.
type record struct {
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
	Trace      bool   `json:"trace"`
	Stamp      stamp  `json:"stamp"`
	Iterations int    `json:"iterations"`
	// SetupS is each iteration's untraced set-up time, RunS every
	// untraced run's time, in order, each split by piece.
	SetupS [][]float64 `json:"setup_s"`
	RunS   [][]float64 `json:"run_s"`
	// HeapPeakMB is every untraced run's sampled heap peak, the first
	// run of an iteration's covering its set-up.
	HeapPeakMB []float64 `json:"heap_peak_mb"`
	// KernelS is every sample of the reference kernel's time, and Scale
	// the factor the end-to-end times were scaled by (see refKernelTime).
	KernelS  []float64 `json:"kernel_s"`
	Scale    float64   `json:"scale"`
	Digest   string    `json:"digest,omitempty"`
	Problems []string  `json:"problems,omitempty"`
	Result   summary   `json:"result"`
}

// minIterations lets every run check that its own passes agree.
const minIterations = 2

// benchProcs is the GOMAXPROCS a run measures at. On the shared 2-vCPU
// machine the benchmark was tuned on, the second vCPU's speed swings with
// other tenants' load: at GOMAXPROCS 2 the same serve-chaos run took
// 0.7–1.1 s where one processor took 0.44–0.51 s. One processor keeps
// runs comparable; the engine still runs its jobs on two workers.
const benchProcs = 1

// measure runs workload w for about seconds and returns its record;
// traced, it also returns the last traced pass's spans. It starts another
// iteration while that iteration, taking as long as the last one, would
// end nearer to seconds than stopping now.
func measure(w *workload, seed int64, seconds float64, traced bool) (*record, *tracer, error) {
	rec := &record{Workload: w.name, Seed: seed, Trace: traced, Stamp: currentStamp()}
	var its []iteration
	var layerVals []map[string]float64
	var last *tracer
	start := time.Now()
	var took time.Duration // the last iteration, traced pass included
	for len(its) < minIterations || (time.Since(start)+took/2).Seconds() < seconds {
		t := time.Now()
		it, err := runOnce(w, seed)
		if err != nil {
			return nil, nil, err
		}
		its = append(its, it)
		if traced {
			vals, tr, out, err := runTraced(w, seed, it)
			if err != nil {
				return nil, nil, err
			}
			layerVals = append(layerVals, vals)
			last = tr
			it.outs[0].problems = append(it.outs[0].problems, agree(it.outs[0], out, "traced run")...)
		}
		took = time.Since(t)
	}
	rec.Iterations = len(its)
	first := its[0].outs[0]
	rec.Digest = first.digest
	for i, it := range its {
		rec.SetupS = append(rec.SetupS, secs(it.setup))
		rec.KernelS = append(rec.KernelS, secs(it.kernel)...)
		for k, out := range it.outs {
			rec.RunS = append(rec.RunS, secs(it.runs[k]))
			rec.HeapPeakMB = append(rec.HeapPeakMB, float64(it.heapPeaks[k])/(1<<20))
			rec.Result.Attempted += out.attempted
			rec.Result.Failed += out.failed
			rec.Problems = append(rec.Problems, out.problems...)
			if i > 0 || k > 0 {
				rec.Problems = append(rec.Problems, agree(first, out, fmt.Sprintf("iteration %d run %d", i, k))...)
			}
		}
	}
	if w.selfCheck != nil {
		if err := w.selfCheck(); err != nil {
			rec.Problems = append(rec.Problems, err.Error())
		}
	}
	rec.Result.Correct = len(rec.Problems) == 0

	var err error
	if traced {
		vals := make(map[string]float64, len(perLayer))
		for _, m := range perLayer {
			xs := make([]float64, len(layerVals))
			for i, v := range layerVals {
				xs[i] = v[m.name]
			}
			vals[m.name] = median(xs)
		}
		rec.Result.Metrics, err = fill(perLayer, vals)
		return rec, last, err
	}
	// Set-up time is the median over the iterations of the whole set-up.
	// Wall time and throughput add up each piece's median set-up and run.
	// Every run does the same work, as the checks above hold its outputs
	// equal. All three are scaled to the reference machine's speed; the
	// heap peak is the median over the runs.
	rec.Scale = refKernelTime.Seconds() / median(rec.KernelS)
	setup := make([]float64, len(its))
	for i, s := range rec.SetupS {
		setup[i] = fsum(s)
	}
	setupEach, runEach := medianEach(rec.SetupS), medianEach(rec.RunS)
	vals := map[string]float64{
		"setup_s":     median(setup) * rec.Scale,
		"wall_s":      (setupEach + runEach) * rec.Scale,
		"txn_per_s":   float64(first.txns) / (runEach * rec.Scale),
		"mem_peak_mb": median(rec.HeapPeakMB),
	}
	for k, v := range first.det {
		vals[k] = v
	}
	rec.Result.Metrics, err = fill(endToEnd, vals)
	return rec, nil, err
}

// agree reports where b's deterministic outputs differ from a's.
func agree(a, b *outcome, what string) []string {
	var diffs []string
	if a.digest != b.digest {
		diffs = append(diffs, fmt.Sprintf("%s: digest %s, first run %s", what, b.digest, a.digest))
	}
	for k, v := range a.det {
		if b.det[k] != v {
			diffs = append(diffs, fmt.Sprintf("%s: %s = %v, first run %v", what, k, b.det[k], v))
		}
	}
	return diffs
}

func main() {
	os.Exit(realMain(os.Args[1:], os.Stdout, os.Stderr))
}

func realMain(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	var (
		name    = fs.String("workload", "", "workload to run: "+strings.Join(workloadNames(), ", "))
		seed    = fs.Int64("seed", 1, "seed the workload's inputs derive from")
		seconds = fs.Int("seconds", 10, "how long to measure, in seconds")
		trace   = fs.Int("trace", 0, "0: end-to-end metrics, untraced; 1: per-layer metrics from a traced run")
		out     = fs.String("out", ".bench_build/perfbench", "directory for result records and traces")
	)
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if rest := fs.Args(); len(rest) > 0 && rest[0] == "compare" {
		return compareCmd(rest[1:], stdout, stderr)
	}
	w := findWorkload(*name)
	if w == nil || fs.NArg() > 0 || *seconds < 1 || (*trace != 0 && *trace != 1) {
		fmt.Fprintf(stderr, "perfbench: want -workload (%s), -seconds ≥ 1, -trace 0|1\n", strings.Join(workloadNames(), "|"))
		return 2
	}
	runtime.GOMAXPROCS(benchProcs)
	rec, tr, err := measure(w, *seed, float64(*seconds), *trace == 1)
	if err == nil {
		err = save(rec, tr, *out)
	}
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %s: %v\n", *name, err)
		return 1
	}
	report(stdout, rec)
	return 0
}

// save writes the run's record and, traced, its Chrome trace under dir.
func save(rec *record, tr *tracer, dir string) error {
	base := fmt.Sprintf("%s-seed%d-trace%d", rec.Workload, rec.Seed, btoi(rec.Trace))
	if err := os.MkdirAll(filepath.Join(dir, "results"), 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, "results", base+".json"), append(b, '\n'), 0o644); err != nil {
		return err
	}
	if tr == nil {
		return nil
	}
	return tr.writeChrome(filepath.Join(dir, "results", base+".trace.json"), map[string]any{
		"workload": rec.Workload, "seed": rec.Seed, "stamp": rec.Stamp,
	})
}

// report prints the stamp, any problems, every metric by name with its
// unit (per-layer ones with the end-to-end metric they should move), and
// the result line last.
func report(w io.Writer, rec *record) {
	fmt.Fprintf(w, "perfbench %s seed=%d trace=%v iterations=%d nproc=%d gomaxprocs=%d go=%s cpu=%q\n",
		rec.Workload, rec.Seed, rec.Trace, rec.Iterations, rec.Stamp.NProc, rec.Stamp.GOMAXPROCS, rec.Stamp.GoVersion, rec.Stamp.CPU)
	if rec.Digest != "" {
		fmt.Fprintf(w, "digest=%s\n", rec.Digest)
	}
	for _, p := range rec.Problems {
		fmt.Fprintf(w, "CHECK FAILED: %s\n", p)
	}
	defs := endToEnd
	if rec.Trace {
		defs = perLayer
	}
	for _, d := range defs {
		m := rec.Result.Metrics[d.name]
		if d.target != "" {
			fmt.Fprintf(w, "%-24s %16.6g %-6s should move %s\n", d.name, m.Value, m.Unit, d.target)
			continue
		}
		fmt.Fprintf(w, "%-24s %16.6g %s\n", d.name, m.Value, m.Unit)
	}
	b, err := json.Marshal(rec.Result)
	if err != nil {
		panic(err) // plain structs of numbers always marshal
	}
	fmt.Fprintln(w, string(b))
}

func btoi(b bool) int {
	if b {
		return 1
	}
	return 0
}
