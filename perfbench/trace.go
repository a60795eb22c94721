package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"sort"
	"strings"
	"sync"
	"time"

	"dtmsched/internal/engine"
)

// span is one timed call the benchmark made into a layer of the program,
// or one of the benchmark's own grouping phases (names starting "bench.").
type span struct {
	name   string
	id     string // the job or window the span belongs to ("" for phases)
	parent int    // index of the enclosing span, -1 for a root
	track  int    // Chrome trace thread: spans on one track nest in time
	start  time.Duration
	end    time.Duration
}

// Tracks keep concurrent spans apart in the Chrome trace: the benchmark's
// own goroutine, the stream executor, and one track per batch job
// (RunBatch runs jobs on several workers at once).
const (
	trackMain     = 1
	trackExecutor = 2
	trackJobBase  = 10
)

// tracer keeps spans in memory until the run ends. A nil *tracer is the
// untraced mode: every method is a no-op, so traced and untraced passes
// run the same code.
type tracer struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
	// open holds, per engine job, the stage spans the hook has seen
	// before the job's terminal event names their parent.
	open map[string][]int
}

func newTracer() *tracer {
	return &tracer{t0: time.Now(), open: map[string][]int{}}
}

// begin opens a span and returns its index for end.
func (t *tracer) begin(name, id string, parent, track int) int {
	if t == nil {
		return -1
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, track: track, start: now, end: -1})
	return len(t.spans) - 1
}

// end closes the span begin returned.
func (t *tracer) end(i int) {
	if t == nil || i < 0 {
		return
	}
	now := time.Since(t.t0)
	t.mu.Lock()
	t.spans[i].end = now
	t.mu.Unlock()
}

// done records a span that ended now after running for d.
func (t *tracer) done(name, id string, parent, track int, d time.Duration) int {
	now := time.Since(t.t0)
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{name: name, id: id, parent: parent, track: track, start: now - d, end: now})
	return len(t.spans) - 1
}

// engineHook turns the engine's public stage events into spans: one
// "engine.<stage>" span per stage and one "engine.job" span per job, the
// job span parenting its stages. parent is the span the jobs run under;
// track maps an event to its Chrome track.
func (t *tracer) engineHook(parent int, track func(engine.Event) int) engine.Hook {
	return func(ev engine.Event) {
		key := fmt.Sprintf("%s#%d", ev.Name, ev.Job)
		if ev.Stage != engine.StageDone {
			i := t.done("engine."+ev.Stage.String(), ev.Name, -1, track(ev), ev.Elapsed)
			t.mu.Lock()
			t.open[key] = append(t.open[key], i)
			t.mu.Unlock()
			return
		}
		j := t.done("engine.job", ev.Name, parent, track(ev), ev.Elapsed)
		t.mu.Lock()
		for _, i := range t.open[key] {
			t.spans[i].parent = j
		}
		delete(t.open, key)
		t.mu.Unlock()
	}
}

// total sums the durations of the spans with the given name.
func (t *tracer) total(name string) time.Duration {
	var d time.Duration
	for _, s := range t.spans {
		if s.name == name {
			d += s.end - s.start
		}
	}
	return d
}

// durations lists the durations of the spans with the given name.
func (t *tracer) durations(name string) []time.Duration {
	var ds []time.Duration
	for _, s := range t.spans {
		if s.name == name {
			ds = append(ds, s.end-s.start)
		}
	}
	return ds
}

// otherFrac is the share of span root's interval that no layer span
// covers: time the benchmark spent outside every call into the program.
// Layer spans are all spans but the benchmark's own "bench." phases.
func (t *tracer) otherFrac(root int) float64 {
	r := t.spans[root]
	type iv struct{ a, b time.Duration }
	var ivs []iv
	for _, s := range t.spans {
		if strings.HasPrefix(s.name, "bench.") {
			continue
		}
		a, b := max(s.start, r.start), min(s.end, r.end)
		if b > a {
			ivs = append(ivs, iv{a, b})
		}
	}
	sort.Slice(ivs, func(i, j int) bool { return ivs[i].a < ivs[j].a })
	var covered, reach time.Duration
	reach = r.start
	for _, v := range ivs {
		if v.b <= reach {
			continue
		}
		if v.a > reach {
			reach = v.a
		}
		covered += v.b - reach
		reach = v.b
	}
	wall := r.end - r.start
	if wall <= 0 {
		return 0
	}
	return float64(wall-covered) / float64(wall)
}

// chromeEvent is one complete ("X") event of the Chrome trace-event
// format, which Perfetto and chrome://tracing open.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// maxTraceEvents caps the spans written to the trace file so a long
// serving run stays loadable; metrics are computed from every span.
const maxTraceEvents = 50000

// writeChrome writes the spans as Chrome trace-event JSON, earliest
// first, keeping the first maxTraceEvents.
func (t *tracer) writeChrome(path string, meta map[string]any) error {
	order := make([]int, len(t.spans))
	for i := range order {
		order[i] = i
	}
	sort.SliceStable(order, func(a, b int) bool { return t.spans[order[a]].start < t.spans[order[b]].start })
	kept := order
	if len(kept) > maxTraceEvents {
		kept = kept[:maxTraceEvents]
	}
	evs := make([]chromeEvent, 0, len(kept))
	for _, i := range kept {
		s := t.spans[i]
		args := map[string]any{"span": i, "parent": s.parent}
		if s.id != "" {
			args["id"] = s.id
		}
		evs = append(evs, chromeEvent{
			Name: s.name, Ph: "X", PID: 1, TID: s.track,
			TS:   float64(s.start.Nanoseconds()) / 1e3,
			Dur:  float64((s.end - s.start).Nanoseconds()) / 1e3,
			Args: args,
		})
	}
	meta["spans_total"] = len(t.spans)
	meta["spans_written"] = len(evs)
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	err = json.NewEncoder(w).Encode(map[string]any{"traceEvents": evs, "otherData": meta})
	if err == nil {
		err = w.Flush()
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
