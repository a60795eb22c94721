// Run ledger: a schema-versioned, append-only JSONL history of canonical
// RunRecords. Where a metrics snapshot answers "what happened in this
// process", the ledger answers "how does this run compare to every run
// before it": each benchmark invocation appends one record per
// experiment (or per engine job), and the regression engine in compare.go
// groups the accumulated records by configuration fingerprint to decide
// whether performance moved.
//
// The ledger follows the Collector's nil-safety contract: a nil *Ledger
// is a no-op whose methods cost zero allocations, so engine hooks can
// call it unconditionally and an unattached pipeline pays nothing
// (enforced by TestNilLedgerProfilerZeroAllocs).
package obs

import (
	"bufio"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"io"
	"os"
	"runtime"
	"sort"
	"sync"
)

// LedgerSchemaVersion is the RunRecord schema this package writes.
// Readers accept any version ≤ the current one; unknown newer versions
// are a hard error rather than a silent misparse.
const LedgerSchemaVersion = 2

// Env captures the execution environment of a record. Environment fields
// never enter the fingerprint — records from different machines share a
// fingerprint and the comparator surfaces the mismatch as a warning
// instead of silently comparing apples to oranges.
type Env struct {
	GOOS       string `json:"goos"`
	GOARCH     string `json:"goarch"`
	GoVersion  string `json:"go"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	NumCPU     int    `json:"numcpu"`
}

// CaptureEnv snapshots the current process environment.
func CaptureEnv() Env {
	return Env{
		GOOS:       runtime.GOOS,
		GOARCH:     runtime.GOARCH,
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		NumCPU:     runtime.NumCPU(),
	}
}

// HistSnapshot is a frozen histogram: per-bucket counts with the same
// bounds convention as Registry histograms (Bucket.LE = -1 is the
// overflow bucket). Records carry one for transaction latency so the
// comparator can pool distributions across trials instead of taking a
// median of per-trial quantiles.
type HistSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Max     int64    `json:"max"`
	Buckets []Bucket `json:"buckets,omitempty"`
}

// Quantile estimates the qth quantile with Histogram.Quantile's
// semantics: the upper bound of the bucket containing the rank,
// the observed maximum for ranks landing in the overflow bucket, zero
// when empty.
func (h *HistSnapshot) Quantile(q float64) int64 {
	if h == nil || h.Count == 0 {
		return 0
	}
	rank := int64(q * float64(h.Count))
	if rank < 1 {
		rank = 1
	}
	var seen int64
	for _, b := range h.Buckets {
		seen += b.N
		if seen >= rank {
			if b.LE >= 0 {
				return b.LE
			}
			return h.Max
		}
	}
	return h.Max
}

// MergeHist returns the bucket-wise sum of two snapshots (either may be
// nil). Buckets are matched by upper bound and the result is sorted with
// the overflow bucket last, so merging is commutative and deterministic:
// merge(a,b) and merge(b,a) are byte-identical
// (TestMergeHistDeterminism).
func MergeHist(a, b *HistSnapshot) *HistSnapshot {
	if a == nil && b == nil {
		return nil
	}
	out := &HistSnapshot{}
	byLE := map[int64]int64{}
	for _, h := range []*HistSnapshot{a, b} {
		if h == nil {
			continue
		}
		out.Count += h.Count
		out.Sum += h.Sum
		if h.Max > out.Max {
			out.Max = h.Max
		}
		for _, bk := range h.Buckets {
			byLE[bk.LE] += bk.N
		}
	}
	out.Buckets = sortedBuckets(byLE)
	return out
}

// HistDelta returns the histogram accumulated between two registry
// snapshot samples of the same histogram (prev may be the zero Sample
// for "since the beginning"). Count, Sum, and per-bucket counts
// subtract; Max cannot be deltaed from a snapshot and keeps the
// cumulative cur.Max, which is exact whenever the interval contains the
// run that set it.
func HistDelta(cur, prev Sample) *HistSnapshot {
	out := &HistSnapshot{
		Count: cur.Count - prev.Count,
		Sum:   cur.Sum - prev.Sum,
		Max:   cur.Max,
	}
	byLE := map[int64]int64{}
	for _, b := range cur.Buckets {
		byLE[b.LE] += b.N
	}
	for _, b := range prev.Buckets {
		byLE[b.LE] -= b.N
	}
	out.Buckets = sortedBuckets(byLE)
	return out
}

// sortedBuckets renders a LE→count map as a bucket list sorted by bound
// with the overflow bucket (LE -1) last; empty buckets are dropped.
func sortedBuckets(byLE map[int64]int64) []Bucket {
	var out []Bucket
	for le, n := range byLE {
		if n != 0 {
			out = append(out, Bucket{LE: le, N: n})
		}
	}
	sort.Slice(out, func(i, j int) bool {
		li, lj := out[i].LE, out[j].LE
		if li < 0 {
			return false // overflow sorts last
		}
		if lj < 0 {
			return true
		}
		return li < lj
	})
	return out
}

// SnapshotValues builds a HistSnapshot by observing every value into a
// fresh DefaultBuckets histogram — the path engine hooks use to freeze a
// schedule's per-transaction latencies into a record.
func SnapshotValues(values []int64) *HistSnapshot {
	h := newHistogram(nil)
	for _, v := range values {
		h.Observe(v)
	}
	out := &HistSnapshot{Count: h.Count(), Sum: h.Sum(), Max: h.max.Value()}
	for i := range h.buckets {
		if n := h.buckets[i].Load(); n > 0 {
			le := int64(-1)
			if i < len(h.bounds) {
				le = h.bounds[i]
			}
			out.Buckets = append(out.Buckets, Bucket{LE: le, N: n})
		}
	}
	return out
}

// RunRecord is one canonical ledger entry: the identity of what ran
// (experiment, fingerprint, config, seed), what it measured (Measures,
// keyed by registry metric name), and where it ran (Env). Wall-time
// metrics are the only non-deterministic ones; everything else is
// reproducible from the fingerprint and seed.
type RunRecord struct {
	// Schema is the record's LedgerSchemaVersion (filled by Append).
	Schema int `json:"schema"`
	// Experiment names what ran: an experiment ID ("E5") or a bench
	// suite job ("bench/grid12").
	Experiment string `json:"experiment"`
	// Fingerprint identifies the configuration group this record belongs
	// to: a stable hash of Experiment plus the Config map (filled by
	// Append when empty). The comparator only ever compares records with
	// equal fingerprints.
	Fingerprint string `json:"fingerprint"`
	// Config holds the raw fingerprint inputs, for humans and reports.
	Config map[string]string `json:"config,omitempty"`
	// Seed is the root seed of the run.
	Seed int64 `json:"seed,omitempty"`
	// Trial distinguishes repeated runs of one fingerprint within a
	// single ledger append session (0 when unused).
	Trial int `json:"trial,omitempty"`
	// Algorithm names the schedule producer for per-job records.
	Algorithm string `json:"algorithm,omitempty"`

	Measures

	// Env is the execution environment.
	Env Env `json:"env"`
}

// Measures is what a run measured, keyed by registry metric name
// ("sim_steps_total", "engine_stage_wall_us{stage=measure}"). The
// comparator reads each metric's class from its name (see metricClass),
// so a metric a subsystem registers reaches records and the gate with
// no schema edit.
type Measures struct {
	// Metrics holds counters (the run's delta), gauges, and the run's
	// wall time as "total_ms".
	Metrics map[string]float64 `json:"metrics,omitempty"`
	// Hists holds the run's histogram deltas; the comparator pools them
	// across trials and judges their p50/p99.
	Hists map[string]*HistSnapshot `json:"hists,omitempty"`
}

// MeasureDelta builds the Measures of the interval between two
// Registry.Snapshot samples (prev may be nil for "since the
// beginning"): counters become deltas, histograms become HistDelta, and
// gauges take their value at cur. Metrics that did not move in the
// interval are left out, which keeps a max-gauge history-independent: if
// it moved, its value is the interval's own maximum.
func MeasureDelta(prev, cur []Sample) Measures {
	before := make(map[string]Sample, len(prev))
	for _, s := range prev {
		before[s.Name] = s
	}
	m := Measures{Metrics: map[string]float64{}, Hists: map[string]*HistSnapshot{}}
	for _, s := range cur {
		p := before[s.Name]
		switch {
		case s.Kind == "histogram" && s.Count != p.Count:
			m.Hists[s.Name] = HistDelta(s, p)
		case s.Kind == "counter" && s.Value != p.Value:
			m.Metrics[s.Name] = float64(s.Value - p.Value)
		case s.Kind == "gauge" && s.Value != p.Value:
			m.Metrics[s.Name] = float64(s.Value)
		}
	}
	return m
}

// Fingerprint hashes an experiment name and its configuration map into
// a stable 16-hex-digit group key (FNV-1a over the sorted k=v pairs).
func Fingerprint(experiment string, cfg map[string]string) string {
	h := fnv.New64a()
	io.WriteString(h, experiment)
	keys := make([]string, 0, len(cfg))
	for k := range cfg {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		io.WriteString(h, "|")
		io.WriteString(h, k)
		io.WriteString(h, "=")
		io.WriteString(h, cfg[k])
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// Ledger appends RunRecords to an io.Writer sink as JSON Lines. Append
// is safe for concurrent use (RunBatch workers share one ledger); a nil
// *Ledger is a no-op.
type Ledger struct {
	mu  sync.Mutex
	w   io.Writer
	err error
}

// NewLedger wraps a writer sink. The caller owns the writer's lifetime
// (closing files, flushing buffers).
func NewLedger(w io.Writer) *Ledger { return &Ledger{w: w} }

// Append writes one record as a single JSON line, filling Schema, Env,
// and Fingerprint when the caller left them empty. The first write error
// is sticky: later appends fail fast with it.
func (l *Ledger) Append(rec *RunRecord) error {
	if l == nil || rec == nil {
		return nil
	}
	if rec.Schema == 0 {
		rec.Schema = LedgerSchemaVersion
	}
	if rec.Fingerprint == "" {
		rec.Fingerprint = Fingerprint(rec.Experiment, rec.Config)
	}
	if rec.Env == (Env{}) {
		rec.Env = CaptureEnv()
	}
	data, err := json.Marshal(rec)
	if err != nil {
		return err
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.err != nil {
		return l.err
	}
	if _, err := l.w.Write(append(data, '\n')); err != nil {
		l.err = err
		return err
	}
	return nil
}

// Err returns the sticky write error, if any.
func (l *Ledger) Err() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// ReadLedger parses a JSONL ledger stream. Blank lines are skipped;
// malformed lines and records from a newer schema version are errors
// that name the offending line.
func ReadLedger(r io.Reader) ([]RunRecord, error) {
	var out []RunRecord
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Bytes()
		if len(text) == 0 {
			continue
		}
		var rec RunRecord
		if err := json.Unmarshal(text, &rec); err != nil {
			return nil, fmt.Errorf("ledger line %d: %w", line, err)
		}
		if rec.Schema < 1 || rec.Schema > LedgerSchemaVersion {
			return nil, fmt.Errorf("ledger line %d: schema %d not supported (this build reads ≤ %d)",
				line, rec.Schema, LedgerSchemaVersion)
		}
		if rec.Schema == 1 {
			if err := readV1Measures(text, &rec.Measures); err != nil {
				return nil, fmt.Errorf("ledger line %d: %w", line, err)
			}
		}
		out = append(out, rec)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	return out, nil
}

// readV1Measures lifts a schema-1 record's per-field measurements into
// Measures by one generic rule: every numeric top-level key that is not
// an identity field becomes a metric under its v1 key, each "stage_ms"
// entry becomes "stage_ms/<stage>", and the "latency" and
// "window_latency" distributions become histograms. A v1-vs-v1
// comparison therefore judges what the v1 gate judged, plus the fields
// it recorded but never read.
func readV1Measures(text []byte, m *Measures) error {
	var raw map[string]json.RawMessage
	if err := json.Unmarshal(text, &raw); err != nil {
		return err
	}
	m.Metrics, m.Hists = map[string]float64{}, map[string]*HistSnapshot{}
	for k, v := range raw {
		var x float64
		switch k {
		case "schema", "seed", "trial":
		case "stage_ms":
			var stages map[string]float64
			if err := json.Unmarshal(v, &stages); err != nil {
				return fmt.Errorf("stage_ms: %w", err)
			}
			for stage, ms := range stages {
				m.Metrics["stage_ms/"+stage] = ms
			}
		case "latency", "window_latency":
			h := &HistSnapshot{}
			if err := json.Unmarshal(v, h); err != nil {
				return fmt.Errorf("%s: %w", k, err)
			}
			m.Hists[k] = h
		default:
			if json.Unmarshal(v, &x) == nil {
				m.Metrics[k] = x
			}
		}
	}
	return nil
}

// ReadLedgerFile reads a ledger from a file path.
func ReadLedgerFile(path string) ([]RunRecord, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	recs, err := ReadLedger(f)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return recs, nil
}
