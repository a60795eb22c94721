// Regression engine over run ledgers: group RunRecords by configuration
// fingerprint, reduce each metric to a robust location estimate (median
// plus MAD across trials and repeated runs), and judge the old→new delta
// per metric class, which is read from the metric's name. Wall-time
// metrics tolerate a configurable relative slack above a noise floor and
// are judged only when both ledgers ran in the same environment;
// deterministic counts (simulator steps, object moves, makespan, pooled
// latency quantiles) are expected to reproduce exactly on any machine,
// and drift in either direction fails.
//
// The comparator is the pass/fail core behind `dtmsched bench compare`
// and `dtmsched bench gate`: Compare never errors on mismatched ledgers
// (one-sided fingerprints are reported, not fatal), and
// CompareReport.Pass() is the single gate bit.
package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"sort"
	"strings"
)

// Metric classes drive the comparison rule per metric.
const (
	// ClassTime marks wall-clock metrics: noisy, judged against
	// Thresholds.Time with a MAD noise floor and an absolute floor.
	ClassTime = "time"
	// ClassCount marks deterministic metrics: expected to reproduce
	// exactly for a fixed fingerprint and seed, judged against
	// Thresholds.Count (default 0 — any change in either direction
	// fails).
	ClassCount = "count"
)

// Thresholds configures the regression judgment.
type Thresholds struct {
	// Time is the allowed relative increase on ClassTime metrics before
	// a regression is declared (0.30 = +30%). Zero selects the default.
	Time float64
	// Count is the allowed relative change on ClassCount metrics
	// (default 0: exact reproduction expected).
	Count float64
	// MADFactor scales the robust noise floor: a time delta must exceed
	// MADFactor × max(oldMAD, newMAD) as well as the relative threshold
	// (default 3).
	MADFactor float64
	// MinTimeMS is the absolute wall-time floor: time deltas smaller
	// than this are never judged, whatever their relative size
	// (default 1 ms). Keeps 0.02 ms → 0.05 ms jitter out of the gate.
	MinTimeMS float64
}

// DefaultThresholds are the gate's defaults.
func DefaultThresholds() Thresholds {
	return Thresholds{Time: 0.30, Count: 0, MADFactor: 3, MinTimeMS: 1}
}

func (t Thresholds) normalized() Thresholds {
	if t.Time <= 0 {
		t.Time = 0.30
	}
	if t.MADFactor <= 0 {
		t.MADFactor = 3
	}
	if t.MinTimeMS <= 0 {
		t.MinTimeMS = 1
	}
	return t
}

// Verdicts of one metric comparison.
const (
	VerdictOK          = "ok"
	VerdictRegression  = "regression"
	VerdictImprovement = "improvement"
	// VerdictChanged marks a count metric that drifted beyond
	// Thresholds.Count, in either direction; it fails the gate.
	VerdictChanged = "changed"
	// VerdictNotComparable marks a time metric from ledgers recorded in
	// different environments; it is reported but not judged.
	VerdictNotComparable = "not comparable"
)

// MetricDelta is one metric's old→new judgment within a fingerprint
// group.
type MetricDelta struct {
	// Metric is the metric name ("sim_steps_total", "total_ms", …).
	Metric string `json:"metric"`
	// Class is ClassTime or ClassCount.
	Class string `json:"class"`
	// Old / New are the robust per-side estimates (medians).
	Old float64 `json:"old"`
	New float64 `json:"new"`
	// OldMAD / NewMAD are the per-side median absolute deviations.
	OldMAD float64 `json:"old_mad,omitempty"`
	NewMAD float64 `json:"new_mad,omitempty"`
	// OldN / NewN count the records that contributed per side.
	OldN int `json:"old_n"`
	NewN int `json:"new_n"`
	// Delta is the relative change (new-old)/old; +Inf-free: 0 when old
	// is 0 and new is 0, 1 when old is 0 and new is not.
	Delta float64 `json:"delta"`
	// Verdict is one of the Verdict* constants.
	Verdict string `json:"verdict"`
}

// GroupDelta is one fingerprint group's comparison.
type GroupDelta struct {
	Fingerprint string            `json:"fingerprint"`
	Experiment  string            `json:"experiment"`
	Config      map[string]string `json:"config,omitempty"`
	Metrics     []MetricDelta     `json:"metrics"`
}

// CompareReport is the full result of comparing two ledgers.
type CompareReport struct {
	// Thresholds echoes the effective judgment parameters.
	Thresholds Thresholds `json:"thresholds"`
	// Groups holds per-fingerprint metric deltas, sorted by
	// (experiment, fingerprint).
	Groups []GroupDelta `json:"groups"`
	// Judged counts the metrics given a verdict across all groups (every
	// metric except the not-comparable ones).
	Judged int `json:"judged"`
	// Regressions counts the failing verdicts (time regressions and
	// changed counts); Improvements counts time improvements.
	Regressions  int `json:"regressions"`
	Improvements int `json:"improvements"`
	// OnlyOld / OnlyNew list experiments whose fingerprints appear on a
	// single side (configuration drift, new benchmarks); informational.
	OnlyOld []string `json:"only_old,omitempty"`
	OnlyNew []string `json:"only_new,omitempty"`
	// EnvMismatch names how the two sides' environments differ
	// (GOOS/GOARCH/GOMAXPROCS/CPU count); when set, time metrics are
	// not comparable and only counts are judged.
	EnvMismatch string `json:"env_mismatch,omitempty"`
}

// Pass reports whether the comparison is regression-free. A comparison
// that judged no metric (no common fingerprint group, or only time
// metrics across environments) compared nothing and does not pass.
func (r *CompareReport) Pass() bool { return r.Judged > 0 && r.Regressions == 0 }

// metricClass reads a metric's class from its name: after stripping a
// label block ("{…}") or v1 sub-key ("/<stage>"), a trailing "_total",
// and a pooled-quantile suffix ("_p50", "_p99"), a name ending in "_ns",
// "_us" or "_ms" is a time metric; toMS converts its values to
// milliseconds. Every other name is a count metric.
func metricClass(name string) (class string, toMS float64) {
	if i := strings.IndexAny(name, "{/"); i >= 0 {
		name = name[:i]
	}
	name = strings.TrimSuffix(name, "_total")
	name = strings.TrimSuffix(strings.TrimSuffix(name, "_p50"), "_p99")
	switch {
	case strings.HasSuffix(name, "_ns"):
		return ClassTime, 1e-6
	case strings.HasSuffix(name, "_us"):
		return ClassTime, 1e-3
	case strings.HasSuffix(name, "_ms"):
		return ClassTime, 1
	}
	return ClassCount, 0
}

// group is the per-side accumulation of one fingerprint.
type group struct {
	experiment string
	config     map[string]string
	values     map[string][]float64 // metric → observations
	hists      map[string]*HistSnapshot
}

// accumulate folds records into fingerprint groups.
func accumulate(recs []RunRecord) map[string]*group {
	out := map[string]*group{}
	for i := range recs {
		r := &recs[i]
		g := out[r.Fingerprint]
		if g == nil {
			g = &group{
				experiment: r.Experiment,
				config:     r.Config,
				values:     map[string][]float64{},
				hists:      map[string]*HistSnapshot{},
			}
			out[r.Fingerprint] = g
		}
		for name, v := range r.Metrics {
			g.values[name] = append(g.values[name], v)
		}
		for name, h := range r.Hists {
			g.hists[name] = MergeHist(g.hists[name], h)
		}
	}
	// Each histogram is judged by the p50/p99 of its pooled distribution
	// (replacing any per-record quantile of the same name): merging the
	// trials and taking one quantile keeps a tail that a median of
	// per-trial quantiles would flatten.
	for _, g := range out {
		for name, h := range g.hists {
			g.values[name+"_p50"] = []float64{float64(h.Quantile(0.50))}
			g.values[name+"_p99"] = []float64{float64(h.Quantile(0.99))}
		}
	}
	return out
}

// median returns the middle of a sorted copy (mean of the central pair
// for even lengths); 0 for empty input.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// mad returns the median absolute deviation around med.
func mad(xs []float64, med float64) float64 {
	if len(xs) < 2 {
		return 0
	}
	dev := make([]float64, len(xs))
	for i, x := range xs {
		dev[i] = math.Abs(x - med)
	}
	return median(dev)
}

// Compare judges new against old, grouping by fingerprint. Neither slice
// is mutated. Zero-valued thresholds select DefaultThresholds fields.
func Compare(old, new []RunRecord, th Thresholds) *CompareReport {
	th = th.normalized()
	rep := &CompareReport{Thresholds: th}
	oldG, newG := accumulate(old), accumulate(new)
	rep.EnvMismatch = envMismatch(old, new)

	var fps []string
	for fp := range oldG {
		if _, ok := newG[fp]; ok {
			fps = append(fps, fp)
		} else {
			rep.OnlyOld = append(rep.OnlyOld, oldG[fp].experiment+" ["+fp+"]")
		}
	}
	for fp, g := range newG {
		if _, ok := oldG[fp]; !ok {
			rep.OnlyNew = append(rep.OnlyNew, g.experiment+" ["+fp+"]")
		}
	}
	sort.Strings(rep.OnlyOld)
	sort.Strings(rep.OnlyNew)
	sort.Slice(fps, func(i, j int) bool {
		a, b := oldG[fps[i]], oldG[fps[j]]
		if a.experiment != b.experiment {
			return a.experiment < b.experiment
		}
		return fps[i] < fps[j]
	})

	for _, fp := range fps {
		og, ng := oldG[fp], newG[fp]
		gd := GroupDelta{Fingerprint: fp, Experiment: og.experiment, Config: og.config}
		var names []string
		for name := range og.values {
			if _, ok := ng.values[name]; ok {
				names = append(names, name)
			}
		}
		sort.Strings(names)
		for _, name := range names {
			ov, nv := og.values[name], ng.values[name]
			class, toMS := metricClass(name)
			md := MetricDelta{
				Metric: name, Class: class,
				Old: median(ov), New: median(nv),
				OldN: len(ov), NewN: len(nv),
			}
			md.OldMAD, md.NewMAD = mad(ov, md.Old), mad(nv, md.New)
			md.Delta = relDelta(md.Old, md.New)
			md.Verdict = VerdictNotComparable
			if class == ClassCount || rep.EnvMismatch == "" {
				md.Verdict = judge(md, toMS, th)
				rep.Judged++
			}
			switch md.Verdict {
			case VerdictRegression, VerdictChanged:
				rep.Regressions++
			case VerdictImprovement:
				rep.Improvements++
			}
			gd.Metrics = append(gd.Metrics, md)
		}
		rep.Groups = append(rep.Groups, gd)
	}
	return rep
}

// relDelta is (new-old)/old with the zero-old edge pinned: 0→0 is no
// change, 0→x is a unit increase.
func relDelta(old, new float64) float64 {
	if old == 0 {
		if new == 0 {
			return 0
		}
		return 1
	}
	return (new - old) / old
}

// judge applies the per-class rule to one metric delta; toMS converts a
// time metric's values to milliseconds for the MinTimeMS floor.
func judge(md MetricDelta, toMS float64, th Thresholds) string {
	diff := md.New - md.Old
	switch md.Class {
	case ClassTime:
		if math.Abs(diff)*toMS < th.MinTimeMS {
			return VerdictOK
		}
		floor := th.MADFactor * math.Max(md.OldMAD, md.NewMAD)
		if md.Delta > th.Time && diff > floor {
			return VerdictRegression
		}
		if md.Delta < -th.Time && -diff > floor {
			return VerdictImprovement
		}
	default: // ClassCount
		if math.Abs(md.Delta) > th.Count {
			return VerdictChanged
		}
	}
	return VerdictOK
}

// envMismatch compares the first record's environment per side.
func envMismatch(old, new []RunRecord) string {
	if len(old) == 0 || len(new) == 0 {
		return ""
	}
	a, b := old[0].Env, new[0].Env
	var diffs []string
	if a.GOOS != b.GOOS || a.GOARCH != b.GOARCH {
		diffs = append(diffs, fmt.Sprintf("platform %s/%s vs %s/%s", a.GOOS, a.GOARCH, b.GOOS, b.GOARCH))
	}
	if a.GOMAXPROCS != b.GOMAXPROCS {
		diffs = append(diffs, fmt.Sprintf("GOMAXPROCS %d vs %d", a.GOMAXPROCS, b.GOMAXPROCS))
	}
	if a.NumCPU != b.NumCPU {
		diffs = append(diffs, fmt.Sprintf("cpus %d vs %d", a.NumCPU, b.NumCPU))
	}
	return strings.Join(diffs, "; ")
}

// WriteText renders the report for terminals: the summary line, every
// failing or improved metric, one-sided fingerprints, and per-group ok
// and not-comparable counts so silence never reads as "not checked".
func (r *CompareReport) WriteText(w io.Writer) error {
	status := "PASS"
	if !r.Pass() {
		status = "FAIL"
	}
	if _, err := fmt.Fprintf(w, "%s: %d fingerprint groups, %d metrics judged, %d regressions, %d improvements\n",
		status, len(r.Groups), r.Judged, r.Regressions, r.Improvements); err != nil {
		return err
	}
	if r.EnvMismatch != "" {
		fmt.Fprintf(w, "warning: environment mismatch (%s) — time metrics not comparable, counts judged\n", r.EnvMismatch)
	}
	switch {
	case len(r.Groups) == 0:
		fmt.Fprintln(w, "  no fingerprint group is in both ledgers: nothing was compared")
	case r.Judged == 0:
		fmt.Fprintln(w, "  no metric in common could be judged: nothing was compared")
	}
	marks := map[string]string{VerdictRegression: "REGRESSED", VerdictChanged: "CHANGED", VerdictImprovement: "IMPROVED"}
	for _, g := range r.Groups {
		ok, nc := 0, 0
		for _, m := range g.Metrics {
			switch m.Verdict {
			case VerdictOK:
				ok++
			case VerdictNotComparable:
				nc++
			default:
				fmt.Fprintf(w, "  %-9s %s [%s] %-20s %s -> %s (%+.1f%%, n=%d/%d)\n",
					marks[m.Verdict], g.Experiment, g.Fingerprint[:8], m.Metric,
					fmtVal(m.Old), fmtVal(m.New), m.Delta*100, m.OldN, m.NewN)
			}
		}
		fmt.Fprintf(w, "  %s [%s]: %d metrics ok, %d not comparable\n", g.Experiment, g.Fingerprint[:8], ok, nc)
	}
	for _, s := range r.OnlyOld {
		fmt.Fprintf(w, "  only in OLD: %s\n", s)
	}
	for _, s := range r.OnlyNew {
		fmt.Fprintf(w, "  only in NEW: %s\n", s)
	}
	return nil
}

// fmtVal prints values compactly: integers without a fraction.
func fmtVal(v float64) string {
	if v == math.Trunc(v) && math.Abs(v) < 1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%.2f", v)
}

// WriteJSON renders the report as indented JSON.
func (r *CompareReport) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}
