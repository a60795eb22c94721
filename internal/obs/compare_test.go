package obs

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// measureStage is the registry name of the measure stage's wall time.
const measureStage = "engine_stage_wall_us{stage=measure}"

// benchRec builds a gate-ready record; trials of one experiment share a
// fingerprint (Fingerprint ignores nothing in the config, so the caller
// keeps it constant).
func benchRec(exp string, trial int, stageMS float64, simsteps int64) RunRecord {
	cfg := map[string]string{"suite": "test"}
	return RunRecord{
		Schema: LedgerSchemaVersion, Experiment: exp,
		Fingerprint: Fingerprint(exp, cfg), Config: cfg, Trial: trial,
		Measures: Measures{Metrics: map[string]float64{
			measureStage:          stageMS * 1000,
			"total_ms":            stageMS + 5,
			"sim_steps_total":     float64(simsteps),
			"object_moves_total":  float64(simsteps * 3),
			"txns_executed_total": 10,
			"makespan_steps_max":  float64(simsteps),
		}},
		Env: CaptureEnv(),
	}
}

// verdictOf returns the verdict of metric name in the report's first
// group ("" when it was not compared).
func verdictOf(rep *CompareReport, name string) string {
	for _, m := range rep.Groups[0].Metrics {
		if m.Metric == name {
			return m.Verdict
		}
	}
	return ""
}

func trials(exp string, stageMS float64, simsteps int64, n int) []RunRecord {
	out := make([]RunRecord, n)
	for i := range out {
		out[i] = benchRec(exp, i, stageMS, simsteps)
	}
	return out
}

// TestCompareGateSelfTest is the CI self-test of the regression gate:
// identical ledgers pass, an injected 2× stage-time slowdown fails, a
// speedup is counted as an improvement, count drift fails in either
// direction, and ledgers sharing no fingerprint fail.
func TestCompareGateSelfTest(t *testing.T) {
	old := trials("E1", 10, 100, 3)

	t.Run("identical ledgers pass", func(t *testing.T) {
		rep := Compare(old, trials("E1", 10, 100, 3), Thresholds{})
		if !rep.Pass() || rep.Regressions != 0 || rep.Improvements != 0 {
			t.Fatalf("identical ledgers: %+v, want clean pass", rep)
		}
		if len(rep.Groups) != 1 {
			t.Fatalf("groups = %d, want 1", len(rep.Groups))
		}
	})

	t.Run("2x stage time regresses", func(t *testing.T) {
		rep := Compare(old, trials("E1", 20, 100, 3), Thresholds{})
		if rep.Pass() {
			t.Fatal("2x stage_ms slowdown passed the gate")
		}
		found := false
		for _, m := range rep.Groups[0].Metrics {
			if m.Metric == measureStage {
				found = true
				if m.Class != ClassTime || m.Verdict != VerdictRegression {
					t.Errorf("%s class/verdict = %s/%s, want time/regression", measureStage, m.Class, m.Verdict)
				}
				if m.Delta < 0.99 || m.Delta > 1.01 {
					t.Errorf("delta = %g, want ~1.0 (+100%%)", m.Delta)
				}
			}
		}
		if !found {
			t.Fatalf("%s not judged", measureStage)
		}
	})

	t.Run("2x speedup improves", func(t *testing.T) {
		rep := Compare(old, trials("E1", 5, 100, 3), Thresholds{})
		if !rep.Pass() {
			t.Fatal("a speedup must not fail the gate")
		}
		if rep.Improvements == 0 {
			t.Error("halved stage time not counted as an improvement")
		}
	})

	t.Run("count drift regresses exactly", func(t *testing.T) {
		rep := Compare(old, trials("E1", 10, 101, 3), Thresholds{})
		if rep.Pass() {
			t.Fatal("simsteps 100 -> 101 must regress: counters are deterministic")
		}
		if v := verdictOf(rep, "sim_steps_total"); v != VerdictChanged {
			t.Errorf("sim_steps_total verdict = %q, want %q", v, VerdictChanged)
		}
	})

	t.Run("half the transactions committed fails", func(t *testing.T) {
		half := trials("E1", 10, 100, 3)
		for i := range half {
			half[i].Metrics["txns_executed_total"] = 5
		}
		rep := Compare(old, half, Thresholds{})
		if rep.Pass() || rep.Improvements != 0 {
			t.Fatalf("executed 10 -> 5: pass=%v improvements=%d, want a failing change", rep.Pass(), rep.Improvements)
		}
		if v := verdictOf(rep, "txns_executed_total"); v != VerdictChanged {
			t.Errorf("txns_executed_total verdict = %q, want %q", v, VerdictChanged)
		}
		if txt := textOf(rep); !strings.Contains(txt, "CHANGED") || !strings.Contains(txt, "-50.0%") {
			t.Errorf("report does not show the signed change:\n%s", txt)
		}
	})

	t.Run("no common fingerprint fails", func(t *testing.T) {
		rep := Compare(old, trials("E2", 10, 100, 3), Thresholds{})
		if rep.Pass() || len(rep.Groups) != 0 {
			t.Fatalf("disjoint ledgers: pass=%v groups=%d, want a failing empty comparison", rep.Pass(), len(rep.Groups))
		}
		if txt := textOf(rep); !strings.Contains(txt, "FAIL") || !strings.Contains(txt, "nothing was compared") {
			t.Errorf("disjoint-ledger report does not say why it failed:\n%s", txt)
		}
	})
}

// TestCompareTimeNoiseFloors pins the two guards that keep wall-time
// jitter out of the gate: the MAD noise floor and the absolute
// millisecond floor.
func TestCompareTimeNoiseFloors(t *testing.T) {
	t.Run("MAD floor absorbs noisy trials", func(t *testing.T) {
		// Old trials scatter widely (MAD 10); the new median is +40% but
		// well inside 3×MAD, so the delta is noise, not a regression.
		old := []RunRecord{benchRec("E1", 0, 10, 100), benchRec("E1", 1, 20, 100), benchRec("E1", 2, 30, 100)}
		new := []RunRecord{benchRec("E1", 0, 18, 100), benchRec("E1", 1, 28, 100), benchRec("E1", 2, 38, 100)}
		rep := Compare(old, new, Thresholds{})
		for _, m := range rep.Groups[0].Metrics {
			if m.Metric == measureStage && m.Verdict != VerdictOK {
				t.Errorf("noisy +40%% within 3xMAD judged %s, want ok", m.Verdict)
			}
		}
	})

	t.Run("sub-millisecond deltas never judged", func(t *testing.T) {
		rep := Compare(trials("E1", 0.02, 100, 3), trials("E1", 0.05, 100, 3), Thresholds{})
		if !rep.Pass() {
			t.Fatal("0.02ms -> 0.05ms (+150%) must stay under the 1ms absolute floor")
		}
	})
}

func TestCompareOneSidedAndEnv(t *testing.T) {
	old := trials("E1", 10, 100, 2)
	new := append(trials("E1", 10, 100, 2), trials("E2", 4, 50, 2)...)
	rep := Compare(old, new, Thresholds{})
	if !rep.Pass() {
		t.Fatal("a brand-new benchmark must not fail the gate")
	}
	if len(rep.OnlyNew) != 1 || !strings.Contains(rep.OnlyNew[0], "E2") {
		t.Errorf("OnlyNew = %v, want the E2 fingerprint", rep.OnlyNew)
	}
	if rep.EnvMismatch != "" {
		t.Errorf("same-env comparison reported mismatch %q", rep.EnvMismatch)
	}

	other := trials("E1", 10, 100, 2)
	for i := range other {
		other[i].Env.GOMAXPROCS += 7
	}
	rep = Compare(old, other, Thresholds{})
	if !strings.Contains(rep.EnvMismatch, "GOMAXPROCS") {
		t.Errorf("EnvMismatch = %q, want a GOMAXPROCS warning", rep.EnvMismatch)
	}
	if !rep.Pass() {
		t.Error("an environment mismatch is a warning, not a failure")
	}
}

// TestCompareAcrossEnvironments pins the environment rule: across
// GOMAXPROCS 1 vs 8 a tripled wall time is not comparable (neither
// judged nor counted) while counts are still judged, and a comparison
// left with only time metrics judged nothing and fails.
func TestCompareAcrossEnvironments(t *testing.T) {
	atProcs := func(procs int, totalMS float64, counts bool) []RunRecord {
		recs := trials("E1", 10, 100, 3)
		for i := range recs {
			recs[i].Env.GOMAXPROCS = procs
			recs[i].Metrics["total_ms"] = totalMS
			if !counts {
				recs[i].Metrics = map[string]float64{"total_ms": totalMS}
			}
		}
		return recs
	}

	t.Run("counts judged, times not comparable", func(t *testing.T) {
		rep := Compare(atProcs(1, 10, true), atProcs(8, 30, true), Thresholds{})
		if !rep.Pass() || rep.Regressions != 0 {
			t.Fatalf("10 -> 30 ms across GOMAXPROCS 1/8 failed:\n%s", textOf(rep))
		}
		if v := verdictOf(rep, "total_ms"); v != VerdictNotComparable {
			t.Errorf("total_ms verdict = %q, want %q", v, VerdictNotComparable)
		}
		if v := verdictOf(rep, "sim_steps_total"); v != VerdictOK {
			t.Errorf("sim_steps_total verdict = %q, want ok (counts compare anywhere)", v)
		}
		if n := len(rep.Groups[0].Metrics); rep.Judged != n-2 {
			t.Errorf("judged = %d of %d metrics, want all but the two time metrics", rep.Judged, n)
		}
		// The same count drift still fails across environments.
		drift := atProcs(8, 30, true)
		for i := range drift {
			drift[i].Metrics["sim_steps_total"] = 101
		}
		if Compare(atProcs(1, 10, true), drift, Thresholds{}).Pass() {
			t.Error("count drift across environments passed")
		}
	})

	t.Run("only time metrics judges nothing", func(t *testing.T) {
		rep := Compare(atProcs(1, 10, false), atProcs(8, 10, false), Thresholds{})
		if rep.Pass() || rep.Judged != 0 || len(rep.Groups) != 1 {
			t.Fatalf("pass=%v judged=%d groups=%d, want a failing comparison that judged nothing",
				rep.Pass(), rep.Judged, len(rep.Groups))
		}
		if txt := textOf(rep); !strings.Contains(txt, "nothing was compared") {
			t.Errorf("report does not say why it failed:\n%s", txt)
		}
	})
}

// TestMetricClassBySuffix pins the class-by-name rule.
func TestMetricClassBySuffix(t *testing.T) {
	for _, tc := range []struct {
		name  string
		class string
		toMS  float64
	}{
		{"total_ms", ClassTime, 1},
		{"stage_ms/measure", ClassTime, 1},
		{"engine_stage_wall_us{stage=measure}", ClassTime, 1e-3},
		{"lower_compute_ns_total", ClassTime, 1e-6},
		{"lower_compute_us_p99", ClassTime, 1e-3},
		{"hier_shard_wall_us{tier=fog}_p50", ClassTime, 1e-3},
		{"sim_steps_total", ClassCount, 0},
		{"txn_latency_steps_p50", ClassCount, 0},
		{"latency_p99", ClassCount, 0},
		{"engine_stage_total{stage=measure_us}", ClassCount, 0},
		{"ratio", ClassCount, 0},
	} {
		if class, toMS := metricClass(tc.name); class != tc.class || toMS != tc.toMS {
			t.Errorf("metricClass(%q) = %s, %g; want %s, %g", tc.name, class, toMS, tc.class, tc.toMS)
		}
	}
}

// TestNewCounterReachesGate shows the one-schema property: a counter
// registered only where it is observed reaches the ledger record through
// MeasureDelta and the gate's verdict through Compare, with no list to
// extend anywhere.
func TestNewCounterReachesGate(t *testing.T) {
	run := func(widgets int64) RunRecord {
		r := NewRegistry()
		r.Counter("unrelated_total").Add(9)
		prev := r.Snapshot()
		r.Counter("probe_widgets_total").Add(widgets)
		r.Histogram("probe_size", nil).Observe(widgets)
		cfg := map[string]string{"suite": "probe"}
		return RunRecord{Schema: LedgerSchemaVersion, Experiment: "P", Fingerprint: Fingerprint("P", cfg),
			Config: cfg, Measures: MeasureDelta(prev, r.Snapshot()), Env: CaptureEnv()}
	}
	a := run(3)
	if a.Metrics["probe_widgets_total"] != 3 || a.Hists["probe_size"] == nil {
		t.Fatalf("record measures = %+v, want the new counter and histogram", a.Measures)
	}
	if _, ok := a.Metrics["unrelated_total"]; ok {
		t.Error("a counter that did not move in the interval reached the record")
	}
	if rep := Compare([]RunRecord{a}, []RunRecord{run(3)}, Thresholds{}); !rep.Pass() {
		t.Fatalf("identical probe runs failed:\n%s", textOf(rep))
	}
	rep := Compare([]RunRecord{a}, []RunRecord{run(5)}, Thresholds{})
	if rep.Pass() {
		t.Fatal("a changed probe counter passed the gate")
	}
	for _, name := range []string{"probe_widgets_total", "probe_size_p50"} {
		if v := verdictOf(rep, name); v != VerdictChanged {
			t.Errorf("%s verdict = %q, want %q", name, v, VerdictChanged)
		}
	}
}

// TestCompareLatencyPooling verifies the MergeHist consumer: when every
// record carries its latency distribution, the group's p50/p99 come from
// the pooled histogram, not a median of per-trial quantiles.
func TestCompareLatencyPooling(t *testing.T) {
	// Each trial observes 49 fast transactions and one 1000-step straggler;
	// pooled across two trials the p99 rank lands on the stragglers, which
	// a median of per-trial p99s would have kept but naive averaging
	// flattens.
	trialValues := append(make([]int64, 0, 50), 1000)
	for len(trialValues) < 50 {
		trialValues = append(trialValues, 2)
	}
	mk := func(n int) []RunRecord {
		cfg := map[string]string{"suite": "test"}
		out := make([]RunRecord, n)
		for i := range out {
			out[i] = RunRecord{
				Schema: LedgerSchemaVersion, Experiment: "E1",
				Fingerprint: Fingerprint("E1", cfg), Config: cfg, Trial: i,
				Measures: Measures{
					Metrics: map[string]float64{"sim_steps_total": 100},
					Hists:   map[string]*HistSnapshot{"txn_latency_steps": SnapshotValues(trialValues)},
				},
				Env: CaptureEnv(),
			}
		}
		return out
	}
	rep := Compare(mk(2), mk(2), Thresholds{})
	if !rep.Pass() {
		t.Fatalf("identical pooled latency failed:\n%s", textOf(rep))
	}
	var p50, p99 float64
	for _, m := range rep.Groups[0].Metrics {
		switch m.Metric {
		case "txn_latency_steps_p50":
			p50 = m.New
		case "txn_latency_steps_p99":
			p99 = m.New
		}
	}
	if p50 != 2 {
		t.Errorf("pooled p50 = %g, want 2", p50)
	}
	if p99 < 1000 {
		t.Errorf("pooled p99 = %g, want the 1000-step tail to survive pooling", p99)
	}
}

func TestCompareReportRendering(t *testing.T) {
	rep := Compare(trials("E1", 10, 100, 3), trials("E1", 25, 101, 3), Thresholds{})
	var txt bytes.Buffer
	if err := rep.WriteText(&txt); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"FAIL", "REGRESSED", "CHANGED", measureStage, "sim_steps_total"} {
		if !strings.Contains(txt.String(), want) {
			t.Errorf("text report missing %q:\n%s", want, txt.String())
		}
	}

	var js bytes.Buffer
	if err := rep.WriteJSON(&js); err != nil {
		t.Fatal(err)
	}
	var back CompareReport
	if err := json.Unmarshal(js.Bytes(), &back); err != nil {
		t.Fatalf("JSON report does not round-trip: %v", err)
	}
	if back.Regressions != rep.Regressions {
		t.Errorf("round-tripped regressions = %d, want %d", back.Regressions, rep.Regressions)
	}
}

func textOf(rep *CompareReport) string {
	var b bytes.Buffer
	rep.WriteText(&b)
	return b.String()
}
