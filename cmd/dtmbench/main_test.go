package main

import (
	"errors"
	"expvar"
	"os"
	"os/exec"
	"strings"
	"testing"

	"dtmsched/internal/experiments"
	"dtmsched/internal/obs"
)

// TestPublishPrefix pins the expvar namespace: dtmbench must publish its
// registry under its own name — an earlier version leaked its sibling
// CLI's "dtmsched" prefix, making /debug/vars lie about which process
// was being inspected.
func TestPublishPrefix(t *testing.T) {
	if expvarName != "dtmbench" {
		t.Fatalf("expvarName = %q, want %q", expvarName, "dtmbench")
	}
	col := obs.NewMetricsCollector()
	col.Registry().Counter("probe").Inc()
	col.Registry().Publish(expvarName)
	if expvar.Get("dtmbench") == nil {
		t.Fatal("registry not published under the dtmbench namespace")
	}
	if expvar.Get("dtmsched") != nil {
		t.Fatal("registry must not publish under the sibling CLI's dtmsched namespace")
	}
}

// TestLedgerRecordFromPipeline covers the -ledger record inputs: the
// fingerprint config names the output-determining flags but not the
// worker count (ledgers at different -parallel values must share
// groups), and the per-experiment measures are the registry delta
// between the surrounding snapshots, with no movement giving nothing.
func TestLedgerRecordFromPipeline(t *testing.T) {
	cfg := experiments.DefaultConfig()
	cfg.Trials, cfg.Workers = 2, 4
	got := runConfig(cfg, true)
	if got["quick"] != "true" || got["trials"] != "2" || got["seed"] == "" {
		t.Errorf("config = %v, want quick, trials and seed", got)
	}
	if _, ok := got["workers"]; ok {
		t.Errorf("config = %v: workers must not enter the fingerprint", got)
	}
	cfg.Workers = 1
	if obs.Fingerprint("E5", runConfig(cfg, true)) != obs.Fingerprint("E5", got) {
		t.Error("worker count changed the fingerprint")
	}

	r := obs.NewRegistry()
	h := r.Histogram("txn_latency_steps", nil)
	prev := r.Snapshot()
	for _, v := range []int64{2, 4, 8} {
		h.Observe(v)
	}
	r.Counter("sim_steps_total").Add(40)
	cur := r.Snapshot()
	m := obs.MeasureDelta(prev, cur)
	if m.Metrics["sim_steps_total"] != 40 || m.Hists["txn_latency_steps"].Count != 3 {
		t.Errorf("measures = %v / %v, want the counter and histogram deltas", m.Metrics, m.Hists)
	}
	if m := obs.MeasureDelta(cur, cur); len(m.Metrics) != 0 || len(m.Hists) != 0 {
		t.Errorf("identical snapshots produced measures %+v, want none", m)
	}
}

// TestTrialsBelowOneExitTwo runs main in a child process: a sweep with
// no trials per cell must exit with status 2 and a message naming the
// flag, not print an all-zero table under passing checks.
func TestTrialsBelowOneExitTwo(t *testing.T) {
	if args, ok := os.LookupEnv("DTMBENCH_TEST_MAIN_ARGS"); ok {
		os.Args = append([]string{"dtmbench"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, args := range []string{"-quick -only E1 -trials 0", "-quick -only E1 -trials -1"} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestTrialsBelowOneExitTwo$")
		cmd.Env = append(os.Environ(), "DTMBENCH_TEST_MAIN_ARGS="+args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("dtmbench %s: %v, want exit status 2\n%s", args, err, out)
			continue
		}
		if !strings.Contains(string(out), "-trials") || strings.Contains(string(out), "PASS") {
			t.Errorf("dtmbench %s: output %q, want a -trials message and no table", args, out)
		}
	}
}
