package main

import (
	"errors"
	"math"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"

	"dtmsched/internal/obs"
)

// anyTiming judges two runs' counts while letting their wall times
// differ by any amount.
var anyTiming = obs.Thresholds{Time: math.Inf(1)}

// TestServeSmoke drains a short seeded stream through the in-process
// serve command, then checks the ledger record it appends (stream
// counters, window-latency distribution) and the Prometheus exposition
// it dumps, and gates the ledger against itself.
func TestServeSmoke(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "serve.jsonl")
	prom := filepath.Join(dir, "serve.prom")

	args := []string{"-topo", "line", "-n", "12", "-w", "4", "-rate", "0.6",
		"-txns", "120", "-window", "4", "-queue", "6", "-policy", "reject",
		"-seed", "7", "-ledger", ledger, "-prom", prom}
	if err := runServeCmd(args); err != nil {
		t.Fatal(err)
	}
	// Same flags, same seed: the second run must append a record with an
	// identical fingerprint and identical deterministic counters.
	if err := runServeCmd(args); err != nil {
		t.Fatal(err)
	}

	recs, err := obs.ReadLedgerFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("two serve runs wrote %d records, want 2", len(recs))
	}
	a, b := recs[0], recs[1]
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("same flags, different fingerprints: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	if rep := obs.Compare(recs[:1], recs[1:], anyTiming); !rep.Pass() {
		t.Errorf("same seed, different counts: %d metrics changed", rep.Regressions)
	}
	admitted, committed := a.Metrics["stream_admitted_total"], a.Metrics["stream_committed_total"]
	if admitted == 0 || admitted != committed {
		t.Errorf("admitted %g must be nonzero and equal committed %g", admitted, committed)
	}
	windows, peak := a.Metrics["stream_windows_total"], a.Metrics["stream_queue_depth_peak"]
	if a.Metrics["stream_rejected_total"] == 0 || windows < 2 || peak < 1 || peak > 6 {
		t.Errorf("implausible stream shape: %v", a.Metrics)
	}
	if h := a.Hists["stream_window_latency_steps"]; h == nil || float64(h.Count) != windows {
		t.Errorf("window latency distribution missing or mismatched: %+v", h)
	}
	if h := a.Hists["stream_txn_response_steps"]; h == nil || float64(h.Count) != committed {
		t.Errorf("response distribution missing or mismatched: %+v", h)
	}

	if code := runBenchCmd([]string{"gate", ledger, ledger}); code != 0 {
		t.Errorf("gating a serve ledger against itself exited %d, want 0", code)
	}

	text, err := os.ReadFile(prom)
	if err != nil {
		t.Fatal(err)
	}
	for _, metric := range []string{"stream_admitted_total", "stream_rejected_total",
		"stream_committed_total", "stream_windows_total", "stream_queue_depth_peak",
		"stream_window_latency_steps_bucket", "stream_txn_response_steps_bucket"} {
		if !strings.Contains(string(text), metric) {
			t.Errorf("prom exposition missing %s", metric)
		}
	}
}

// TestServeChaosSmoke runs the serve command under chaos injection twice
// with one seed and checks the run is deterministic, the health layer
// engages, and the ledger record carries the fault counters with a
// fingerprint distinct from the fault-free run of the same flags.
func TestServeChaosSmoke(t *testing.T) {
	dir := t.TempDir()
	ledger := filepath.Join(dir, "chaos.jsonl")
	base := []string{"-topo", "clique", "-n", "12", "-w", "6", "-rate", "1.2",
		"-txns", "150", "-window", "6", "-queue", "12", "-policy", "block",
		"-seed", "7", "-ledger", ledger}
	chaos := append(append([]string{}, base...), "-faults", "0.25,99")
	if err := runServeCmd(chaos); err != nil {
		t.Fatal(err)
	}
	if err := runServeCmd(chaos); err != nil {
		t.Fatal(err)
	}
	if err := runServeCmd(base); err != nil {
		t.Fatal(err)
	}
	recs, err := obs.ReadLedgerFile(ledger)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("got %d records, want 3", len(recs))
	}
	a, b, clean := recs[0], recs[1], recs[2]
	if a.Fingerprint != b.Fingerprint {
		t.Errorf("same chaos flags, different fingerprints: %s vs %s", a.Fingerprint, b.Fingerprint)
	}
	if rep := obs.Compare(recs[:1], recs[1:2], anyTiming); !rep.Pass() {
		t.Errorf("chaos run not deterministic: %d metrics changed", rep.Regressions)
	}
	m := a.Metrics
	if m["stream_requeue_total"] == 0 {
		t.Errorf("25%% chaos never requeued a transaction: %v", m)
	}
	if m["stream_admitted_total"] != m["stream_committed_total"]+m["stream_shed_total"] {
		t.Errorf("admitted %g != committed %g + shed %g",
			m["stream_admitted_total"], m["stream_committed_total"], m["stream_shed_total"])
	}
	if clean.Fingerprint == a.Fingerprint {
		t.Error("chaos and fault-free runs share a ledger fingerprint")
	}
	for _, name := range []string{"stream_requeue_total", "stream_shed_total", "stream_fault_degraded_total"} {
		if v, ok := clean.Metrics[name]; ok {
			t.Errorf("fault-free record carries %s = %g", name, v)
		}
	}
	if code := runBenchCmd([]string{"gate", ledger, ledger}); code != 0 {
		t.Errorf("gating the chaos ledger against itself exited %d, want 0", code)
	}
}

// TestServeFlagErrors covers the flag validation paths.
func TestServeFlagErrors(t *testing.T) {
	for name, args := range map[string][]string{
		"topo":     {"-topo", "mobius"},
		"workload": {"-workload", "nope"},
		"policy":   {"-policy", "drop"},
		"verify":   {"-verify", "maybe"},
		"faults":   {"-faults", "1.5"},
		"faults2":  {"-faults", "0.1,zz"},
		"shed":     {"-shed", "-1"},
	} {
		if err := runServeCmd(append(args, "-txns", "5")); err == nil {
			t.Errorf("%s: bad flag accepted", name)
		}
	}
}

// TestBadSizesExitTwo runs the binary's main in a child process for size
// and rate flags that used to panic inside a constructor: each must exit
// with status 2 and a one-line message naming the bad flag, never a
// goroutine dump.
func TestBadSizesExitTwo(t *testing.T) {
	if args, ok := os.LookupEnv("DTMSCHED_TEST_MAIN_ARGS"); ok {
		os.Args = append([]string{"dtmsched"}, strings.Fields(args)...)
		main()
		os.Exit(0)
	}
	for _, c := range []struct{ args, msg string }{
		{"serve -rate -1", "injection rate -1"},
		{"serve -rate 0 -faults 0.1", "injection rate 0"},
		{"serve -txns 0", "stream limit 0"},
		{"serve -topo clique -n 0", "clique -n 0"},
		{"-topo clique -n 0", "clique -n 0"},
		{"serve -topo line -n -3", "line -n -3"},
		{"serve -topo grid -side 0", "grid -side 0"},
		{"serve -topo torus -side 2", "torus -side 2"},
		{"serve -topo hypercube -dim -1", "hypercube -dim -1"},
		{"serve -topo butterfly -dim 0", "butterfly -dim 0"},
		{"serve -topo cluster -alpha 0", "cluster -alpha 0"},
		{"serve -topo cluster -gamma 0", "cluster -gamma 0"},
		{"serve -topo star -beta 0", "star -beta 0"},
		{"serve -w 4 -k 20", "-w 4 -k 20"},
		{"-w 3 -k 9", "-w 3 -k 9"},
	} {
		cmd := exec.Command(os.Args[0], "-test.run=^TestBadSizesExitTwo$")
		cmd.Env = append(os.Environ(), "DTMSCHED_TEST_MAIN_ARGS="+c.args)
		out, err := cmd.CombinedOutput()
		var exit *exec.ExitError
		if !errors.As(err, &exit) || exit.ExitCode() != 2 {
			t.Errorf("dtmsched %s: %v, want exit status 2\n%s", c.args, err, out)
			continue
		}
		if strings.Contains(string(out), "goroutine ") || !strings.Contains(string(out), c.msg) {
			t.Errorf("dtmsched %s: output %q, want a message containing %q and no panic", c.args, out, c.msg)
		}
	}
}
