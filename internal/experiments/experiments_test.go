package experiments

import (
	"testing"
)

func TestRegistryComplete(t *testing.T) {
	want := []string{"E1", "E10", "E11", "E12", "E13", "E14", "E15", "E16", "E17", "E18", "E19", "E2", "E20", "E21", "E22", "E23", "E3", "E4", "E5", "E6", "E7", "E8", "E9"}
	all := All()
	if len(all) != len(want) {
		t.Fatalf("registry has %d experiments, want %d", len(all), len(want))
	}
	for i, e := range all {
		if e.ID != want[i] {
			t.Fatalf("registry[%d] = %s, want %s", i, e.ID, want[i])
		}
		if e.Run == nil || e.Title == "" || e.Ref == "" {
			t.Fatalf("experiment %s incomplete", e.ID)
		}
	}
}

func TestByID(t *testing.T) {
	if _, ok := ByID("E5"); !ok {
		t.Fatal("E5 missing")
	}
	if _, ok := ByID("E99"); ok {
		t.Fatal("E99 should not exist")
	}
}

// TestAllExperimentsQuick is the integration test of the whole harness:
// every experiment runs in quick mode with one trial and every shape check
// derived from the paper's theorems must pass.
func TestAllExperimentsQuick(t *testing.T) {
	if testing.Short() {
		t.Skip("quick experiment sweep still takes a few seconds")
	}
	cfg := DefaultConfig()
	cfg.Quick = true
	cfg.Trials = 1
	for _, e := range All() {
		e := e
		t.Run(e.ID, func(t *testing.T) {
			res, err := e.Run(cfg)
			if err != nil {
				t.Fatalf("%s: %v", e.ID, err)
			}
			if res.Table.NumRows() == 0 {
				t.Fatalf("%s produced an empty table", e.ID)
			}
			for _, c := range res.Failed() {
				t.Errorf("%s check failed: %s — %s", e.ID, c.Name, c.Detail)
			}
		})
	}
}

func TestCellRatio(t *testing.T) {
	c := cell{Makespan: 10}
	if c.Ratio() != 0 {
		t.Fatal("zero bound should give ratio 0")
	}
}

func TestCheckf(t *testing.T) {
	c := checkf("name", true, "x=%d", 4)
	if !c.OK || c.Detail != "x=4" {
		t.Fatalf("checkf = %+v", c)
	}
}

// TestNoTrialsNoChecks: a sweep cell with no jobs fails the sweep before
// anything runs, and no experiment runs at all without trials, so no
// theorem check can pass over an empty cell.
func TestNoTrialsNoChecks(t *testing.T) {
	sw := newSweep(DefaultConfig())
	sw.endCell()
	if _, err := sw.run(); err == nil {
		t.Error("a sweep with an empty cell ran")
	}
	cfg := DefaultConfig()
	cfg.Quick = true
	for _, trials := range []int{0, -1} {
		cfg.Trials = trials
		for _, e := range All() {
			if res, err := e.Run(cfg); err == nil {
				t.Errorf("%s with Trials = %d returned %d checks, want an error", e.ID, trials, len(res.Checks))
			}
		}
	}
}
