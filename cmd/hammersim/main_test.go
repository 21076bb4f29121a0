package main

import (
	"context"
	"encoding/json"
	"hammertime/internal/cliutil"

	"os"
	"strings"
	"testing"
)

// silence redirects stdout during a test body so table output does not
// pollute the test log.
func silence(t *testing.T) {
	t.Helper()
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	t.Cleanup(func() {
		os.Stdout = old
		if err := devnull.Close(); err != nil {
			t.Error(err)
		}
	})
}

func TestAttackByName(t *testing.T) {
	cases := map[string]struct {
		sided int
		dma   bool
		err   bool
	}{
		"single":  {sided: 1},
		"double":  {sided: 2},
		"dma":     {sided: 2, dma: true},
		"many:12": {sided: 12},
		"many:2":  {err: true},
		"many:x":  {err: true},
		"bogus":   {err: true},
	}
	for name, want := range cases {
		kind, err := attackByName(name)
		if want.err {
			if err == nil {
				t.Errorf("%s: expected error", name)
			}
			continue
		}
		if err != nil {
			t.Errorf("%s: %v", name, err)
			continue
		}
		if kind.Sided != want.sided || kind.DMA != want.dma {
			t.Errorf("%s: got %+v", name, kind)
		}
	}
}

func TestProfileByName(t *testing.T) {
	for _, name := range []string{"ddr3", "ddr4-old", "ddr4-new", "lpddr4", "future"} {
		if _, err := profileByName(name); err != nil {
			t.Errorf("%s: %v", name, err)
		}
	}
	if _, err := profileByName("ddr9"); err == nil {
		t.Error("unknown profile accepted")
	}
}

func TestRunEndToEnd(t *testing.T) {
	silence(t)
	if err := run(context.Background(), "none", "double", "lpddr4", 1_000_000, 3, 48, 1, false, true, "", "", cliutil.ObsFlags{}, cliutil.RobustFlags{}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "subarray", "dma", "lpddr4", 1_000_000, 3, 48, 1, false, false, "", "", cliutil.ObsFlags{}, cliutil.RobustFlags{}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "none", "double", "lpddr4", 500_000, 2, 16, 1, true, false, "", "", cliutil.ObsFlags{}, cliutil.RobustFlags{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunRejectsBadArgs(t *testing.T) {
	silence(t)
	if err := run(context.Background(), "bogus", "double", "lpddr4", 1000, 3, 16, 1, false, false, "", "", cliutil.ObsFlags{}, cliutil.RobustFlags{}); err == nil {
		t.Fatal("unknown defense accepted")
	}
	if err := run(context.Background(), "none", "bogus", "lpddr4", 1000, 3, 16, 1, false, false, "", "", cliutil.ObsFlags{}, cliutil.RobustFlags{}); err == nil {
		t.Fatal("unknown attack accepted")
	}
	if err := run(context.Background(), "none", "double", "bogus", 1000, 3, 16, 1, false, false, "", "", cliutil.ObsFlags{}, cliutil.RobustFlags{}); err == nil {
		t.Fatal("unknown profile accepted")
	}
}

func TestRunTraceRecordReplay(t *testing.T) {
	silence(t)
	dir := t.TempDir()
	out := dir + "/attack.jsonl"
	if err := run(context.Background(), "none", "double", "lpddr4", 500_000, 2, 16, 1, false, false, out, "", cliutil.ObsFlags{}, cliutil.RobustFlags{}); err != nil {
		t.Fatal(err)
	}
	if fi, err := os.Stat(out); err != nil || fi.Size() == 0 {
		t.Fatalf("trace not written: %v", err)
	}
	// Replay the recorded attack against a different defense.
	if err := run(context.Background(), "swrefresh", "double", "lpddr4", 500_000, 2, 16, 1, false, false, "", out, cliutil.ObsFlags{}, cliutil.RobustFlags{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunObservabilityFlags(t *testing.T) {
	silence(t)
	dir := t.TempDir()
	traceFile := dir + "/events.json"
	metricsFile := dir + "/metrics.json"
	flags := cliutil.ObsFlags{TraceEvents: traceFile, TraceFormat: "chrome", MetricsOut: metricsFile}
	if err := run(context.Background(), "swrefresh", "double", "lpddr4", 2_000_000, 2, 32, 1, false, false, "", "", flags, cliutil.RobustFlags{}); err != nil {
		t.Fatal(err)
	}

	// The trace must be valid Chrome trace-event JSON with ACT events on
	// at least two banks plus REF and defense-trigger events.
	data, err := os.ReadFile(traceFile)
	if err != nil {
		t.Fatal(err)
	}
	var tracefile struct {
		TraceEvents []struct {
			Name string `json:"name"`
			Pid  int    `json:"pid"`
			Tid  int    `json:"tid"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &tracefile); err != nil {
		t.Fatalf("trace is not valid Chrome trace JSON: %v", err)
	}
	actBanks := map[int]bool{}
	kinds := map[string]int{}
	for _, ev := range tracefile.TraceEvents {
		kinds[ev.Name]++
		if ev.Name == "act" {
			actBanks[ev.Tid] = true
		}
	}
	if len(actBanks) < 2 {
		t.Errorf("ACT events cover %d banks, want >= 2", len(actBanks))
	}
	if kinds["ref"] == 0 || kinds["defense-trigger"] == 0 {
		t.Errorf("missing event kinds: %v", kinds)
	}

	// The metrics dump must parse and include at least one histogram.
	data, err = os.ReadFile(metricsFile)
	if err != nil {
		t.Fatal(err)
	}
	var snap struct {
		Histograms []struct {
			Name  string `json:"name"`
			Count uint64 `json:"count"`
		} `json:"histograms"`
	}
	if err := json.Unmarshal(data, &snap); err != nil {
		t.Fatalf("metrics are not valid JSON: %v", err)
	}
	if len(snap.Histograms) == 0 {
		t.Fatal("metrics JSON has no histograms")
	}
	populated := false
	for _, h := range snap.Histograms {
		if h.Count > 0 {
			populated = true
		}
	}
	if !populated {
		t.Errorf("all histograms empty: %+v", snap.Histograms)
	}
}

func TestRunRejectsBadTraceFormat(t *testing.T) {
	silence(t)
	flags := cliutil.ObsFlags{TraceEvents: t.TempDir() + "/x", TraceFormat: "bogus"}
	if err := run(context.Background(), "none", "double", "lpddr4", 1000, 2, 16, 1, false, false, "", "", flags, cliutil.RobustFlags{}); err == nil {
		t.Fatal("unknown trace format accepted")
	}
}

func TestRunFailSoftDegradesInsteadOfAborting(t *testing.T) {
	silence(t)
	faults := "cell.panic=sim/0"
	// Strict: the contained panic still fails the run.
	if err := run(context.Background(), "none", "double", "lpddr4", 200_000, 2, 16, 1, false, false, "", "", cliutil.ObsFlags{}, cliutil.RobustFlags{Faults: faults}); err == nil {
		t.Fatal("injected panic did not fail the strict run")
	}
	// Fail-soft: the scenario degrades to an ERR line and exit code 0.
	if err := run(context.Background(), "none", "double", "lpddr4", 200_000, 2, 16, 1, false, false, "", "", cliutil.ObsFlags{}, cliutil.RobustFlags{FailSoft: true, Faults: faults}); err != nil {
		t.Fatalf("fail-soft run returned %v", err)
	}
}

func TestRunRetriesRecoverTransientFailure(t *testing.T) {
	silence(t)
	robust := cliutil.RobustFlags{Retries: 1, Faults: "cell.once=sim/0"}
	if err := run(context.Background(), "none", "double", "lpddr4", 200_000, 2, 16, 1, false, false, "", "", cliutil.ObsFlags{}, robust); err != nil {
		t.Fatalf("one retry did not recover the transient failure: %v", err)
	}
}

// TestRunRejectsBadFaults: a malformed cell fault, or a fault at a site
// hammersim does not run, fails startup instead of running unarmed.
func TestRunRejectsBadFaults(t *testing.T) {
	silence(t)
	for _, spec := range []string{
		"cell.error=sim/x", // non-numeric index
		"cell.error=sim",   // missing index
		"cell.pnic=sim/0",  // unknown mode
		"rpc.drop:0.1",     // a site hammersim does not run
	} {
		robust := cliutil.RobustFlags{Faults: spec}
		err := run(context.Background(), "none", "double", "lpddr4", 200_000, 2, 16, 1, false, false, "", "", cliutil.ObsFlags{}, robust)
		if err == nil || !strings.Contains(err.Error(), "fault") {
			t.Errorf("-faults %q: got %v, want a startup error", spec, err)
		}
	}
}
