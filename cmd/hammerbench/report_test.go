package main

import (
	"bytes"
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"hammertime/internal/cliutil"
	"hammertime/internal/harness"
)

// readReport runs hammerbench with -metrics-out and decodes the report,
// returning it with the raw JSON.
func readReport(t *testing.T, experiment string, horizon uint64, robust cliutil.RobustFlags) (BenchReport, []byte) {
	t.Helper()
	path := filepath.Join(t.TempDir(), "bench.json")
	if err := run(context.Background(), experiment, horizon, false, 2, cliutil.ObsFlags{MetricsOut: path}, robust); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	return rep, data
}

// TestReportFromSpans checks the BENCH_harness.json shape read from the
// spans: the header, one entry per computed cell with distinct indices,
// and the experiment's events/sec. A rerun that restores every cell from
// its checkpoint computes none and lists none.
func TestReportFromSpans(t *testing.T) {
	silence(t)
	ckpt := filepath.Join(t.TempDir(), "e7.ckpt")
	rep, data := readReport(t, "e7", 0, cliutil.RobustFlags{Resume: ckpt})
	ck, err := harness.OpenCheckpoint(ckpt)
	if err != nil {
		t.Fatal(err)
	}
	computed := ck.Loaded()
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	if rep.Name != "hammerbench" || rep.GoOS == "" || rep.CPUs <= 0 || rep.Parallelism != 2 {
		t.Fatalf("report header = %+v", rep)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("experiments = %+v", rep.Experiments)
	}
	e := rep.Experiments[0]
	if e.ID != "e7" || e.WallNS <= 0 || rep.TotalWallNS != e.WallNS || e.Events == 0 || e.EventsPerSec <= 0 {
		t.Fatalf("experiment = %+v", e)
	}
	seen := map[int]bool{}
	for _, cell := range e.Cells {
		if cell.WallNS <= 0 {
			t.Errorf("cell %d has wall_ns %d", cell.Index, cell.WallNS)
		}
		seen[cell.Index] = true
	}
	if computed == 0 || len(e.Cells) != computed || len(seen) != computed {
		t.Fatalf("%d cells with %d distinct indices, want the %d computed: %+v", len(e.Cells), len(seen), computed, e.Cells)
	}
	for _, key := range []string{`"name"`, `"experiments"`, `"wall_ns"`, `"events_per_sec"`, `"cells"`, `"index"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("report JSON missing %s: %s", key, data)
		}
	}

	rep, _ = readReport(t, "e7", 0, cliutil.RobustFlags{Resume: ckpt})
	if n := len(rep.Experiments[0].Cells); n != 0 {
		t.Fatalf("a fully restored run lists %d cells, want 0", n)
	}
}

// TestReportCountsEveryExperiment checks that every experiment reports
// simulated events and its computed cells: E4's benign cells as well as
// the attack cells, and E7, whose cells drive the controller directly
// instead of running a machine.
func TestReportCountsEveryExperiment(t *testing.T) {
	silence(t)
	rep, _ := readReport(t, "all", 200_000, cliutil.RobustFlags{})
	if got, want := len(rep.Experiments), len(harness.ExperimentIDs()); got != want {
		t.Fatalf("report lists %d experiments, want %d", got, want)
	}
	for _, e := range rep.Experiments {
		if e.Events == 0 || len(e.Cells) == 0 {
			t.Errorf("%s reported %d events over %d cells", e.ID, e.Events, len(e.Cells))
		}
	}
}
