package harness

import (
	"bytes"
	"context"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"hammertime/internal/fault"
)

// updateTables regenerates the experiment-table golden file instead of
// comparing against it:
//
//	go test ./internal/harness -run TestExperimentTablesGolden -update
var updateTables = flag.Bool("update", false, "rewrite testdata/experiments.golden with current output")

// goldenHorizon keeps the whole suite near a second. E7 and E9 ignore
// it: E7 runs no horizon and E9 runs its own three.
const goldenHorizon = 1_500_000

// tableOrder is the suite in the order hammerbench prints it.
var tableOrder = []string{"e1", "e2", "e3", "e4", "e5", "e6", "e7", "e8", "e9", "e10", "idle"}

// renderExperiment renders one experiment's table as hammerbench prints
// it, after a header naming what produced it, and returns the number of
// ERR(...) cells it holds.
func renderExperiment(t *testing.T, b *bytes.Buffer, ctx context.Context, id, header string) int {
	t.Helper()
	tb, err := Experiment(ctx, id, goldenHorizon, AttackOpts{})
	if err != nil {
		t.Fatalf("%s: %v", header, err)
	}
	fmt.Fprintf(b, "== %s ==\n", header)
	if err := tb.Render(b); err != nil {
		t.Fatal(err)
	}
	b.WriteByte('\n')
	return tb.DegradedCells()
}

// TestExperimentTablesGolden pins every table of the suite, plus each
// table's fail-soft rendering with its first cell failed, byte for byte.
// A failed cell renders exactly one ERR(...), so hammerbench's DEGRADED
// count is the number of cells that failed.
func TestExperimentTablesGolden(t *testing.T) {
	if ids := ExperimentIDs(); !slices.Equal(ids, tableOrder) {
		t.Fatalf("ExperimentIDs() = %v, want %v", ids, tableOrder)
	}
	var b bytes.Buffer
	for _, id := range tableOrder {
		if n := renderExperiment(t, &b, context.Background(), id, id); n != 0 {
			t.Errorf("%s: %d ERR cells without an injected failure", id, n)
		}
	}
	for _, id := range tableOrder {
		soft := under(Run{Policy: Policy{FailSoft: true}, Faults: fault.MustParse("cell.error=" + id + "/0")})
		if n := renderExperiment(t, &b, soft, id, id+" fail-soft, cell 0 failed"); n != 1 {
			t.Errorf("%s: one failed cell rendered %d ERR cells, want 1", id, n)
		}
	}
	path := filepath.Join("testdata", "experiments.golden")
	if *updateTables {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	golden, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run `go test ./internal/harness -run TestExperimentTablesGolden -update` to generate)", err)
	}
	if !bytes.Equal(b.Bytes(), golden) {
		t.Errorf("experiment tables drifted from %s:\n--- got ---\n%s--- want ---\n%s", path, b.Bytes(), golden)
	}
}
