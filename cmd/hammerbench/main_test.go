package main

import (
	"context"
	"hammertime/internal/cliutil"

	"os"
	"strings"
	"testing"
	"time"
)

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

func TestRunSingleExperiment(t *testing.T) {
	silence(t)
	// E7 is the cheapest experiment; both render paths.
	if err := run(context.Background(), "e7", 0, false, 0, cliutil.ObsFlags{}, cliutil.RobustFlags{}); err != nil {
		t.Fatal(err)
	}
	if err := run(context.Background(), "e7", 0, true, 0, cliutil.ObsFlags{}, cliutil.RobustFlags{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunWithHorizonOverride(t *testing.T) {
	silence(t)
	if err := run(context.Background(), "e8", 1_000_000, false, 0, cliutil.ObsFlags{}, cliutil.RobustFlags{}); err != nil {
		t.Fatal(err)
	}
}

func TestRunUnknownExperiment(t *testing.T) {
	silence(t)
	if err := run(context.Background(), "e99", 0, false, 0, cliutil.ObsFlags{}, cliutil.RobustFlags{}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
}

func TestRunFailSoftInjectedFailure(t *testing.T) {
	silence(t)
	faults := "cell.panic=e7/1"
	// Strict: the injected per-cell panic aborts the run.
	if err := run(context.Background(), "e7", 0, false, 0, cliutil.ObsFlags{}, cliutil.RobustFlags{Faults: faults}); err == nil {
		t.Fatal("injected cell failure did not abort the strict run")
	}
	// Fail-soft: the run completes; the cell renders as ERR(...).
	if err := run(context.Background(), "e7", 0, false, 0, cliutil.ObsFlags{}, cliutil.RobustFlags{FailSoft: true, Faults: faults}); err != nil {
		t.Fatalf("fail-soft run aborted: %v", err)
	}
}

func TestRunResumeCheckpoint(t *testing.T) {
	silence(t)
	ckpt := t.TempDir() + "/e7.ckpt"
	// First run dies on an injected failure; completed cells persist.
	failing := cliutil.RobustFlags{Resume: ckpt, Faults: "cell.error=e7/3"}
	if err := run(context.Background(), "e7", 0, false, 0, cliutil.ObsFlags{}, failing); err == nil {
		t.Fatal("injected cell failure did not abort the strict run")
	}
	fi, err := os.Stat(ckpt)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
	// Restart without the fault resumes and completes.
	if err := run(context.Background(), "e7", 0, false, 0, cliutil.ObsFlags{}, cliutil.RobustFlags{Resume: ckpt}); err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
}

func TestRunRejectsBadRobustFlags(t *testing.T) {
	silence(t)
	if err := run(context.Background(), "e7", 0, false, 0, cliutil.ObsFlags{}, cliutil.RobustFlags{Retries: -1}); err == nil {
		t.Fatal("negative retries accepted")
	}
	if err := run(context.Background(), "e7", 0, false, 0, cliutil.ObsFlags{}, cliutil.RobustFlags{CellTimeout: -time.Second}); err == nil {
		t.Fatal("negative cell-timeout accepted")
	}
}

// TestRunRejectsBadFaults: a malformed cell fault, or a fault at a site
// hammerbench does not run, fails startup instead of running unarmed.
func TestRunRejectsBadFaults(t *testing.T) {
	silence(t)
	for _, spec := range []string{
		"cell.error=e7/x", // non-numeric index
		"cell.error=e7",   // missing index
		"cell.pnic=e7/1",  // unknown mode
		"serve.panic:0.1", // a site hammerbench does not run
	} {
		err := run(context.Background(), "e7", 0, false, 0, cliutil.ObsFlags{}, cliutil.RobustFlags{Faults: spec})
		if err == nil || !strings.Contains(err.Error(), "fault") {
			t.Errorf("-faults %q: got %v, want a startup error", spec, err)
		}
	}
}
