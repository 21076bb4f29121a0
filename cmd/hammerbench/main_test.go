package main

import (
	"context"
	"hammertime/internal/cliutil"

	"os"
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
	t.Setenv("HAMMERTIME_FAIL_CELL", "e7:1:panic")
	// Strict: the injected per-cell panic aborts the run.
	if err := run(context.Background(), "e7", 0, false, 0, cliutil.ObsFlags{}, cliutil.RobustFlags{}); err == nil {
		t.Fatal("injected cell failure did not abort the strict run")
	}
	// Fail-soft: the run completes; the cell renders as ERR(...).
	if err := run(context.Background(), "e7", 0, false, 0, cliutil.ObsFlags{}, cliutil.RobustFlags{FailSoft: true}); err != nil {
		t.Fatalf("fail-soft run aborted: %v", err)
	}
}

func TestRunResumeCheckpoint(t *testing.T) {
	silence(t)
	ckpt := t.TempDir() + "/e7.ckpt"
	// First run dies on an injected failure; completed cells persist.
	t.Setenv("HAMMERTIME_FAIL_CELL", "e7:3:error")
	if err := run(context.Background(), "e7", 0, false, 0, cliutil.ObsFlags{}, cliutil.RobustFlags{Resume: ckpt}); err == nil {
		t.Fatal("injected cell failure did not abort the strict run")
	}
	fi, err := os.Stat(ckpt)
	if err != nil || fi.Size() == 0 {
		t.Fatalf("interrupted run left no checkpoint: %v", err)
	}
	// Restart with the same flags resumes and completes.
	t.Setenv("HAMMERTIME_FAIL_CELL", "")
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
