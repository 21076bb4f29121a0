package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"hammertime/internal/harness"
)

// buildHammerbench compiles the real binary so the test exercises the
// actual signal path (signal.NotifyContext -> context -> grid teardown),
// not an in-process approximation.
func buildHammerbench(t *testing.T) string {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hammerbench")
	cmd := exec.Command("go", "build", "-o", bin, ".")
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	return bin
}

// TestSIGTERMLeavesResumableCheckpoint is the satellite regression test
// for interrupted grids: a SIGTERM mid-grid must exit nonzero but leave
// a non-torn checkpoint — one that OpenCheckpoint parses cleanly and a
// restart with identical flags resumes to completion — and the partial
// -metrics-out report of the cells it computed.
func TestSIGTERMLeavesResumableCheckpoint(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	bin := buildHammerbench(t)
	ckpt := filepath.Join(t.TempDir(), "e1.ckpt")
	// Serial cells at this horizon take ~0.5s each over a ~14-cell grid:
	// slow enough to land the signal mid-grid, fast enough to resume.
	args := []string{"-experiment", "e1", "-horizon", "40000000", "-parallel", "1", "-resume", ckpt}

	metrics := filepath.Join(t.TempDir(), "bench.json")
	var stderr bytes.Buffer
	cmd := exec.Command(bin, append(args, "-metrics-out", metrics)...)
	cmd.Stderr = &stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}

	// Wait for at least one completed cell to be checkpointed, then
	// interrupt the grid.
	deadline := time.Now().Add(60 * time.Second)
	for {
		if fi, err := os.Stat(ckpt); err == nil && fi.Size() > 0 {
			break
		}
		if time.Now().After(deadline) {
			cmd.Process.Kill()
			t.Fatalf("no checkpoint appeared; stderr:\n%s", stderr.String())
		}
		time.Sleep(20 * time.Millisecond)
	}
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	err := cmd.Wait()
	if err == nil {
		t.Fatalf("SIGTERM'd run exited 0; a partial grid must not pass for a complete one\nstderr:\n%s", stderr.String())
	}
	if ee, ok := err.(*exec.ExitError); !ok || ee.ExitCode() != 1 {
		t.Fatalf("want exit code 1, got %v", err)
	}
	if !strings.Contains(stderr.String(), "interrupted") {
		t.Fatalf("stderr does not attribute the failure to the interrupt:\n%s", stderr.String())
	}

	// Non-torn: the checkpoint parses cleanly with completed cells.
	ck, err := harness.OpenCheckpoint(ckpt)
	if err != nil {
		t.Fatalf("SIGTERM left a torn checkpoint: %v", err)
	}
	loaded := ck.Loaded()
	if cerr := ck.Close(); cerr != nil {
		t.Fatal(cerr)
	}
	if loaded == 0 {
		t.Fatal("checkpoint parsed but holds no completed cells")
	}
	data, err := os.ReadFile(metrics)
	if err != nil {
		t.Fatalf("SIGTERM left no metrics report: %v", err)
	}
	var rep BenchReport
	if err := json.Unmarshal(data, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Experiments) != 1 || rep.Experiments[0].ID != "e1" || len(rep.Experiments[0].Cells) < loaded {
		t.Fatalf("partial report does not list the %d checkpointed cells: %s", loaded, data)
	}

	// Resumable: the same flags skip the completed cells and finish.
	var stderr2 bytes.Buffer
	resume := exec.Command(bin, args...)
	resume.Stderr = &stderr2
	if out, err := resume.Output(); err != nil {
		t.Fatalf("resumed run failed: %v\nstderr:\n%s", err, stderr2.String())
	} else if !strings.Contains(string(out), "E1") {
		t.Fatalf("resumed run produced no E1 table:\n%s", out)
	}
	t.Logf("interrupted with %d cells checkpointed; resume completed", loaded)
}
