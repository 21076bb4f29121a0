package harness

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"hammertime/internal/report"
)

func TestCheckpointResumeSkipsCompletedCells(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	spec := GridSpec{ID: "t-ck", Config: "c1"}

	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	fn := func(_ context.Context, i int) (int, error) {
		calls.Add(1)
		return 3 * i, nil
	}
	run := runGrid(under(Run{Checkpoint: ck, Workers: 1}), spec, 5, fn)
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	if run.Restored != 0 || calls.Load() != 5 || ck.Added() != 5 {
		t.Fatalf("first run: restored=%d calls=%d added=%d", run.Restored, calls.Load(), ck.Added())
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Loaded() != 5 {
		t.Fatalf("reopened checkpoint holds %d cells, want 5", ck2.Loaded())
	}
	ctx := under(Run{Checkpoint: ck2, Workers: 1})
	calls.Store(0)
	again := runGrid(ctx, spec, 5, fn)
	if err := again.Err(); err != nil {
		t.Fatal(err)
	}
	if again.Restored != 5 || calls.Load() != 0 {
		t.Fatalf("resume: restored=%d calls=%d, want 5 and 0", again.Restored, calls.Load())
	}
	for i := range again.Results {
		if again.Results[i] != run.Results[i] {
			t.Fatalf("cell %d: restored %d, computed %d", i, again.Results[i], run.Results[i])
		}
	}

	// A different config must never restore the stale cells.
	other := runGrid(ctx, GridSpec{ID: "t-ck", Config: "c2"}, 5, fn)
	if err := other.Err(); err != nil {
		t.Fatal(err)
	}
	if other.Restored != 0 || calls.Load() != 5 {
		t.Fatalf("config change: restored=%d calls=%d, want 0 and 5", other.Restored, calls.Load())
	}

	// Anonymous grids (empty ID) never touch the checkpoint.
	calls.Store(0)
	anon := runGrid(ctx, GridSpec{}, 3, fn)
	if err := anon.Err(); err != nil {
		t.Fatal(err)
	}
	if anon.Restored != 0 || calls.Load() != 3 {
		t.Fatalf("anonymous grid: restored=%d calls=%d", anon.Restored, calls.Load())
	}
}

// TestContextCheckpointScoped pins the per-job checkpoint path used by
// hammerd's durable job store: a grid consults and appends to the
// checkpoint of its context's Run and no other, so concurrent daemon
// jobs each resume from their own file instead of sharing (and
// clobbering) one checkpoint.
func TestContextCheckpointScoped(t *testing.T) {
	dir := t.TempDir()
	spec := GridSpec{ID: "t-ctxck", Config: "c1"}

	// Another job's checkpoint, open at the same time.
	other, err := OpenCheckpoint(filepath.Join(dir, "job-2.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer other.Close()

	jobPath := filepath.Join(dir, "job-1.ckpt")
	jobCk, err := OpenCheckpoint(jobPath)
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	fn := func(_ context.Context, i int) (int, error) {
		calls.Add(1)
		return 7 * i, nil
	}
	if err := runGrid(under(Run{Checkpoint: jobCk, Workers: 1}), spec, 4, fn).Err(); err != nil {
		t.Fatal(err)
	}
	if jobCk.Added() != 4 {
		t.Fatalf("the run's checkpoint recorded %d cells, want 4", jobCk.Added())
	}
	if other.Added() != 0 {
		t.Fatalf("another run's checkpoint received %d cells", other.Added())
	}
	if err := jobCk.Close(); err != nil {
		t.Fatal(err)
	}

	// A restarted job reopens its own file and resumes without
	// recomputing; the other job's checkpoint is still untouched.
	jobCk2, err := OpenCheckpoint(jobPath)
	if err != nil {
		t.Fatal(err)
	}
	defer jobCk2.Close()
	calls.Store(0)
	again := runGrid(under(Run{Checkpoint: jobCk2, Workers: 1}), spec, 4, fn)
	if err := again.Err(); err != nil {
		t.Fatal(err)
	}
	if again.Restored != 4 || calls.Load() != 0 {
		t.Fatalf("resume via context: restored=%d calls=%d, want 4 and 0", again.Restored, calls.Load())
	}
	if other.Added() != 0 {
		t.Fatalf("another run's checkpoint gained %d cells on resume", other.Added())
	}
	// A Run without a checkpoint neither restores nor records.
	calls.Store(0)
	plain := runGrid(under(Run{Workers: 1}), spec, 4, fn)
	if plain.Restored != 0 || calls.Load() != 4 || jobCk2.Added() != 0 {
		t.Fatalf("checkpoint-free run: restored=%d calls=%d added=%d, want 0, 4 and 0",
			plain.Restored, calls.Load(), jobCk2.Added())
	}
}

func TestCheckpointTrimsTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "grid.ckpt")
	spec := GridSpec{ID: "t-torn", Config: "v1"}

	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := runGrid(under(Run{Checkpoint: ck, Workers: 1}), spec, 4, func(_ context.Context, i int) (int, error) { return i, nil }).Err(); err != nil {
		t.Fatal(err)
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}

	// Simulate a SIGKILL mid-append: a record fragment without newline.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"key":"deadbeef","grid":"t-torn","ce`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	if ck2.Loaded() != 4 {
		t.Fatalf("loaded %d cells from torn file, want 4", ck2.Loaded())
	}
	if err := ck2.Close(); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(after, clean) {
		t.Fatalf("torn tail not trimmed:\n%q\nwant\n%q", after, clean)
	}

	// A corrupt full line likewise stops the load without failing it.
	if err := os.WriteFile(path, append(append([]byte{}, clean...), []byte("not json\n")...), 0o644); err != nil {
		t.Fatal(err)
	}
	ck3, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck3.Close()
	if ck3.Loaded() != 4 {
		t.Fatalf("loaded %d cells past a corrupt line, want 4", ck3.Loaded())
	}
}

// TestE1ResumeByteIdentical is the acceptance test of the checkpoint
// design: an E1 run killed mid-grid (here: aborted by an injected cell
// failure) and restarted with -resume must produce a table byte-identical
// to an uninterrupted run's.
func TestE1ResumeByteIdentical(t *testing.T) {
	defenses := []string{"none", "trr"}
	opts := AttackOpts{Horizon: 300_000, PagesPerTenant: 48}

	render := func(tb *report.Table) []byte {
		var buf bytes.Buffer
		if err := tb.Render(&buf); err != nil {
			t.Fatal(err)
		}
		return buf.Bytes()
	}

	// Baseline: uninterrupted, uncheckpointed.
	tb, err := E1Matrix(under(Run{Workers: 1}), defenses, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	want := render(tb)

	// Interrupted run: cell 5 fails (strict mode aborts the grid), but
	// cells completed before it are already checkpointed.
	path := filepath.Join(t.TempDir(), "e1.ckpt")
	ck, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	t.Setenv(failCellEnv, "e1:5:error")
	if _, err := E1Matrix(under(Run{Checkpoint: ck, Workers: 1}), defenses, 4, opts); err == nil {
		t.Fatal("injected failure did not abort the strict run")
	}
	if err := ck.Close(); err != nil {
		t.Fatal(err)
	}
	if ck.Added() == 0 {
		t.Fatal("interrupted run checkpointed no cells")
	}

	// Restart: the failpoint is gone, completed cells restore from the
	// checkpoint, the rest compute fresh.
	t.Setenv(failCellEnv, "")
	ck2, err := OpenCheckpoint(path)
	if err != nil {
		t.Fatal(err)
	}
	defer ck2.Close()
	if ck2.Loaded() != ck.Added() {
		t.Fatalf("restart loaded %d cells, interrupted run wrote %d", ck2.Loaded(), ck.Added())
	}
	tb2, err := E1Matrix(under(Run{Checkpoint: ck2, Workers: 1}), defenses, 4, opts)
	if err != nil {
		t.Fatal(err)
	}
	if got := render(tb2); !bytes.Equal(got, want) {
		t.Errorf("resumed table differs from uninterrupted run:\n--- resumed ---\n%s\n--- baseline ---\n%s", got, want)
	}
}
