package harness

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"strconv"
	"strings"
	"testing"
)

// TestCellKeyGolden pins the exact content-address format. These hashes
// are a public contract: checkpoints, the cluster result cache and the
// coordinator/worker protocol all key by them. If this test breaks, you
// changed the key's inputs or format — every checkpoint and cache file
// on disk is now invalid, and mixed-version clusters will refuse each
// other's cells. That may be intended (bump sim.DeterminismEpoch for
// result-changing fixes), but it must be deliberate: update the golden
// values only alongside the epoch bump or format change that explains
// them.
//
// Pinned inputs: DeterminismEpoch 2, the core.DefaultSpec seed, and the
// "<id>|<config>|epoch=E|seed=S|cell=N" FNV-64a layout.
func TestCellKeyGolden(t *testing.T) {
	spec := GridSpec{ID: "golden-grid", Config: "config-v1"}
	if got, want := CellKey(spec, 7), "049934eb27ea3468"; got != want {
		t.Fatalf("CellKey(golden-grid, config-v1, 7) = %s, want %s — key format or inputs changed; see test comment", got, want)
	}
	// Every input must move the hash.
	base := CellKey(spec, 7)
	if CellKey(spec, 8) == base {
		t.Fatal("cell index does not enter the key")
	}
	if CellKey(GridSpec{ID: "other-grid", Config: "config-v1"}, 7) == base {
		t.Fatal("grid id does not enter the key")
	}
	if CellKey(GridSpec{ID: "golden-grid", Config: "config-v2"}, 7) == base {
		t.Fatal("grid config does not enter the key")
	}
	if len(base) != 16 || strings.ToLower(base) != base {
		t.Fatalf("key %q is not 16 lowercase hex digits", base)
	}
}

// TestCellKeyAllocs pins CellKey to one allocation, the returned
// string: the coordinator keys every cell of every grid it plans.
func TestCellKeyAllocs(t *testing.T) {
	spec := GridSpec{ID: "e1", Config: "defenses=none,trr;sided=12;horizon=4000000"}
	if n := testing.AllocsPerRun(100, func() { _ = CellKey(spec, 1234) }); n != 1 {
		t.Fatalf("CellKey made %v allocations, want 1", n)
	}
}

// fastE1 is a small real E1 slice: 2 defenses x 4 kinds = 8 cells.
func fastE1() ([]string, int, AttackOpts) {
	return []string{"none", "para"}, 4, AttackOpts{Horizon: 200_000, Tenants: 2, PagesPerTenant: 60}
}

func TestCellCaptureNarrowsGrid(t *testing.T) {
	defenses, sided, opts := fastE1()
	capture := NewCellCapture("e1", []int{1, 3, 99})
	ctx := under(Run{Capture: capture})
	if _, err := E1Matrix(ctx, defenses, sided, opts); err != nil {
		t.Fatal(err)
	}
	if err := capture.Err(); err != nil {
		t.Fatal(err)
	}
	if !capture.Reached() {
		t.Fatal("target grid not reached")
	}
	if capture.Config() == "" {
		t.Fatal("config string not captured")
	}
	got := capture.Results()
	if len(got) != 2 {
		t.Fatalf("captured %d cells, want 2 (out-of-range 99 dropped)", len(got))
	}
	spec := GridSpec{ID: "e1", Config: capture.Config()}
	for _, i := range []int{1, 3} {
		cell, ok := got[i]
		if !ok {
			t.Fatalf("cell %d missing", i)
		}
		if cell.Key != CellKey(spec, i) {
			t.Fatalf("cell %d key %s, want %s", i, cell.Key, CellKey(spec, i))
		}
		if !json.Valid(cell.Result) || len(cell.Result) == 0 {
			t.Fatalf("cell %d result is not JSON: %s", i, cell.Result)
		}
	}
}

func TestCellCaptureSkipsOtherGrids(t *testing.T) {
	defenses, sided, opts := fastE1()
	capture := NewCellCapture("some-other-grid", []int{0})
	ctx := under(Run{Capture: capture})
	// The run must neither error nor simulate: a worker assigned grid X
	// skips experiment phases that build other grids.
	if _, err := E1Matrix(ctx, defenses, sided, opts); err != nil {
		t.Fatal(err)
	}
	if capture.Reached() {
		t.Fatal("capture for a different grid claims the target ran")
	}
	if len(capture.Results()) != 0 {
		t.Fatal("cells captured for the wrong grid")
	}
}

// captureDelegate computes cells in-process through a CellCapture — the
// local-fallback shape — so the delegate restore path can be tested
// against the serial path without HTTP.
type captureDelegate struct {
	t       *testing.T
	calls   int
	partial bool // return one cell short, to test strictness
	fail    error
}

func (d *captureDelegate) RunGrid(ctx context.Context, spec GridSpec, n int) (map[int]json.RawMessage, error) {
	d.calls++
	if d.fail != nil {
		return nil, d.fail
	}
	cells := make([]int, n)
	for i := range cells {
		cells[i] = i
	}
	capture := NewCellCapture(spec.ID, cells)
	rc := RunFrom(ctx)
	rc.Capture, rc.Delegate = capture, nil
	ctx = WithRun(ctx, rc)
	defenses, sided, opts := fastE1()
	if _, err := E1Matrix(ctx, defenses, sided, opts); err != nil {
		return nil, err
	}
	if err := capture.Err(); err != nil {
		return nil, err
	}
	out := make(map[int]json.RawMessage, n)
	for i, cell := range capture.Results() {
		out[i] = cell.Result
	}
	if d.partial {
		delete(out, n-1)
	}
	return out, nil
}

func TestGridDelegateByteIdentical(t *testing.T) {
	defenses, sided, opts := fastE1()
	serial, err := E1Matrix(context.Background(), defenses, sided, opts)
	if err != nil {
		t.Fatal(err)
	}
	del := &captureDelegate{t: t}
	ctx := WithGridDelegate(context.Background(), del)
	delegated, err := E1Matrix(ctx, defenses, sided, opts)
	if err != nil {
		t.Fatal(err)
	}
	if del.calls != 1 {
		t.Fatalf("delegate called %d times, want 1", del.calls)
	}
	if s, d := serial.String(), delegated.String(); s != d {
		t.Fatalf("delegated run differs from serial:\n--- serial ---\n%s\n--- delegated ---\n%s", s, d)
	}
}

func TestGridDelegatePartialResultFailsGrid(t *testing.T) {
	defenses, sided, opts := fastE1()
	ctx := WithGridDelegate(context.Background(), &captureDelegate{t: t, partial: true})
	if _, err := E1Matrix(ctx, defenses, sided, opts); err == nil || !strings.Contains(err.Error(), "no result for cell") {
		t.Fatalf("partial delegate result did not fail the grid: %v", err)
	}
}

func TestGridDelegateErrorFailsGrid(t *testing.T) {
	defenses, sided, opts := fastE1()
	boom := errors.New("fleet on fire")
	ctx := WithGridDelegate(context.Background(), &captureDelegate{t: t, fail: boom})
	if _, err := E1Matrix(ctx, defenses, sided, opts); err == nil || !errors.Is(err, boom) {
		t.Fatalf("delegate error not surfaced: %v", err)
	}
}

func TestWithoutGridDelegateShadows(t *testing.T) {
	del := &captureDelegate{t: t}
	ctx := WithGridDelegate(context.Background(), del)
	if RunFrom(ctx).Delegate == nil {
		t.Fatal("delegate not installed")
	}
	if WithGridDelegate(ctx, nil) != ctx {
		t.Fatal("a nil delegate must leave the context unchanged")
	}
	// A copy of the Run with the delegate cleared shadows it.
	rc := RunFrom(ctx)
	rc.Delegate = nil
	if RunFrom(WithRun(ctx, rc)).Delegate != nil {
		t.Fatal("clearing Run.Delegate did not shadow the delegate")
	}
	// Anonymous grids must ignore delegates entirely.
	run := runGrid[int](ctx, GridSpec{}, 2, func(ctx context.Context, i int) (int, error) { return i, nil })
	if run.Err() != nil || del.calls != 0 {
		t.Fatalf("anonymous grid consulted the delegate (calls=%d, err=%v)", del.calls, run.Err())
	}
}

// TestCellCaptureRecordsRestoredCells covers a capture whose Run also
// carries a checkpoint, as the coordinator's local fallback does inside
// a durable hammerd job: cells restored from the checkpoint must reach
// the capture too, or a resumed job finds them "never computed".
func TestCellCaptureRecordsRestoredCells(t *testing.T) {
	ck, err := OpenCheckpoint(filepath.Join(t.TempDir(), "job.ckpt"))
	if err != nil {
		t.Fatal(err)
	}
	defer ck.Close()
	spec := GridSpec{ID: "t-cap", Config: "c"}
	fn := func(_ context.Context, i int) (int, error) { return 5 * i, nil }
	if err := runGrid(under(Run{Checkpoint: ck, Workers: 1}), spec, 2, fn).Err(); err != nil {
		t.Fatal(err)
	}
	capture := NewCellCapture("t-cap", []int{0, 1, 2})
	run := runGrid(under(Run{Checkpoint: ck, Capture: capture, Workers: 1}), spec, 3, fn)
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	if run.Restored != 2 {
		t.Fatalf("restored %d cells, want 2", run.Restored)
	}
	got := capture.Results()
	for i := 0; i < 3; i++ {
		want := CapturedCell{Key: CellKey(spec, i), Result: json.RawMessage(strconv.Itoa(5 * i))}
		if c, ok := got[i]; !ok || c.Key != want.Key || string(c.Result) != string(want.Result) {
			t.Errorf("captured cell %d = %+v (present %v), want %+v", i, c, ok, want)
		}
	}
}
