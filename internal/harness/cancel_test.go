package harness

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hammertime/internal/attack"
	"hammertime/internal/core"
	"hammertime/internal/defense"
	"hammertime/internal/obs"
	"hammertime/internal/report"
)

// cancelOnKind is an obs sink that cancels a context when it has seen
// the configured event kind `after` times — the instrument for
// cancelling a simulation at a precisely chosen internal moment (mid
// refresh window, during an admission throttle, on a TRR cure).
type cancelOnKind struct {
	kind   obs.Kind
	after  int
	cancel context.CancelCauseFunc
	seen   atomic.Int64
}

func (s *cancelOnKind) Record(ev obs.Event) {
	if ev.Kind == s.kind && s.seen.Add(1) == int64(s.after) {
		s.cancel(fmt.Errorf("test: cancelled on %s #%d", ev.Kind, s.after))
	}
}

func (s *cancelOnKind) Flush() error { return nil }

// cancelDuring runs a double-sided attack against the named defense and
// cancels it the moment the simulator emits the given event kind. Under
// `go test` every machine carries the invariant auditor, and RunCtx's
// teardown re-verifies the full shadow state — so this asserts the
// paper-critical property that cancellation at an arbitrary internal
// event leaves a consistent machine, never a torn one.
func cancelDuring(t *testing.T, defenseName string, kind obs.Kind, after int) {
	t.Helper()
	ctx, cancel := context.WithCancelCause(context.Background())
	defer cancel(nil)
	d, err := defense.New(defenseName)
	if err != nil {
		t.Fatal(err)
	}
	sink := &cancelOnKind{kind: kind, after: after, cancel: cancel}
	_, err = RunAttackCtx(ctx, matrixSpec(), d, attack.Kind{Name: "double-sided", Sided: 2},
		AttackOpts{Horizon: 2_000_000, Observer: obs.NewRecorder(sink)})
	if sink.seen.Load() < int64(after) {
		t.Fatalf("simulation finished before emitting %d %v events (saw %d); pick a longer horizon",
			after, kind, sink.seen.Load())
	}
	if !errors.Is(err, core.ErrCancelled) {
		t.Fatalf("want core.ErrCancelled, got %v", err)
	}
	// A violation detected during teardown is wrapped into the
	// cancellation error by core.cancelRun; its absence is the auditor
	// reporting zero violations at the cancellation boundary.
	if strings.Contains(err.Error(), "inconsistent") {
		t.Fatalf("cancellation left auditor-inconsistent state: %v", err)
	}
}

func TestCancelDuringRefreshWindow(t *testing.T) {
	// Cancel on the 40th periodic REF: mid refresh window, where a torn
	// catch-up would break the auditor's exact-tREFI-cadence invariant.
	cancelDuring(t, "none", obs.KindREF, 40)
}

func TestCancelDuringAdmissionThrottle(t *testing.T) {
	// Cancel while BlockHammer is actively delaying the attacker.
	cancelDuring(t, "blockhammer", obs.KindThrottle, 3)
}

func TestCancelDuringTRRCure(t *testing.T) {
	// Cancel on an in-DRAM TRR mitigation curing a victim row.
	cancelDuring(t, "trr", obs.KindTRRCure, 3)
}

// TestCancelledRunReportsCause pins the error shape: the cause passed
// to the context is preserved through the cancellation chain.
func TestCancelledRunReportsCause(t *testing.T) {
	ctx, cancel := context.WithCancelCause(context.Background())
	rootCause := errors.New("test: operator abort")
	sink := &cancelOnKind{kind: obs.KindREF, after: 5, cancel: func(error) { cancel(rootCause) }}
	_, err := RunAttackCtx(ctx, matrixSpec(), defense.None{}, attack.Kind{Name: "double-sided", Sided: 2},
		AttackOpts{Horizon: 2_000_000, Observer: obs.NewRecorder(sink)})
	if !errors.Is(err, rootCause) {
		t.Fatalf("cancellation cause lost: %v", err)
	}
}

// TestCellTimeoutReapsGoroutine is the goroutine-leak regression test:
// before true cancellation, a timed-out cell's goroutine was abandoned
// to run to completion in the background — a grid of slow cells under a
// deadline leaked one goroutine (and one full simulation's CPU) per
// cell. Now the deadline cancels the cell's context and the harness
// reaps the goroutine; the count must return to baseline.
func TestCellTimeoutReapsGoroutine(t *testing.T) {
	rc := Run{Policy: Policy{FailSoft: true, CellTimeout: 30 * time.Millisecond}, Workers: 4}

	baseline := runtime.NumGoroutine()
	const cells = 8
	run := runGrid(under(rc), GridSpec{ID: "t-reap"}, cells,
		func(ctx context.Context, i int) (int, error) {
			// A context-aware cell that would run for minutes: it must be
			// cut off by the deadline, not abandoned.
			select {
			case <-ctx.Done():
				return 0, context.Cause(ctx)
			case <-time.After(5 * time.Minute):
				return 1, nil
			}
		})
	for i := 0; i < cells; i++ {
		ce := run.Failed(i)
		if ce == nil || !ce.TimedOut {
			t.Fatalf("cell %d: want timeout failure, got %v", i, ce)
		}
		if strings.Contains(ce.Err.Error(), "abandoned") {
			t.Fatalf("cell %d fell back to abandonment instead of reaping: %v", i, ce.Err)
		}
	}
	// The reap is synchronous (attemptCell waits for the cell goroutine
	// before returning), so only scheduler noise remains.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if n := runtime.NumGoroutine(); n <= baseline+1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: baseline %d, now %d", baseline, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
}

// TestCellTimeoutCancelsSimulation asserts the deadline reaches an
// actual machine: a long-horizon cell under a short deadline reports a
// timeout whose cause is the simulator's cooperative cancellation, and
// the wall-clock cost is the deadline, not the full simulation.
func TestCellTimeoutCancelsSimulation(t *testing.T) {
	rc := Run{Policy: Policy{FailSoft: true, CellTimeout: 50 * time.Millisecond}, Workers: 1}
	start := time.Now()
	run := runGrid(under(rc), GridSpec{ID: "t-simreap"}, 1,
		func(ctx context.Context, i int) (uint64, error) {
			out, err := RunAttackCtx(ctx, matrixSpec(), defense.None{},
				attack.Kind{Name: "double-sided", Sided: 2},
				AttackOpts{Horizon: 4_000_000_000}) // hours of simulation
			return out.Flips, err
		})
	ce := run.Failed(0)
	if ce == nil || !ce.TimedOut {
		t.Fatalf("want timeout failure, got %v", ce)
	}
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("timed-out cell blocked the grid for %v; cancellation did not reach the machine", elapsed)
	}
}

// TestGridCancellationStopsEarly asserts a cancelled grid stops
// scheduling cells and reports the cancellation even under fail-soft
// (a partial table must never pass for a complete one).
func TestGridCancellationStopsEarly(t *testing.T) {
	ctx, cancel := context.WithCancelCause(under(Run{Policy: Policy{FailSoft: true}, Workers: 2}))
	var started atomic.Int64
	run := runGrid(ctx, GridSpec{ID: "t-gcancel"}, 64,
		func(ctx context.Context, i int) (int, error) {
			if started.Add(1) == 4 {
				cancel(errors.New("test: stop the grid"))
			}
			select {
			case <-ctx.Done():
				return 0, context.Cause(ctx)
			case <-time.After(50 * time.Millisecond):
				return i, nil
			}
		})
	if err := run.Err(); err == nil || !strings.Contains(err.Error(), "stop the grid") {
		t.Fatalf("cancelled fail-soft grid must surface the cancellation, got %v", err)
	}
	if n := started.Load(); n >= 64 {
		t.Fatalf("grid kept scheduling after cancellation: %d cells started", n)
	}
}

// TestRetryBackoffDeterministic pins the backoff schedule: a pure
// function of (base, grid, cell, attempt) — same values on every call —
// doubling per attempt, capped, and jittered into [d/2, d).
func TestRetryBackoffDeterministic(t *testing.T) {
	base := 10 * time.Millisecond
	for attempt := 1; attempt <= 10; attempt++ {
		d1 := RetryBackoff(base, "e1", 7, attempt)
		d2 := RetryBackoff(base, "e1", 7, attempt)
		if d1 != d2 {
			t.Fatalf("attempt %d: backoff not deterministic: %v vs %v", attempt, d1, d2)
		}
		exp := base
		for k := 1; k < attempt && exp < 64*base; k++ {
			exp *= 2
		}
		if exp > 64*base {
			exp = 64 * base
		}
		if d1 < exp/2 || d1 >= exp {
			t.Fatalf("attempt %d: backoff %v outside [%v, %v)", attempt, d1, exp/2, exp)
		}
	}
	if a, b := RetryBackoff(base, "e1", 1, 1), RetryBackoff(base, "e1", 2, 1); a == b {
		t.Fatalf("different cells produced identical jitter %v; RNG not keyed by cell", a)
	}
	if d := RetryBackoff(0, "e1", 1, 1); d != 0 {
		t.Fatalf("zero base must mean no delay, got %v", d)
	}
}

// TestRetriesSleepBackoffAndAnnotateAttempts asserts the retry loop
// actually sleeps the deterministic schedule between attempts and that
// the exhausted cell renders its attempt count in the table placeholder.
func TestRetriesSleepBackoffAndAnnotateAttempts(t *testing.T) {
	base := 20 * time.Millisecond
	rc := Run{Policy: Policy{FailSoft: true, Retries: 2, Backoff: base}, Workers: 1}
	start := time.Now()
	tb, run, err := experiment[int]{
		spec: GridSpec{ID: "t-backoff"}, title: "backoff", headers: []string{"cell"},
		rows: 1, cols: 1,
		label: func(int) (lead, tail []any) { return nil, nil },
		cell: func(context.Context, int) (int, error) {
			return 0, errors.New("always fails")
		},
		render: func(*GridRun[int], int) []any { return []any{"ok"} },
	}.table(under(rc))
	if err != nil {
		t.Fatal(err)
	}
	elapsed := time.Since(start)
	// Two retries sleep RetryBackoff(base, grid, 0, 1) + (.., 2); the
	// jitter floor is half of each doubled base.
	min := RetryBackoff(base, "t-backoff", 0, 1)/2 + RetryBackoff(base, "t-backoff", 0, 2)/2
	if elapsed < min {
		t.Fatalf("retries did not back off: %v elapsed, want >= %v", elapsed, min)
	}
	ce := run.Failed(0)
	if ce == nil || ce.Attempts != 3 {
		t.Fatalf("want 3 attempts recorded, got %+v", ce)
	}
	got := tb.Rows[0][0]
	if got != report.ErrCellN("always fails", 3) {
		t.Fatalf("cell rendering lost the attempt count: %q", got)
	}
	if !strings.HasSuffix(got, "x3)") {
		t.Fatalf("ERR cell must carry the attempt count: %q", got)
	}
}

// TestBackoffAbortsOnCancel asserts a grid cancelled during a backoff
// sleep stops immediately instead of finishing the retry schedule.
func TestBackoffAbortsOnCancel(t *testing.T) {
	rc := Run{Policy: Policy{FailSoft: true, Retries: 10, Backoff: time.Hour}, Workers: 1}
	ctx, cancel := context.WithCancelCause(under(rc))
	go func() {
		time.Sleep(50 * time.Millisecond)
		cancel(errors.New("test: abort backoff"))
	}()
	start := time.Now()
	run := runGrid(ctx, GridSpec{ID: "t-abort"}, 1,
		func(_ context.Context, i int) (int, error) {
			return 0, errors.New("fails fast")
		})
	if elapsed := time.Since(start); elapsed > 10*time.Second {
		t.Fatalf("cancelled backoff slept %v", elapsed)
	}
	if err := run.Err(); err == nil {
		t.Fatal("cancelled grid must report an error")
	}
}
