package harness

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"runtime/debug"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"hammertime/internal/fault"
	"hammertime/internal/obs"
	"hammertime/internal/sim"
	"hammertime/internal/telemetry"
)

// The robustness layer of the experiment harness. Long sweeps (the
// BlockHammer- and Kim-style grids of E1-E10) are embarrassingly parallel
// and all-or-nothing by default: one failing cell aborts the whole run.
// The policy below turns that into fail-soft semantics: panics are
// contained into typed CellErrors, failed cells may be retried (with
// deterministic exponential backoff) a bounded number of times or cut off
// by a per-cell wall-clock deadline, and in fail-soft mode the grid
// finishes with the failure recorded per cell so tables render
// ERR(reason) placeholders instead of dropping the run.
//
// Every grid also runs under a context: the per-cell deadline and the
// caller's cancellation (a CLI SIGTERM, a hammerd job cancel) propagate
// into the cell function and from there into core.Machine.RunCtx, so a
// cut-off cell actually stops simulating instead of being abandoned to
// burn CPU in the background.

// Policy configures how experiment grids treat failing and slow cells.
// The zero value is the historical strict behavior: no retries, no
// backoff, no deadline, no slow-cell warning, and the lowest-index error
// among the attempted cells aborts the grid.
type Policy struct {
	// FailSoft records per-cell failures and finishes the grid instead of
	// stopping at the first error; experiments annotate the failed cells.
	FailSoft bool
	// Retries re-runs a failed cell up to this many extra times before
	// recording the failure. Timed-out cells are never retried: their
	// deadline is final.
	Retries int
	// Backoff is the base delay of the exponential backoff slept between
	// retry attempts (0 = retry immediately, the historical behavior).
	// The actual delay for retry k is base·2^(k-1) capped at 64·base,
	// jittered into [d/2, d) by the deterministic sim RNG — a pure
	// function of (grid, cell, attempt), so retried grids sleep the same
	// schedule on every run and stay reproducible.
	Backoff time.Duration
	// CellTimeout is a per-cell wall-clock deadline (0 = none). The
	// deadline cancels the cell's context; context-aware cells (anything
	// driving core.Machine.RunCtx) unwind within the cancellation poll
	// interval and are reaped. A cell that ignores its context is, as a
	// last resort, abandoned to finish in the background after a grace
	// period; its result is discarded either way.
	CellTimeout time.Duration
	// SlowCellWarn is the wall-clock time after which a still-running
	// cell logs a warning to Run.Logger (0 = never). It only warns:
	// the cell keeps running.
	SlowCellWarn time.Duration
}

// DefaultSlowCellWarn is the slow-cell warning threshold of the CLIs'
// -slow-cell flag and of hammerd's jobs and workers.
const DefaultSlowCellWarn = time.Minute

// CellError is the typed failure of one experiment-grid cell: which grid
// and cell, how many attempts were made, and whether the final attempt
// errored, panicked, was cancelled, or exceeded its deadline.
type CellError struct {
	// Grid is the grid's identifier ("e1", ...; empty for anonymous grids).
	Grid string
	// Index is the failing cell's grid index.
	Index int
	// Attempts is how many times the cell was run (1 + retries used).
	Attempts int
	// Panicked marks a contained panic; Stack holds its stack trace.
	Panicked bool
	// TimedOut marks a cell that exceeded Policy.CellTimeout.
	TimedOut bool
	// Cancelled marks a cell stopped by the grid's context (shutdown or
	// job cancellation), as opposed to its own deadline or failure.
	Cancelled bool
	// Stack is the panic stack trace (empty otherwise).
	Stack string
	// Err is the underlying cause (the cell's error, the wrapped panic
	// value, the cancellation cause, or the deadline error).
	Err error
}

// Error implements error.
func (e *CellError) Error() string {
	grid := e.Grid
	if grid == "" {
		grid = "grid"
	}
	what := "failed"
	switch {
	case e.Panicked:
		what = "panicked"
	case e.TimedOut:
		what = "timed out"
	case e.Cancelled:
		what = "was cancelled"
	}
	if e.Attempts > 1 {
		return fmt.Sprintf("harness: %s cell %d %s after %d attempts: %v", grid, e.Index, what, e.Attempts, e.Err)
	}
	return fmt.Sprintf("harness: %s cell %d %s: %v", grid, e.Index, what, e.Err)
}

// Unwrap exposes the underlying cause to errors.Is/As.
func (e *CellError) Unwrap() error { return e.Err }

// Reason is the short, deterministic tag rendered into ERR(...) table
// cells: "panic", "timeout" and "cancelled" for contained crashes,
// deadlines and shutdowns, otherwise the root cause's message, flattened
// and truncated.
func (e *CellError) Reason() string {
	switch {
	case e.Panicked:
		return "panic"
	case e.TimedOut:
		return "timeout"
	case e.Cancelled:
		return "cancelled"
	}
	msg := "error"
	if e.Err != nil {
		msg = e.Err.Error()
	}
	msg = strings.Join(strings.Fields(msg), " ")
	const maxReason = 48
	if len(msg) > maxReason {
		msg = msg[:maxReason-1] + "…"
	}
	return msg
}

// GridSpec identifies one experiment grid for checkpointing and
// observability. ID and Config together must determine the grid's results
// (experiment name, horizon, sweep parameters, ...): checkpoint keys are
// a hash of (ID, Config, DeterminismEpoch, machine seed, cell index), so
// a run with different parameters never restores a stale cell. Grids with
// an empty ID are anonymous: policy still applies, checkpointing does not.
type GridSpec struct {
	ID     string
	Config string
}

// GridRun is the outcome of one grid execution: the per-cell results plus
// any recorded failures.
type GridRun[T any] struct {
	spec GridSpec
	// Results holds one entry per cell; entries of failed cells are the
	// zero value and must be guarded with Failed.
	Results []T
	// Restored counts cells whose results came from the checkpoint or
	// the delegate instead of being computed locally.
	Restored int

	strict    bool
	mu        sync.Mutex
	failures  map[int]*CellError
	cancelled error
}

// Failed returns the failure of cell i, or nil if it succeeded.
func (g *GridRun[T]) Failed(i int) *CellError {
	g.mu.Lock()
	defer g.mu.Unlock()
	return g.failures[i]
}

// Err resolves the run per the active policy: a cancelled grid always
// reports its cancellation (a partial table must never pass for a
// complete one, fail-soft or not); otherwise nil when every cell
// succeeded; under fail-soft nil regardless (callers annotate via
// Failed); otherwise the lowest-index failure — the same error a serial
// strict run would hit first among the attempted cells.
func (g *GridRun[T]) Err() error {
	g.mu.Lock()
	defer g.mu.Unlock()
	if g.cancelled != nil {
		return g.cancelled
	}
	if len(g.failures) == 0 || !g.strict {
		return nil
	}
	var first *CellError
	for _, ce := range g.failures {
		if first == nil || ce.Index < first.Index {
			first = ce
		}
	}
	return first
}

// runGrid executes fn(ctx, 0..n-1) as the context's Run says (policy,
// workers, checkpoint, delegate, capture, ...). It first restores every
// cell the Run's checkpoint holds, then hands the missing cells to one
// executor: the Run's GridDelegate for an identified grid when one is
// set, otherwise the worker pool. Cells must be independent and return
// their result instead of writing shared state: the runner assigns
// Results[i] only when an attempt completes within its deadline, which
// is what keeps late (timed-out) attempts from racing with table
// assembly. The context a cell receives carries the grid context plus
// the per-cell deadline; cells thread it into core.Machine.RunCtx so a
// deadline or a caller's cancellation actually stops the simulation.
// Parallel, serial, delegated and checkpointed runs produce
// byte-identical results, because restored cells are exact JSON round
// trips of values the same code computed.
func runGrid[T any](ctx context.Context, spec GridSpec, n int, fn func(ctx context.Context, i int) (T, error)) *GridRun[T] {
	if ctx == nil {
		ctx = context.Background()
	}
	rc := RunFrom(ctx)
	pol := rc.Policy
	run := &GridRun[T]{
		spec:     spec,
		Results:  make([]T, n),
		strict:   !pol.FailSoft,
		failures: make(map[int]*CellError),
	}
	// Worker path: a capture narrows the run to its assigned cells of
	// its target grid; other grids of the same experiment are skipped
	// entirely (their tables are discarded by the worker anyway).
	capture := rc.capture
	if capture != nil && capture.grid != spec.ID {
		return run
	}
	var cells []int
	if capture != nil {
		capture.arm(spec.Config)
		cells = capture.indices(n)
	} else {
		cells = make([]int, n)
		for i := range cells {
			cells[i] = i
		}
	}
	ck, del := rc.Checkpoint, rc.Delegate
	if spec.ID == "" {
		ck, del = nil, nil
	}

	// Telemetry: the grid gets a span (the parent of every cell span)
	// and publishes per-cell completions plus progress records to the
	// run's hub. All of it hangs off the context: no scope, no cost.
	gname := gridName(spec.ID)
	ctx, gspan := telemetry.StartSpan(ctx, "grid:"+gname)
	gspan.SetAttrs(telemetry.String("grid", gname), telemetry.Int("cells", int64(n)))
	if del != nil {
		gspan.SetAttrs(telemetry.String("mode", "distributed"))
	}
	defer func() { gspan.EndErr(run.Err()) }()
	prog := newGridProgress(telemetry.HubFrom(ctx), gname, n)

	// restore decodes cell i from the checkpoint's or the delegate's
	// JSON and books it as restored.
	restore := func(i int, raw json.RawMessage) error {
		if err := json.Unmarshal(raw, &run.Results[i]); err != nil {
			return err
		}
		run.Restored++
		if capture != nil {
			capture.record(spec, i, run.Results[i])
		}
		prog.cellDone(i, 0, 0, true, "")
		return nil
	}
	missing := cells
	if ck != nil {
		missing = make([]int, 0, len(cells))
		for _, i := range cells {
			// A cell not recorded, or undecodable (e.g. the cell type
			// changed), is computed and recorded again.
			if raw, ok := ck.lookup(CellKey(spec, i)); !ok || restore(i, raw) != nil {
				missing = append(missing, i)
			}
		}
	}
	if len(missing) == 0 {
		return run
	}

	if del != nil {
		// Coordinator path: the delegate computes the missing cells
		// (cache + workers) and they restore like checkpointed ones. A
		// delegate error fails the grid under every policy: partial
		// distributed grids are re-dispatched inside the delegate, never
		// surfaced as half-filled tables. The cells are checkpointed
		// only now, once the delegate has audited them.
		err := func() error {
			results, err := del.RunGrid(ctx, spec, missing)
			if err != nil {
				return err
			}
			for _, i := range missing {
				raw, ok := results[i]
				if !ok {
					return fmt.Errorf("delegate returned no result for cell %d", i)
				}
				if err := restore(i, raw); err != nil {
					return fmt.Errorf("cell %d result: %w", i, err)
				}
				if ck != nil {
					ck.record(spec, i, raw)
				}
			}
			return nil
		}()
		if err != nil {
			run.cancelled = fmt.Errorf("harness: %s distributed: %w", gname, err)
		}
		return run
	}

	cell := func(i int) *CellError {
		cctx, span := telemetry.StartLane(ctx, "cell")
		span.SetAttrs(telemetry.String("grid", gname), telemetry.Int("cell", int64(i)))
		unwatch := slowCellWatchdog(rc.Logger, pol.SlowCellWarn, gname, i)
		start := time.Now()
		ce := runCellGuarded(cctx, spec.ID, i, pol, rc.Events, rc.Faults, fn, &run.Results[i])
		wall := time.Since(start)
		unwatch()
		attempts, errMsg := 1, ""
		if ce != nil {
			attempts, errMsg = ce.Attempts, ce.Reason()
			span.Fail(ce)
			if rc.Logger != nil {
				rc.Logger.Warn("grid cell failed",
					"grid", gname, "cell", i, "attempts", ce.Attempts, "reason", ce.Reason())
			}
		}
		span.End()
		if ce == nil && ck != nil {
			ck.record(spec, i, run.Results[i])
		}
		if ce == nil && capture != nil {
			capture.record(spec, i, run.Results[i])
		}
		prog.cellDone(i, wall, attempts, false, errMsg)
		return ce
	}
	// noteCancel records the grid's cancellation once; later cells are
	// simply not started (their Results stay zero, no failure recorded —
	// the run as a whole reports the cancellation).
	noteCancel := func() {
		run.mu.Lock()
		if run.cancelled == nil {
			run.cancelled = fmt.Errorf("harness: %s cancelled: %w", gname, context.Cause(ctx))
		}
		run.mu.Unlock()
	}

	// The pool: workers take the missing cells in order until they run
	// out, the grid is cancelled, or a strict grid fails. The calling
	// goroutine is one of the workers, so a one-worker pool runs every
	// cell on it.
	var (
		next atomic.Int64
		stop atomic.Bool
		wg   sync.WaitGroup
	)
	next.Store(-1)
	work := func() {
		for {
			if ctx.Err() != nil {
				noteCancel()
				return
			}
			idx := int(next.Add(1))
			if idx >= len(missing) || stop.Load() {
				return
			}
			i := missing[idx]
			if ce := cell(i); ce != nil {
				if ce.Cancelled {
					noteCancel()
					stop.Store(true)
					return
				}
				run.mu.Lock()
				run.failures[i] = ce
				run.mu.Unlock()
				if !pol.FailSoft {
					stop.Store(true)
					return
				}
			}
		}
	}
	for w := 1; w < min(rc.WorkerCount(), len(missing)); w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			work()
		}()
	}
	work()
	wg.Wait()
	return run
}

// runCellGuarded runs one cell under the policy: contained panics,
// optional deadline, bounded retries with deterministic backoff, obs
// events on retry/failure, and the cell faults aimed at it (cell.error
// fails every attempt, cell.panic panics, cell.once fails the first
// attempt only, so a retry recovers). On success the result is stored
// into *out; on timeout *out is left untouched so a late attempt cannot
// race with readers.
func runCellGuarded[T any](ctx context.Context, grid string, i int, pol Policy, events *obs.Recorder, faults fault.Spec, fn func(ctx context.Context, i int) (T, error), out *T) *CellError {
	attempts := 1 + pol.Retries
	if attempts < 1 {
		attempts = 1
	}
	var last *CellError
	for a := 1; a <= attempts; a++ {
		wrapped := func(cctx context.Context) (T, error) {
			if f, ok := faults.Cell(grid, i); ok {
				var zero T
				switch f.Kind {
				case "panic":
					panic(fmt.Sprintf("injected panic (%s)", f))
				case "once":
					if a == 1 {
						return zero, fmt.Errorf("injected transient failure (%s)", f)
					}
				default:
					return zero, fmt.Errorf("injected failure (%s)", f)
				}
			}
			return fn(cctx, i)
		}
		v, err, panicked, timedOut, cancelled, stack := attemptCell(ctx, wrapped, pol.CellTimeout)
		if err == nil {
			*out = v
			return nil
		}
		last = &CellError{
			Grid: grid, Index: i, Attempts: a,
			Panicked: panicked, TimedOut: timedOut, Cancelled: cancelled,
			Stack: stack, Err: err,
		}
		if timedOut || cancelled {
			// The deadline is final, and a cancelled grid must stop, not
			// retry.
			break
		}
		if a < attempts {
			events.Emit(obs.Event{
				Kind: obs.KindCellRetry, Bank: -1, Row: -1, Domain: -1,
				Line: uint64(i), Arg: uint64(a),
			})
			if pol.Backoff > 0 && !Sleep(ctx, RetryBackoff(pol.Backoff, grid, i, a)) {
				last.Cancelled = true
				break
			}
		}
	}
	events.Emit(obs.Event{
		Kind: obs.KindCellFail, Bank: -1, Row: -1, Domain: -1,
		Line: uint64(i), Arg: uint64(last.Attempts),
	})
	return last
}

// RetryBackoff returns the delay slept before retry `attempt` (the
// 1-based count of failed attempts so far) of the given grid cell:
// base·2^(attempt-1), capped at 64·base, jittered into [d/2, d). The
// jitter comes from the deterministic sim RNG, forked from an FNV hash of
// (grid, cell) at the attempt index — a pure function of its arguments,
// never of wall clock or scheduling, so a retried grid sleeps the same
// schedule on every run.
func RetryBackoff(base time.Duration, grid string, cell, attempt int) time.Duration {
	return Backoff(base, fmt.Sprintf("%s|%d", grid, cell), attempt)
}

// Backoff is the keyed core of RetryBackoff, exported for other layers
// that need the same deterministic schedule under their own identity —
// the cluster coordinator keys batch-RPC retries by (grid, worker,
// batch). Same shape: base·2^(attempt-1), capped at 64·base, jittered
// into [d/2, d) by the sim RNG forked from an FNV-64a hash of key at the
// attempt index.
func Backoff(base time.Duration, key string, attempt int) time.Duration {
	if base <= 0 {
		return 0
	}
	d := base
	for k := 1; k < attempt && d < 64*base; k++ {
		d *= 2
	}
	if d > 64*base {
		d = 64 * base
	}
	h := fnv.New64a()
	h.Write([]byte(key))
	rng := sim.NewRNG(h.Sum64()).ForkAt(uint64(attempt))
	half := d / 2
	return half + time.Duration(rng.Float64()*float64(half))
}

// Sleep waits d (a backoff delay), returning early if ctx is cancelled.
// It reports whether the caller should go on and retry: true once d has
// passed, false when ctx was cancelled first.
func Sleep(ctx context.Context, d time.Duration) bool {
	if d <= 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-t.C:
		return true
	case <-ctx.Done():
		return false
	}
}

// cellCancelGrace is how long a timed-out or cancelled attempt is given
// to observe its context and unwind before the harness falls back to
// abandoning its goroutine. Context-aware cells (everything built on
// core.Machine.RunCtx) unwind within the cancellation poll interval —
// well under a millisecond of simulation — so in practice the grace
// window is never exhausted; it exists so a cell that ignores its
// context cannot wedge the grid.
var cellCancelGrace = 10 * time.Second

// attemptCell runs fn once with panic containment under a context that
// carries the grid's cancellation plus, when timeout > 0, the per-cell
// deadline. The deadline path runs fn on its own goroutine; on expiry
// the attempt's context is cancelled and the goroutine is reaped within
// cellCancelGrace (true cancellation — see the goroutine-leak regression
// test). Only if the cell ignores its context is it abandoned to finish
// in the background, its result discarded.
func attemptCell[T any](ctx context.Context, fn func(ctx context.Context) (T, error), timeout time.Duration) (v T, err error, panicked, timedOut, cancelled bool, stack string) {
	if timeout <= 0 {
		v, err, panicked, stack = callContained(ctx, fn)
		cancelled = err != nil && !panicked && ctx.Err() != nil
		return v, err, panicked, false, cancelled, stack
	}
	cctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	type outcome struct {
		v        T
		err      error
		panicked bool
		stack    string
	}
	ch := make(chan outcome, 1)
	go func() {
		var o outcome
		o.v, o.err, o.panicked, o.stack = callContained(cctx, fn)
		ch <- o
	}()
	select {
	case o := <-ch:
		if o.err != nil && !o.panicked {
			// Classify errors surfacing exactly as the context dies: the
			// deadline marks a timeout, the parent context a cancellation.
			timedOut = errors.Is(cctx.Err(), context.DeadlineExceeded) && ctx.Err() == nil
			cancelled = ctx.Err() != nil
		}
		return o.v, o.err, o.panicked, timedOut, cancelled, o.stack
	case <-cctx.Done():
	}
	// Deadline or grid cancellation fired before the attempt finished.
	// cancel() has implicitly happened via cctx; give the (context-aware)
	// cell the grace window to unwind, then fall back to abandonment.
	reaped := false
	grace := time.NewTimer(cellCancelGrace)
	defer grace.Stop()
	select {
	case <-ch:
		reaped = true // result discarded: the attempt missed its deadline
	case <-grace.C:
	}
	var zero T
	if ctx.Err() != nil {
		return zero, fmt.Errorf("cell cancelled: %w", context.Cause(ctx)), false, false, true, ""
	}
	if reaped {
		return zero, fmt.Errorf("cell exceeded %v deadline (attempt cancelled)", timeout), false, true, false, ""
	}
	return zero, fmt.Errorf("cell exceeded %v deadline (attempt ignored cancellation, abandoned)", timeout), false, true, false, ""
}

// callContained invokes fn, converting a panic into an error plus its
// stack trace.
func callContained[T any](ctx context.Context, fn func(ctx context.Context) (T, error)) (v T, err error, panicked bool, stack string) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			stack = string(debug.Stack())
			err = fmt.Errorf("panic: %v", r)
		}
	}()
	v, err = fn(ctx)
	return v, err, false, ""
}

// GuardedCtx applies the Policy of ctx's Run to a single non-grid run:
// panic containment, retries with backoff and the deadline.
// cmd/hammersim routes its one scenario through it, so a crash or hang
// degrades into a reportable *CellError. The context (plus the policy's
// deadline) reaches fn, so cancelling it actually stops the scenario.
// The result is assigned only when an attempt completes in time.
func GuardedCtx[T any](ctx context.Context, label string, fn func(ctx context.Context) (T, error)) (T, *CellError) {
	if ctx == nil {
		ctx = context.Background()
	}
	var v T
	rc := RunFrom(ctx)
	ce := runCellGuarded(ctx, label, 0, rc.Policy, rc.Events, rc.Faults,
		func(cctx context.Context, _ int) (T, error) { return fn(cctx) }, &v)
	return v, ce
}
