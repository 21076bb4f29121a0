package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"sort"
	"sync"

	"hammertime/internal/telemetry"
)

// Distribution hooks: the two halves of the coordinator/worker split
// (internal/cluster) are fields of the context's Run (Delegate and
// Capture), so the experiment code itself — E1Matrix and friends —
// never knows whether its cells were computed in-process, fetched from
// a content-addressed cache, or simulated on another node.
//
//   - A GridDelegate (coordinator side) intercepts a whole grid: runGrid
//     hands it (spec, n) and restores every cell from the JSON the
//     delegate returns, exactly the way checkpoint resume restores cells
//     — so a distributed run is byte-identical to a serial one for the
//     same reason a resumed run is.
//
//   - A CellCapture (worker side) narrows a grid to an assigned subset
//     of cells and records each computed result as JSON keyed by
//     CellKey. Grids other than the capture's target are skipped
//     entirely: the worker simulates only what it was assigned.

// GridDelegate computes a whole grid out-of-process. RunGrid must return
// one JSON-encoded result per cell index in [0, n) — each the exact
// marshal of the cell value the local cell function would have produced
// — or an error; partial maps fail the grid. Implementations live in
// internal/cluster (the coordinator); the harness only restores.
type GridDelegate interface {
	RunGrid(ctx context.Context, spec GridSpec, n int) (map[int]json.RawMessage, error)
}

// WithGridDelegate returns ctx carrying ctx's Run with d as its
// Delegate. A nil delegate returns ctx unchanged.
func WithGridDelegate(ctx context.Context, d GridDelegate) context.Context {
	if d == nil {
		return ctx
	}
	r := RunFrom(ctx)
	r.Delegate = d
	return WithRun(ctx, r)
}

// CellCapture restricts a run to one grid's assigned cells and collects
// their results as (CellKey, JSON) pairs — the worker half of the
// coordinator/worker protocol. Construct with NewCellCapture, set it as
// Run.Capture, run the experiment, then read Results.
type CellCapture struct {
	grid  string
	cells map[int]struct{}

	mu      sync.Mutex
	out     map[int]CapturedCell
	config  string
	reached bool
	err     error
}

// CapturedCell is one captured result: its content-address key and the
// exact JSON the cell value marshalled to.
type CapturedCell struct {
	Key    string
	Result json.RawMessage
}

// NewCellCapture builds a capture for the given cells of grid.
func NewCellCapture(grid string, cells []int) *CellCapture {
	c := &CellCapture{
		grid:  grid,
		cells: make(map[int]struct{}, len(cells)),
		out:   make(map[int]CapturedCell, len(cells)),
	}
	for _, i := range cells {
		c.cells[i] = struct{}{}
	}
	return c
}

// indices returns the capture's assigned cells that exist in a grid of
// n cells, sorted ascending.
func (c *CellCapture) indices(n int) []int {
	out := make([]int, 0, len(c.cells))
	for i := range c.cells {
		if i >= 0 && i < n {
			out = append(out, i)
		}
	}
	sort.Ints(out)
	return out
}

// arm records that the target grid was reached and its config string —
// the worker compares it against the coordinator's to detect skew.
func (c *CellCapture) arm(config string) {
	c.mu.Lock()
	c.reached = true
	c.config = config
	c.mu.Unlock()
}

// record captures one computed cell.
func (c *CellCapture) record(spec GridSpec, i int, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		c.mu.Lock()
		if c.err == nil {
			c.err = fmt.Errorf("harness: capture %s cell %d: %w", spec.ID, i, err)
		}
		c.mu.Unlock()
		return
	}
	c.mu.Lock()
	c.out[i] = CapturedCell{Key: CellKey(spec, i), Result: raw}
	c.mu.Unlock()
}

// Reached reports whether the target grid ran at all.
func (c *CellCapture) Reached() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.reached
}

// Config returns the target grid's config string as observed locally.
func (c *CellCapture) Config() string {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.config
}

// Err returns the first capture failure (a cell value that would not
// marshal), if any.
func (c *CellCapture) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Results returns the captured cells. The map is a copy.
func (c *CellCapture) Results() map[int]CapturedCell {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make(map[int]CapturedCell, len(c.out))
	for i, v := range c.out {
		out[i] = v
	}
	return out
}

// runGridDelegated is the coordinator path of runGrid: the delegate
// produces every cell's JSON (from its cache or from workers) and the
// run restores them the way checkpoint resume does. Strict by
// construction: a delegate error fails the grid — partial distributed
// grids are re-dispatched inside the delegate, never surfaced as
// half-filled tables.
func runGridDelegated[T any](ctx context.Context, spec GridSpec, n int, del GridDelegate) *GridRun[T] {
	run := &GridRun[T]{
		spec:     spec,
		Results:  make([]T, n),
		strict:   true,
		failures: make(map[int]*CellError),
	}
	gname := gridName(spec.ID)
	ctx, gspan := telemetry.StartSpan(ctx, "grid:"+gname)
	gspan.SetAttrs(
		telemetry.String("grid", gname),
		telemetry.Int("cells", int64(n)),
		telemetry.String("mode", "distributed"),
	)
	defer func() { gspan.EndErr(run.Err()) }()
	prog := newGridProgress(telemetry.HubFrom(ctx), gname, n)

	fail := func(err error) *GridRun[T] {
		run.cancelled = fmt.Errorf("harness: %s distributed: %w", gname, err)
		return run
	}
	results, err := del.RunGrid(ctx, spec, n)
	if err != nil {
		return fail(err)
	}
	for i := 0; i < n; i++ {
		raw, ok := results[i]
		if !ok {
			return fail(fmt.Errorf("delegate returned no result for cell %d", i))
		}
		if err := json.Unmarshal(raw, &run.Results[i]); err != nil {
			return fail(fmt.Errorf("cell %d result: %w", i, err))
		}
		prog.cellDone(i, 0, 0, true, "")
	}
	run.Restored = n
	return run
}
