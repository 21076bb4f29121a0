package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// Distribution hooks: the two halves of the coordinator/worker split
// (internal/cluster) are fields of the context's Run (Delegate and
// Capture), so the experiment code itself — E1Matrix and friends —
// never knows whether its cells were computed in-process, fetched from
// a content-addressed cache, or simulated on another node.
//
//   - A GridDelegate (coordinator side) computes the cells of a named
//     grid that the run's checkpoint does not hold: runGrid hands it
//     (spec, missing cells) and restores each from the JSON the
//     delegate returns, exactly the way checkpoint resume restores
//     cells — so a distributed run is byte-identical to a serial one
//     for the same reason a resumed run is.
//
//   - A CellCapture (worker side) narrows a grid to an assigned subset
//     of cells and records each computed result as JSON keyed by
//     CellKey. Grids other than the capture's target are skipped
//     entirely: the worker simulates only what it was assigned.

// GridDelegate computes grid cells out-of-process. RunGrid must return
// one JSON-encoded result per requested cell index — each the exact
// marshal of the cell value the local cell function would have produced
// — or an error; partial maps fail the grid. runGrid checkpoints the
// returned cells once RunGrid returns, so an implementation returns
// only results it trusts. Implementations live in internal/cluster (the
// coordinator); the harness only restores.
type GridDelegate interface {
	RunGrid(ctx context.Context, spec GridSpec, cells []int) (map[int]json.RawMessage, error)
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
	cells []int // sorted ascending, without duplicates

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
	sorted := slices.Clone(cells)
	sort.Ints(sorted)
	sorted = slices.Compact(sorted)
	return &CellCapture{grid: grid, cells: sorted, out: make(map[int]CapturedCell, len(sorted))}
}

// indices returns the capture's assigned cells that exist in a grid of
// n cells, sorted ascending. The slice is shared: callers must not
// modify it.
func (c *CellCapture) indices(n int) []int {
	return c.cells[sort.SearchInts(c.cells, 0):sort.SearchInts(c.cells, n)]
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
