package harness

import (
	"context"
	"encoding/json"
	"fmt"
	"maps"
	"slices"
	"sort"
	"sync"
)

// Distribution hooks: the two halves of the coordinator/worker split
// (internal/cluster) are fields of the context's Run (Delegate and
// capture), so the experiment code itself — E1Matrix and friends —
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
//   - ComputeCells (worker side, and the coordinator's in-process
//     fallback and audit) runs an experiment narrowed to an assigned
//     subset of one grid's cells and returns each computed result as
//     JSON keyed by CellKey. Grids other than the target are skipped
//     entirely: the caller simulates only what it was assigned.

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

// ComputeCells runs experiment in-process with the context's Run
// narrowed to the given cells of grid and its delegate cleared, so the
// run cannot recurse into dispatch, and returns each cell's key and
// JSON. config is the grid's config string as observed here ("" when
// the grid never ran), for the caller to check against its own. It
// fails when a cell value does not marshal, the grid never ran, or a
// requested cell was not computed; the last two carry the run's error
// when it had one.
func ComputeCells(ctx context.Context, experiment string, horizon uint64, opts AttackOpts, grid string, cells []int) (config string, results map[int]CapturedCell, err error) {
	capture := newCellCapture(grid, cells)
	run := RunFrom(ctx)
	run.capture, run.Delegate = capture, nil
	_, runErr := Experiment(WithRun(ctx, run), experiment, horizon, opts)
	capture.mu.Lock()
	defer capture.mu.Unlock()
	if capture.err != nil {
		return capture.config, nil, capture.err
	}
	if !capture.reached {
		if runErr != nil {
			return "", nil, fmt.Errorf("harness: grid %q never ran: %w", grid, runErr)
		}
		return "", nil, fmt.Errorf("harness: experiment %q has no grid %q", experiment, grid)
	}
	for _, i := range capture.cells {
		if _, ok := capture.out[i]; ok {
			continue
		}
		if runErr != nil {
			return capture.config, nil, fmt.Errorf("harness: cell %d incomplete: %w", i, runErr)
		}
		return capture.config, nil, fmt.Errorf("harness: cell %d out of range for grid %q", i, grid)
	}
	return capture.config, maps.Clone(capture.out), nil
}

// cellCapture restricts a run to one grid's assigned cells and collects
// their results as (CellKey, JSON) pairs: ComputeCells sets it as the
// Run's capture.
type cellCapture struct {
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

// newCellCapture builds a capture for the given cells of grid.
func newCellCapture(grid string, cells []int) *cellCapture {
	sorted := slices.Clone(cells)
	sort.Ints(sorted)
	sorted = slices.Compact(sorted)
	return &cellCapture{grid: grid, cells: sorted, out: make(map[int]CapturedCell, len(sorted))}
}

// indices returns the capture's assigned cells that exist in a grid of
// n cells, sorted ascending. The slice is shared: callers must not
// modify it.
func (c *cellCapture) indices(n int) []int {
	return c.cells[sort.SearchInts(c.cells, 0):sort.SearchInts(c.cells, n)]
}

// arm records that the target grid was reached and its config string —
// the worker compares it against the coordinator's to detect skew.
func (c *cellCapture) arm(config string) {
	c.mu.Lock()
	c.reached = true
	c.config = config
	c.mu.Unlock()
}

// record captures one computed cell.
func (c *cellCapture) record(spec GridSpec, i int, v any) {
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
