package harness

import (
	"context"
	"fmt"

	"hammertime/internal/report"
)

// The experiment shape. Every table of the suite (E1-E10, idle) is a
// grid of independent cells laid out row-major under its table: table
// row r shows cells r*cols .. r*cols+cols-1 between the row's label
// cells. An experiment declares the grid (GridSpec and size), the
// table's title and headers, a typed cell function and how a successful
// cell renders; table runs the grid and builds the table, so every
// experiment fails the same way. A strict grid returns its first
// failure, a cancelled one its cancellation; under fail-soft a failed
// cell renders one ERR(...) in the first column its result fills and
// "-" in its other columns, and a value a renderer derives from another
// cell (E2's and E4's baselines) renders "-" when that cell failed.

// experiment declares one table.
type experiment[T any] struct {
	spec    GridSpec
	title   string
	headers []string
	// rows x cols is the grid; every table row holds cols cells.
	rows, cols int
	// label returns the cells of table row r before and after its grid
	// cells; they must not depend on any result.
	label func(r int) (lead, tail []any)
	cell  func(ctx context.Context, i int) (T, error)
	// render returns the columns successful cell i fills, formatted as
	// report.Table.AddRowf formats them. run holds the whole grid, for
	// values derived from other cells.
	render func(run *GridRun[T], i int) []any
}

// table runs the grid and renders it, returning the run for callers
// that hand back typed results.
func (e experiment[T]) table(ctx context.Context) (*report.Table, *GridRun[T], error) {
	run := runGrid(ctx, e.spec, e.rows*e.cols, e.cell)
	if err := run.Err(); err != nil {
		return nil, nil, err
	}
	tb := report.NewTable(e.title, e.headers...)
	for r := 0; r < e.rows; r++ {
		lead, tail := e.label(r)
		width := (len(e.headers) - len(lead) - len(tail)) / e.cols
		row := append(make([]any, 0, len(e.headers)), lead...)
		for i := r * e.cols; i < (r+1)*e.cols; i++ {
			ce := run.Failed(i)
			if ce == nil {
				row = append(row, e.render(run, i)...)
				continue
			}
			row = append(row, report.ErrCellN(ce.Reason(), ce.Attempts))
			for range width - 1 {
				row = append(row, "-")
			}
		}
		tb.AddRowf(append(row, tail...)...)
	}
	return tb, run, nil
}

// registry is the suite in the order hammerbench prints it: one entry
// per experiment id, adapting (horizon, opts) to the experiment's
// function. horizon 0 means the experiment's default; opts carries the
// E1 knobs and is ignored by the others. E2, E6, E7 and E9 drop their
// typed results here; callers that need them call those functions.
var registry = []struct {
	id  string
	run func(ctx context.Context, horizon uint64, opts AttackOpts) (*report.Table, error)
}{
	{"e1", func(ctx context.Context, h uint64, opts AttackOpts) (*report.Table, error) {
		opts.Horizon = h
		sided := opts.ManySided
		if sided == 0 {
			sided = 12
		}
		return E1Matrix(ctx, opts.Defenses, sided, opts)
	}},
	{"e2", func(ctx context.Context, h uint64, _ AttackOpts) (*report.Table, error) {
		tb, _, err := E2Interleaving(ctx, h)
		return tb, err
	}},
	{"e3", func(ctx context.Context, h uint64, _ AttackOpts) (*report.Table, error) {
		return E3DensityScaling(ctx, h)
	}},
	{"e4", func(ctx context.Context, h uint64, _ AttackOpts) (*report.Table, error) {
		return E4Overhead(ctx, h, nil)
	}},
	{"e5", func(ctx context.Context, h uint64, _ AttackOpts) (*report.Table, error) {
		return E5TRRBypass(ctx, h, nil, nil)
	}},
	{"e6", func(ctx context.Context, h uint64, _ AttackOpts) (*report.Table, error) {
		tb, _, err := E6ActInterrupt(ctx, h)
		return tb, err
	}},
	{"e7", func(ctx context.Context, _ uint64, _ AttackOpts) (*report.Table, error) {
		tb, _, err := E7RefreshPath(ctx)
		return tb, err
	}},
	{"e8", func(ctx context.Context, h uint64, _ AttackOpts) (*report.Table, error) { return E8Enclave(ctx, h) }},
	{"e9", func(ctx context.Context, _ uint64, _ AttackOpts) (*report.Table, error) {
		tb, _, err := E9ECC(ctx, nil)
		return tb, err
	}},
	{"e10", func(ctx context.Context, h uint64, _ AttackOpts) (*report.Table, error) { return E10HalfDouble(ctx, h) }},
	{"idle", func(ctx context.Context, h uint64, _ AttackOpts) (*report.Table, error) {
		return IdleFastForward(ctx, h)
	}},
}

// ExperimentIDs returns the experiment ids in suite order (e1..e10, idle).
func ExperimentIDs() []string {
	ids := make([]string, len(registry))
	for i, e := range registry {
		ids[i] = e.id
	}
	return ids
}

// ValidExperiment reports whether id names an experiment of the suite.
func ValidExperiment(id string) bool {
	for _, e := range registry {
		if e.id == id {
			return true
		}
	}
	return false
}

// Experiment runs the named experiment under ctx and returns its table.
// Cancelling ctx tears the grid down at the next cancellation point
// (core.ErrCancelled). horizon 0 uses the experiment's default; opts
// carries the E1 knobs (defenses, many-sided N, observer) and is
// ignored by experiments that don't take them.
func Experiment(ctx context.Context, id string, horizon uint64, opts AttackOpts) (*report.Table, error) {
	for _, e := range registry {
		if e.id == id {
			return e.run(ctx, horizon, opts)
		}
	}
	return nil, fmt.Errorf("harness: unknown experiment %q (want one of %v)", id, ExperimentIDs())
}
