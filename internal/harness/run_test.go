package harness

import (
	"bufio"
	"context"
	"encoding/json"
	"errors"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hammertime/internal/report"
)

// TestConcurrentRunsKeepTheirSettings runs two grids at once in one
// process under different Runs — strict on one worker against fail-soft
// on three, each with its own checkpoint — and checks each grid got its
// own outcome. With process-wide settings the second run would have
// overwritten the first's.
func TestConcurrentRunsKeepTheirSettings(t *testing.T) {
	dir := t.TempDir()
	open := func(name string) (*Checkpoint, string) {
		path := filepath.Join(dir, name)
		ck, err := OpenCheckpoint(path)
		if err != nil {
			t.Fatal(err)
		}
		return ck, path
	}
	strictCk, strictPath := open("strict.ckpt")
	softCk, softPath := open("soft.ckpt")

	// Both grids' cell 0 wait here until the other grid has started, so
	// the two runs are in flight at the same time.
	var bothStarted sync.WaitGroup
	bothStarted.Add(2)
	const n = 9
	type result struct {
		run  *GridRun[int]
		peak int32
	}
	grid := func(id string, rc Run) result {
		var inFlight, peak atomic.Int32
		run := runGrid(under(rc), GridSpec{ID: id, Config: "c"}, n, func(_ context.Context, i int) (int, error) {
			cur := inFlight.Add(1)
			defer inFlight.Add(-1)
			for p := peak.Load(); cur > p && !peak.CompareAndSwap(p, cur); p = peak.Load() {
			}
			if i == 0 {
				bothStarted.Done()
				bothStarted.Wait()
			}
			if i == 4 {
				return 0, errors.New("cell four broke")
			}
			// Hold each cell briefly so a three-worker pool is seen with
			// more than one cell in flight.
			time.Sleep(5 * time.Millisecond)
			return 10 * i, nil
		})
		return result{run, peak.Load()}
	}

	var strict, soft result
	var wg sync.WaitGroup
	wg.Add(2)
	go func() {
		defer wg.Done()
		strict = grid("t-strict", Run{Workers: 1, Checkpoint: strictCk})
	}()
	go func() {
		defer wg.Done()
		soft = grid("t-soft", Run{Policy: Policy{FailSoft: true}, Workers: 3, Checkpoint: softCk})
	}()
	wg.Wait()
	for _, ck := range []*Checkpoint{strictCk, softCk} {
		if err := ck.Close(); err != nil {
			t.Fatal(err)
		}
	}

	// Strict: the failing cell aborts the grid.
	var ce *CellError
	if err := strict.run.Err(); !errors.As(err, &ce) || ce.Index != 4 {
		t.Fatalf("strict run: err = %v, want cell 4's failure", strict.run.Err())
	}
	if strict.peak != 1 {
		t.Errorf("strict run on 1 worker had %d cells in flight", strict.peak)
	}
	// Fail-soft: the grid finishes and the failed cell renders ERR(...).
	if err := soft.run.Err(); err != nil {
		t.Fatalf("fail-soft run: err = %v", err)
	}
	if cell := soft.run.Cell(4, func(int) string { return "ok" }); !report.IsErrCell(cell) {
		t.Errorf("fail-soft cell 4 rendered %q, want ERR(...)", cell)
	}
	if soft.run.Results[8] != 80 {
		t.Errorf("fail-soft run did not finish: cell 8 = %d", soft.run.Results[8])
	}
	if soft.peak < 2 || soft.peak > 3 {
		t.Errorf("fail-soft run on 3 workers had %d cells in flight, want 2 or 3", soft.peak)
	}

	// Each run recorded only its own grid, in its own file: the strict
	// grid stopped at cell 4, the fail-soft grid recorded all but cell 4.
	if got, want := checkpointCells(t, strictPath), map[string][]int{"t-strict": {0, 1, 2, 3}}; !reflect.DeepEqual(got, want) {
		t.Errorf("strict checkpoint holds %v, want %v", got, want)
	}
	if got, want := checkpointCells(t, softPath), map[string][]int{"t-soft": {0, 1, 2, 3, 5, 6, 7, 8}}; !reflect.DeepEqual(got, want) {
		t.Errorf("fail-soft checkpoint holds %v, want %v", got, want)
	}
}

// checkpointCells reads a checkpoint file as grid -> sorted cell indices.
func checkpointCells(t *testing.T, path string) map[string][]int {
	t.Helper()
	f, err := os.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	out := make(map[string][]int)
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec ckRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("%s: %v", path, err)
		}
		out[rec.Grid] = append(out[rec.Grid], rec.Cell)
	}
	for _, cells := range out {
		sort.Ints(cells)
	}
	return out
}

// TestNoProcessWideState fails when the package grows a package-level
// variable outside the allowlist. How a grid runs belongs in the Run on
// its context, not in a global that concurrent runs would share.
func TestNoProcessWideState(t *testing.T) {
	allowed := map[string]string{
		"E1Defenses":        "read-only E1 lineup",
		"E4Defenses":        "read-only E4 lineup",
		"IdleDefenses":      "read-only idle lineup",
		"experimentRunners": "read-only dispatch table of experiment ids",
		"tenantLines":       "free list recycling tenant line lists; holds no settings",
		"cellCancelGrace":   "fixed reap grace for cancelled cells; never reassigned",
	}
	fset := token.NewFileSet()
	files, err := filepath.Glob("*.go")
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range files {
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		f, err := parser.ParseFile(fset, name, nil, 0)
		if err != nil {
			t.Fatal(err)
		}
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok || gd.Tok != token.VAR {
				continue
			}
			for _, spec := range gd.Specs {
				for _, id := range spec.(*ast.ValueSpec).Names {
					if _, ok := allowed[id.Name]; !ok && id.Name != "_" {
						t.Errorf("%s: package-level var %s: carry run settings in Run, or add it to the allowlist with a reason",
							fset.Position(id.Pos()), id.Name)
					}
				}
			}
		}
	}
}
