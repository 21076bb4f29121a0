package harness

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"
)

// TestRunCellsCoversAllIndices checks every cell runs exactly once and the
// pool never exceeds its worker bound.
func TestRunCellsCoversAllIndices(t *testing.T) {
	const n, workers = 97, 4
	var ran [n]int32
	var inFlight, peak int32
	run := runGrid(under(Run{Workers: workers}), GridSpec{}, n, func(_ context.Context, i int) (struct{}, error) {
		cur := atomic.AddInt32(&inFlight, 1)
		for {
			p := atomic.LoadInt32(&peak)
			if cur <= p || atomic.CompareAndSwapInt32(&peak, p, cur) {
				break
			}
		}
		atomic.AddInt32(&ran[i], 1)
		atomic.AddInt32(&inFlight, -1)
		return struct{}{}, nil
	})
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	for i := range ran {
		if ran[i] != 1 {
			t.Fatalf("cell %d ran %d times", i, ran[i])
		}
	}
	if peak > workers {
		t.Fatalf("concurrency peak %d exceeds %d workers", peak, workers)
	}
}

// TestRunCellsPropagatesError checks an error stops the pool and the
// lowest-index error among the attempted cells is returned.
func TestRunCellsPropagatesError(t *testing.T) {
	boom := errors.New("boom")
	for _, workers := range []int{1, 3} {
		var attempted int32
		run := runGrid(under(Run{Workers: workers}), GridSpec{}, 50, func(_ context.Context, i int) (struct{}, error) {
			atomic.AddInt32(&attempted, 1)
			if i >= 5 {
				return struct{}{}, boom
			}
			return struct{}{}, nil
		})
		if err := run.Err(); !errors.Is(err, boom) {
			t.Fatalf("workers=%d: err = %v, want %v", workers, run.Err(), boom)
		}
		if attempted == 50 {
			t.Errorf("workers=%d: pool did not stop early", workers)
		}
	}
}

// TestRunCellsResolvesWorkers pins the worker-count resolution: the
// Run's Workers when set, GOMAXPROCS otherwise, and a context without a
// Run gets the zero Run.
func TestRunCellsResolvesWorkers(t *testing.T) {
	if got := (Run{Workers: 3}).WorkerCount(); got != 3 {
		t.Fatalf("Run{Workers: 3}.WorkerCount() = %d", got)
	}
	if got, want := (Run{}).WorkerCount(), runtime.GOMAXPROCS(0); got != want {
		t.Fatalf("default WorkerCount() = %d, want GOMAXPROCS %d", got, want)
	}
	if got := RunFrom(under(Run{Workers: 7})).WorkerCount(); got != 7 {
		t.Fatalf("WorkerCount() of the context's Run = %d, want 7", got)
	}
	if got := RunFrom(context.Background()); got != (Run{}) {
		t.Fatalf("RunFrom(no Run) = %+v, want the zero Run", got)
	}
}

// TestE1MatrixParallelDeterminism is the RNG-forking contract guard: the
// E1 grid must render byte-identically no matter how many workers execute
// it, because every cell's randomness is a pure function of the cell, not
// of scheduling order.
func TestE1MatrixParallelDeterminism(t *testing.T) {
	defenses := []string{"none", "trr", "swrefresh", "anvil"}
	run := func(workers int) string {
		tb, err := E1Matrix(under(Run{Workers: workers}), defenses, 8, AttackOpts{Horizon: 600_000})
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tb.String()
	}
	serial := run(1)
	for _, workers := range []int{2, 4, 7} {
		if got := run(workers); got != serial {
			t.Errorf("workers=%d table differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serial, got)
		}
	}
}

// TestE2ParallelDeterminism covers a grid whose cells draw per-machine
// forked RNG streams (the random workload) and whose table has a
// cross-cell baseline column computed after assembly.
func TestE2ParallelDeterminism(t *testing.T) {
	run := func(workers int) string {
		tb, _, err := E2Interleaving(under(Run{Workers: workers}), 300_000)
		if err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		return tb.String()
	}
	serial := run(1)
	for _, workers := range []int{3, 8} {
		if got := run(workers); got != serial {
			t.Errorf("workers=%d table differs from serial:\n--- serial ---\n%s\n--- parallel ---\n%s",
				workers, serial, got)
		}
	}
}
