package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"testing"
	"time"

	"hammertime/internal/attack"
	"hammertime/internal/core"
	"hammertime/internal/obs"
	"hammertime/internal/telemetry"
)

func TestGridTelemetrySpansAndRecords(t *testing.T) {
	tr := telemetry.NewTracerWithID(0x1234)
	hub := telemetry.NewHub()
	sub := hub.Subscribe(64)
	ctx := telemetry.NewContext(under(Run{Policy: Policy{FailSoft: true}, Workers: 2}),
		&telemetry.Scope{Tracer: tr, Hub: hub})

	run := runGrid(ctx, GridSpec{ID: "tgrid"}, 4, func(ctx context.Context, i int) (int, error) {
		if i == 2 {
			return 0, fmt.Errorf("synthetic cell error")
		}
		return i * 10, nil
	})
	if run.Err() != nil {
		t.Fatalf("fail-soft grid errored: %v", run.Err())
	}

	spans := tr.Snapshot()
	var grid *telemetry.SpanSnap
	cells := 0
	for i := range spans {
		switch spans[i].Name {
		case "grid:tgrid":
			grid = &spans[i]
		case "cell":
			cells++
		}
	}
	if grid == nil || cells != 4 {
		t.Fatalf("got grid=%v cells=%d, want grid span and 4 cell spans", grid, cells)
	}
	lanes := map[telemetry.SpanID]bool{}
	for _, s := range spans {
		if s.Name != "cell" {
			continue
		}
		if s.Parent != grid.ID {
			t.Fatalf("cell span parent %d, want grid %d", s.Parent, grid.ID)
		}
		if lanes[s.Lane] {
			t.Fatal("two cell spans share a lane")
		}
		lanes[s.Lane] = true
		if s.End.IsZero() {
			t.Fatal("cell span left open")
		}
	}
	if grid.End.IsZero() {
		t.Fatal("grid span left open")
	}

	msgs, dropped := sub.Take()
	if dropped != 0 {
		t.Fatalf("dropped %d records with a roomy ring", dropped)
	}
	var cellRecs []telemetry.CellDone
	var lastProg telemetry.Progress
	progs := 0
	for _, m := range msgs {
		switch m.Type {
		case "cell":
			var cd telemetry.CellDone
			if err := json.Unmarshal(m.Data, &cd); err != nil {
				t.Fatal(err)
			}
			cellRecs = append(cellRecs, cd)
		case "progress":
			progs++
			prevDone := lastProg.Done
			if err := json.Unmarshal(m.Data, &lastProg); err != nil {
				t.Fatal(err)
			}
			if lastProg.Done <= prevDone {
				t.Fatalf("progress record %d has done=%d after done=%d; records must strictly increase",
					progs, lastProg.Done, prevDone)
			}
		}
	}
	if len(cellRecs) != 4 || progs != 4 {
		t.Fatalf("got %d cell records, %d progress records; want 4 and 4", len(cellRecs), progs)
	}
	failed := 0
	for _, cd := range cellRecs {
		if cd.Grid != "tgrid" {
			t.Fatalf("cell record grid %q", cd.Grid)
		}
		if cd.Err != "" {
			failed++
			if cd.Index != 2 {
				t.Fatalf("failure recorded for cell %d, want 2", cd.Index)
			}
		}
	}
	if failed != 1 {
		t.Fatalf("%d failed cell records, want 1", failed)
	}
	if lastProg.Done != 4 || lastProg.Total != 4 || lastProg.Failed != 1 {
		t.Fatalf("final progress %+v, want done=4 total=4 failed=1", lastProg)
	}
}

func TestGridWithoutScopeHasNoTelemetry(t *testing.T) {
	run := runGrid(context.Background(), GridSpec{ID: "plain"}, 2, func(ctx context.Context, i int) (int, error) {
		if telemetry.SpanFrom(ctx) != nil {
			t.Error("cell received a span without a scope")
		}
		return i, nil
	})
	if run.Err() != nil {
		t.Fatal(run.Err())
	}
}

// lockedBuf makes a bytes.Buffer safe to read while the slow-cell
// watchdog goroutine is still writing warnings into it.
type lockedBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuf) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

func (b *lockedBuf) Reset() {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.buf.Reset()
}

func TestSlowCellWatchdog(t *testing.T) {
	var buf lockedBuf
	ctx := under(Run{
		Policy: Policy{SlowCellWarn: 10 * time.Millisecond},
		Logger: slog.New(slog.NewTextHandler(&buf, nil)),
	})

	runGrid(ctx, GridSpec{ID: "slow"}, 1, func(ctx context.Context, i int) (int, error) {
		time.Sleep(60 * time.Millisecond)
		return 0, nil
	})
	if !strings.Contains(buf.String(), "slow cell still running") {
		t.Fatalf("no watchdog warning logged:\n%s", buf.String())
	}
	if !strings.Contains(buf.String(), "grid=slow") {
		t.Fatalf("warning missing grid attribute:\n%s", buf.String())
	}

	// A fast cell must not warn.
	buf.Reset()
	runGrid(ctx, GridSpec{ID: "fast"}, 1, func(ctx context.Context, i int) (int, error) {
		return 0, nil
	})
	time.Sleep(30 * time.Millisecond)
	if strings.Contains(buf.String(), "slow cell") {
		t.Fatalf("fast cell tripped the watchdog:\n%s", buf.String())
	}
}

// TestE1ByteIdenticalWithTelemetry pins the observer-only contract for
// the whole telemetry stack: the same E1 grid renders byte-identical
// tables with no scope and with the full scope a hammerd job carries
// (tracer + hub + event-streaming observer).
func TestE1ByteIdenticalWithTelemetry(t *testing.T) {
	defenses := []string{"none", "trr", "anvil"}
	opts := AttackOpts{Horizon: 200_000}
	plain, err := E1Matrix(context.Background(), defenses, 12, opts)
	if err != nil {
		t.Fatal(err)
	}

	hub := telemetry.NewHub()
	sub := hub.Subscribe(1024)
	defer hub.Unsubscribe(sub)
	ctx := telemetry.NewContext(context.Background(), &telemetry.Scope{
		Tracer:   telemetry.NewTracer(),
		Hub:      hub,
		Observer: obs.NewRecorder(obs.NewSyncSink(hub.ObsSink())),
	})
	traced, err := E1Matrix(ctx, defenses, 12, opts)
	if err != nil {
		t.Fatal(err)
	}
	if plain.String() != traced.String() {
		t.Fatalf("telemetry changed the E1 table:\n--- plain ---\n%s\n--- traced ---\n%s",
			plain.String(), traced.String())
	}
	if msgs, _ := sub.Take(); len(msgs) == 0 {
		t.Fatal("traced run published nothing to the hub")
	}
}

func TestRunAttackCtxScopeObserverAndSpans(t *testing.T) {
	tr := telemetry.NewTracerWithID(0x77)
	ring := obs.NewRing(1 << 16)
	rec := obs.NewRecorder(ring)
	ctx := telemetry.NewContext(context.Background(), &telemetry.Scope{
		Tracer:   tr,
		Hub:      telemetry.NewHub(),
		Observer: rec,
	})

	out, err := RunAttackCtx(ctx, core.DefaultSpec(), nil, attack.Catalog(8)[0], AttackOpts{Horizon: 200_000})
	if err != nil {
		t.Fatal(err)
	}
	if out.Result.Horizon != 200_000 {
		t.Fatalf("horizon %d", out.Result.Horizon)
	}
	if ring.Total() == 0 {
		t.Fatal("scope observer received no events: recorder not attached from context")
	}

	names := map[string]int{}
	var runSpan telemetry.SpanSnap
	for _, s := range tr.Snapshot() {
		names[s.Name]++
		if s.Name == "machine.run" {
			runSpan = s
		}
	}
	if names["machine.run"] != 1 || names["machine.drain"] != 1 {
		t.Fatalf("span names %v, want one machine.run and one machine.drain", names)
	}
	if !runSpan.HasCycles || runSpan.EndCycle < 200_000 {
		t.Fatalf("machine.run cycles %d..%d, want end >= horizon", runSpan.StartCycle, runSpan.EndCycle)
	}
}
