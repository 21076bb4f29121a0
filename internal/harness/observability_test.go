package harness

import (
	"bytes"
	"context"
	"encoding/json"
	"testing"

	"hammertime/internal/attack"
	"hammertime/internal/core"
	"hammertime/internal/defense"
	"hammertime/internal/obs"
)

func obsTestOpts(rec *obs.Recorder) AttackOpts {
	return AttackOpts{Horizon: 600_000, Tenants: 2, PagesPerTenant: 32, Observer: rec}
}

// TestObserverByteIdentical is the core observability contract: attaching
// a recorder must not change simulation results at all.
func TestObserverByteIdentical(t *testing.T) {
	d1, err := defense.New("swrefresh")
	if err != nil {
		t.Fatal(err)
	}
	d2, err := defense.New("swrefresh")
	if err != nil {
		t.Fatal(err)
	}
	kind := attack.Kind{Name: "double-sided", Sided: 2}

	plain, err := RunAttack(core.DefaultSpec(), d1, kind, obsTestOpts(nil))
	if err != nil {
		t.Fatal(err)
	}
	ring := obs.NewRing(1 << 16)
	observed, err := RunAttack(core.DefaultSpec(), d2, kind, obsTestOpts(obs.NewRecorder(ring)))
	if err != nil {
		t.Fatal(err)
	}

	if plain.Flips != observed.Flips || plain.CrossFlips != observed.CrossFlips ||
		plain.BenignSteps != observed.BenignSteps {
		t.Fatalf("observer changed the outcome: plain=%+v observed=%+v", plain, observed)
	}
	if got, want := observed.Result.Stats.String(), plain.Result.Stats.String(); got != want {
		t.Errorf("observer changed the stats:\n--- plain ---\n%s--- observed ---\n%s", want, got)
	}
	if ring.Total() == 0 {
		t.Error("recorder attached but saw no events")
	}
	if ring.Count(obs.KindACT) == 0 || ring.Count(obs.KindREF) == 0 {
		t.Errorf("expected ACT and REF events, got %d/%d", ring.Count(obs.KindACT), ring.Count(obs.KindREF))
	}
}

// chromeEvent mirrors the fields of a Chrome trace-event record that the
// test asserts on.
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	Args map[string]any `json:"args"`
}

// TestChromeTraceEndToEnd runs an attack under a triggering defense with
// a Chrome-trace sink attached and checks the acceptance criterion: the
// output is valid trace-event JSON containing ACT, REF and
// defense-trigger events spanning at least two banks.
func TestChromeTraceEndToEnd(t *testing.T) {
	d, err := defense.New("swrefresh")
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	sink := obs.NewChromeTrace(&buf)
	rec := obs.NewRecorder(sink)
	// The detector needs a few refresh windows of evidence before it
	// flags an aggressor, so run longer than the byte-identical test.
	opts := obsTestOpts(rec)
	opts.Horizon = 2_000_000
	if _, err := RunAttack(core.DefaultSpec(), d, attack.Kind{Name: "double-sided", Sided: 2}, opts); err != nil {
		t.Fatal(err)
	}
	if err := rec.Flush(); err != nil {
		t.Fatal(err)
	}

	var file struct {
		TraceEvents []chromeEvent `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &file); err != nil {
		t.Fatalf("not valid Chrome trace JSON: %v", err)
	}
	actBanks := map[int]bool{}
	var refs, triggers int
	for _, ev := range file.TraceEvents {
		switch ev.Name {
		case "act":
			actBanks[ev.Tid] = true
		case "ref":
			refs++
		case "defense-trigger":
			triggers++
		}
	}
	if len(actBanks) < 2 {
		t.Errorf("ACT events cover %d banks, want >= 2", len(actBanks))
	}
	if refs == 0 {
		t.Error("no REF events in trace")
	}
	if triggers == 0 {
		t.Error("no defense-trigger events in trace")
	}
}

// TestBenchCollectorReport checks the BENCH_harness.json shape: per-cell
// wall-clock recorded by runGrid and per-experiment events/sec.
func TestBenchCollectorReport(t *testing.T) {
	rc := Run{Workers: 2}
	c := NewBenchCollector("harness-test", rc.WorkerCount())
	rc.Bench = c

	c.Begin("grid")
	run := runGrid(under(rc), GridSpec{}, 4, func(context.Context, int) (struct{}, error) { return struct{}{}, nil })
	if err := run.Err(); err != nil {
		t.Fatal(err)
	}
	c.addEvents(1000)
	c.End()

	rep := c.Report()
	if rep.Name != "harness-test" || rep.CPUs <= 0 || rep.Parallelism != 2 {
		t.Fatalf("report header = %+v", rep)
	}
	if len(rep.Experiments) != 1 {
		t.Fatalf("experiments = %+v", rep.Experiments)
	}
	e := rep.Experiments[0]
	if e.ID != "grid" || len(e.Cells) != 4 || e.Events != 1000 || e.EventsPerSec <= 0 {
		t.Fatalf("experiment = %+v", e)
	}
	seen := map[int]bool{}
	for _, cell := range e.Cells {
		seen[cell.Index] = true
	}
	if len(seen) != 4 {
		t.Fatalf("cell indices = %+v", e.Cells)
	}

	data, err := json.Marshal(rep)
	if err != nil {
		t.Fatal(err)
	}
	for _, key := range []string{`"name"`, `"experiments"`, `"wall_ns"`, `"events_per_sec"`, `"cells"`, `"index"`} {
		if !bytes.Contains(data, []byte(key)) {
			t.Errorf("report JSON missing %s: %s", key, data)
		}
	}
}
