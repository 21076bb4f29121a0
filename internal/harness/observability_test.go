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
	"hammertime/internal/telemetry"
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

// eventsUnderHub runs fn under a context whose telemetry hub counts
// simulated events — the counter the -metrics-out report reads — and
// returns how many fn added.
func eventsUnderHub(t *testing.T, fn func(ctx context.Context) error) uint64 {
	t.Helper()
	hub := telemetry.NewHub()
	ctx := telemetry.NewContext(under(Run{Workers: 2}), &telemetry.Scope{Hub: hub})
	if err := fn(ctx); err != nil {
		t.Fatal(err)
	}
	return hub.Events()
}

// TestBenchCountsE4Events checks that simulated events are counted for
// every experiment that runs a machine, not only the attack cells: E4's
// benign cells must add to the hub's event counter.
func TestBenchCountsE4Events(t *testing.T) {
	n := eventsUnderHub(t, func(ctx context.Context) error {
		_, err := E4Overhead(ctx, 200_000, []float64{0.001})
		return err
	})
	if n == 0 {
		t.Fatal("E4 counted 0 events")
	}
}

// TestBenchCountsEveryExperiment checks that every dispatchable
// experiment counts simulated events, including E7, whose cells drive
// the controller directly instead of running a machine.
func TestBenchCountsEveryExperiment(t *testing.T) {
	for _, id := range ExperimentIDs() {
		n := eventsUnderHub(t, func(ctx context.Context) error {
			_, err := Experiment(ctx, id, 200_000, AttackOpts{})
			return err
		})
		if n == 0 {
			t.Errorf("%s counted 0 events", id)
		}
	}
}
