package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hammertime/internal/check/diff"
	"hammertime/internal/cluster/resilience"
	"hammertime/internal/fault"
	"hammertime/internal/harness"
	"hammertime/internal/sim"
)

func TestPartitionEdgeCases(t *testing.T) {
	seq := func(n int) []int {
		out := make([]int, n)
		for i := range out {
			out[i] = i
		}
		return out
	}
	cases := []struct {
		name      string
		cells     []int
		workers   int
		batchSize int
		want      [][]int
	}{
		{"one cell many workers", seq(1), 8, 4, [][]int{{0}}},
		{"fewer cells than workers", seq(3), 5, 4, [][]int{{0}, {1}, {2}}},
		{"batch size one", seq(4), 2, 1, [][]int{{0}, {1}, {2}, {3}}},
		{"cap at batch size", seq(8), 2, 2, [][]int{{0, 1}, {2, 3}, {4, 5}, {6, 7}}},
		{"even split", seq(6), 3, 4, [][]int{{0, 1}, {2, 3}, {4, 5}}},
		{"uneven tail", seq(7), 3, 4, [][]int{{0, 1, 2}, {3, 4, 5}, {6}}},
		{"no cells", nil, 3, 4, nil},
		{"single worker", seq(5), 1, 2, [][]int{{0, 1}, {2, 3}, {4}}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			got := partition(tc.cells, tc.workers, tc.batchSize)
			if len(got) != len(tc.want) {
				t.Fatalf("partition(%v, %d, %d) = %v, want %v", tc.cells, tc.workers, tc.batchSize, got, tc.want)
			}
			for i := range got {
				if len(got[i]) != len(tc.want[i]) {
					t.Fatalf("batch %d = %v, want %v", i, got[i], tc.want[i])
				}
				for k := range got[i] {
					if got[i][k] != tc.want[i][k] {
						t.Fatalf("batch %d = %v, want %v", i, got[i], tc.want[i])
					}
				}
			}
		})
	}
}

func TestRegistryTTLBoundary(t *testing.T) {
	reg := NewRegistryConfig(RegistryConfig{TTL: 10 * time.Second})
	now := time.Unix(1000, 0)
	reg.now = func() time.Time { return now }
	reg.Register("a", "http://a", 1)

	// Exactly at the TTL boundary the worker is still live; one
	// nanosecond past it is not.
	now = now.Add(10 * time.Second)
	if len(reg.Live()) != 1 {
		t.Fatal("worker dead exactly at TTL")
	}
	now = now.Add(time.Nanosecond)
	if len(reg.Live()) != 0 {
		t.Fatal("worker live past TTL")
	}
}

func TestRegistryFlap(t *testing.T) {
	reg := NewRegistryConfig(RegistryConfig{TTL: 10 * time.Second})
	now := time.Unix(1000, 0)
	reg.now = func() time.Time { return now }

	// A flapping worker: registers, goes silent past TTL, comes back —
	// repeatedly. Each return restores liveness under the same entry.
	for i := 0; i < 5; i++ {
		reg.Register("flappy", "http://f", 1)
		if len(reg.Live()) != 1 {
			t.Fatalf("cycle %d: flapping worker not live after heartbeat", i)
		}
		now = now.Add(11 * time.Second)
		if len(reg.Live()) != 0 {
			t.Fatalf("cycle %d: silent worker still live", i)
		}
	}
	if got := len(reg.Views()); got != 1 {
		t.Fatalf("flapping under one name left %d entries, want 1", got)
	}
}

func TestRegistryEvictsSilentWorkers(t *testing.T) {
	reg := NewRegistryConfig(RegistryConfig{TTL: 10 * time.Second, SweepAfter: 4})
	now := time.Unix(1000, 0)
	reg.now = func() time.Time { return now }

	// Flapping workers re-registering under fresh names must not grow
	// the map forever: entries silent for SweepAfter×TTL are removed.
	for i := 0; i < 20; i++ {
		reg.Register(fmt.Sprintf("ephemeral-%d", i), "http://e", 1)
		now = now.Add(11 * time.Second)
	}
	// 4×10s of silence evicts; at 11s per cycle, only the last ~4 names
	// can still be within the sweep window.
	reg.Register("fresh", "http://f", 1)
	if got := len(reg.Views()); got > 5 {
		t.Fatalf("registry holds %d entries after churn, want <= 5 (map must shrink)", got)
	}
	if got := reg.Evicted(); got < 15 {
		t.Fatalf("evicted counter %d, want >= 15", got)
	}

	// A quarantined entry survives the sweep: eviction must not launder
	// the penalty.
	reg.Register("corrupt", "http://c", 1)
	reg.Quarantine("corrupt", time.Hour)
	now = now.Add(10 * time.Minute)
	reg.Register("poke", "http://p", 1) // triggers a sweep
	if !reg.IsQuarantined("corrupt") {
		t.Fatal("sweep laundered an active quarantine")
	}
	if reg.Register("corrupt", "http://c", 1) {
		t.Fatal("quarantined heartbeat accepted")
	}
}

func TestRegistryQuarantineLifecycle(t *testing.T) {
	reg := NewRegistryConfig(RegistryConfig{
		TTL:     time.Minute,
		Breaker: resilience.BreakerConfig{Threshold: 3, Cooldown: 5 * time.Second},
	})
	now := time.Unix(1000, 0)
	reg.now = func() time.Time { return now }

	reg.Register("w", "http://w", 1)
	if !reg.Quarantine("w", 10*time.Minute) {
		t.Fatal("quarantine of a known worker failed")
	}
	if len(reg.Live()) != 0 {
		t.Fatal("quarantined worker still live")
	}
	if reg.Register("w", "http://w", 1) {
		t.Fatal("heartbeat accepted during quarantine")
	}
	if reg.Quarantined() != 1 {
		t.Fatal("quarantined gauge != 1")
	}
	views := reg.Views()
	if len(views) != 1 || views[0].Breaker != "quarantined" || !views[0].Quarantined {
		t.Fatalf("views %+v, want quarantined state", views)
	}

	// Penalty ends: heartbeats resume, but the worker re-enters only as
	// a half-open probe — one clean batch gates real traffic.
	now = now.Add(10*time.Minute + time.Second)
	if !reg.Register("w", "http://w", 1) {
		t.Fatal("heartbeat rejected after penalty ended")
	}
	live := reg.Live()
	if len(live) != 1 || !live[0].Probe {
		t.Fatalf("post-quarantine live %+v, want probe", live)
	}
	reg.ReportSuccess("w")
	live = reg.Live()
	if len(live) != 1 || live[0].Probe {
		t.Fatalf("post-probe live %+v, want closed", live)
	}
	if reg.Quarantine("ghost", time.Hour) {
		t.Fatal("quarantine of unknown worker reported true")
	}
}

func TestMountValidatesAddr(t *testing.T) {
	d := NewDispatcher(DispatcherConfig{})
	mux := http.NewServeMux()
	d.Mount(mux)
	srv := httptest.NewServer(mux)
	t.Cleanup(srv.Close)

	post := func(body string) int {
		t.Helper()
		resp, err := http.Post(srv.URL+"/v1/cluster/register", "application/json", strings.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}
	for _, bad := range []string{
		`{"name":"w","addr":"not a url"}`,
		`{"name":"w","addr":"10.0.0.7:9091"}`,       // no scheme
		`{"name":"w","addr":"ftp://10.0.0.7:9091"}`, // wrong scheme
		`{"name":"w","addr":"http://"}`,             // no host
		`{"name":"w","addr":""}`,                    // empty
		`{"addr":"http://10.0.0.7:9091"}`,           // no name
		`{"name":"w","addr":"http://10.0.0.7:9091","slots":-1}`,
		`{"name":"w","addr":"http://10.0.0.7:9091","slots":1025}`,
	} {
		if got := post(bad); got != http.StatusBadRequest {
			t.Errorf("register %s -> %d, want 400", bad, got)
		}
	}
	if got := post(`{"name":"w","addr":"http://10.0.0.7:9091"}`); got != http.StatusOK {
		t.Fatalf("valid register -> %d, want 200", got)
	}
	if live := d.Registry().Live(); len(live) != 1 || live[0].Slots != 1 {
		t.Fatalf("live %+v after register, want w with 1 slot", live)
	}

	// The fleet listing carries each worker's slots and the credits its
	// batches hold.
	if got := post(`{"name":"big","addr":"http://10.0.0.9:9091","slots":1024}`); got != http.StatusOK {
		t.Fatalf("register with 1024 slots -> %d, want 200", got)
	}
	if !d.credits.take(Worker{Name: "big", Slots: 1024}) {
		t.Fatal("no credit free on an idle worker")
	}
	resp, err := http.Get(srv.URL + "/v1/cluster/workers")
	if err != nil {
		t.Fatal(err)
	}
	var views []WorkerView
	err = json.NewDecoder(resp.Body).Decode(&views)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	if len(views) != 2 || views[0].Name != "big" || views[0].Slots != 1024 || views[0].Inflight != 1 ||
		views[1].Slots != 1 || views[1].Inflight != 0 {
		t.Fatalf("workers %+v, want big with 1024 slots and 1 in flight, w with 1 slot", views)
	}
	d.credits.release("big")
	post(`{"name":"big","deregister":true}`)

	// Deregister drops the worker from dispatch immediately.
	if got := post(`{"name":"w","deregister":true}`); got != http.StatusOK {
		t.Fatalf("deregister -> %d, want 200", got)
	}
	if got := len(d.Registry().Live()); got != 0 {
		t.Fatalf("live %d after deregister, want 0", got)
	}

	// A quarantined worker's heartbeat is refused with 403.
	post(`{"name":"q","addr":"http://10.0.0.8:9091"}`)
	d.Registry().Quarantine("q", time.Hour)
	if got := post(`{"name":"q","addr":"http://10.0.0.8:9091"}`); got != http.StatusForbidden {
		t.Fatalf("quarantined heartbeat -> %d, want 403", got)
	}
}

func TestWorkerDrainRefusesNewBatches(t *testing.T) {
	node := &WorkerNode{Name: "w"}
	srv := httptest.NewServer(node.Handler())
	t.Cleanup(srv.Close)

	node.StartDrain()
	resp, err := http.Post(srv.URL+"/v1/cells", "application/json",
		strings.NewReader(`{"experiment":"e1","grid":"e1","cells":[0]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusServiceUnavailable {
		t.Fatalf("draining worker answered %d, want 503", resp.StatusCode)
	}
	if resp.Header.Get("Retry-After") == "" {
		t.Fatal("503 without Retry-After")
	}
	// Liveness stays up during the drain (the server is still draining,
	// not dead).
	h, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	h.Body.Close()
	if h.StatusCode != http.StatusOK {
		t.Fatalf("healthz %d during drain, want 200", h.StatusCode)
	}
	if err := node.WaitIdle(context.Background()); err != nil {
		t.Fatalf("WaitIdle with nothing in flight: %v", err)
	}
}

func TestDispatchRetriesTransientFault(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	// The first two batch attempts 500; their retries succeed. With
	// bounded retries the grid completes without stealing a single cell
	// or charging the breaker.
	inner := (&WorkerNode{Name: "w1"}).Handler()
	var calls atomic.Int64
	var failed atomic.Int64
	flaky := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		if r.URL.Path == "/v1/cells" && calls.Add(1) <= 2 {
			failed.Add(1)
			writeJSON(rw, http.StatusInternalServerError, errorBody{Error: "transient"})
			return
		}
		inner.ServeHTTP(rw, r)
	}))
	t.Cleanup(flaky.Close)

	reg := NewRegistryConfig(RegistryConfig{TTL: time.Minute})
	reg.Register("w1", flaky.URL, 2)
	d := NewDispatcher(DispatcherConfig{
		Registry:        reg,
		DispatchTimeout: time.Minute,
		BatchSize:       2,
		RetryBase:       time.Millisecond,
	})
	opts := fastOpts()
	del := d.ForJob("e1", opts.Horizon, opts)
	if err := diff.SerialVsDistributed(context.Background(), del, "e1", opts.Horizon, opts); err != nil {
		t.Fatal(err)
	}
	if failed.Load() == 0 {
		t.Fatal("fault injection never fired")
	}
	if got := counter(d, "cluster.rpc.retries"); got < failed.Load() {
		t.Fatalf("retries %d, want >= %d (one per injected 500)", got, failed.Load())
	}
	if got := counter(d, "cluster.cells.stolen"); got != 0 {
		t.Fatalf("%d cells stolen; retries should have absorbed every fault", got)
	}
	if got := counter(d, "cluster.worker.failures"); got != 0 {
		t.Fatalf("%d worker failures recorded; retries should have absorbed every fault", got)
	}
}

func TestBadRequestNotRetried(t *testing.T) {
	var calls atomic.Int64
	srv := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		calls.Add(1)
		writeJSON(rw, http.StatusBadRequest, errorBody{Error: "no such grid"})
	}))
	t.Cleanup(srv.Close)

	reg := NewRegistryConfig(RegistryConfig{TTL: time.Minute})
	reg.Register("w1", srv.URL, 1)
	d := NewDispatcher(DispatcherConfig{Registry: reg, RetryBase: time.Millisecond})
	j := &jobDelegate{d: d, experiment: "e1", horizon: 1000}
	_, err := j.dispatchRetry(context.Background(), Worker{Name: "w1", Addr: srv.URL},
		harness.GridSpec{ID: "e1", Config: "c"}, []int{0}, ticket{}, nil)
	if err == nil {
		t.Fatal("4xx reply did not error")
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("4xx retried: %d calls, want 1", got)
	}
	if got := counter(d, "cluster.rpc.retries"); got != 0 {
		t.Fatalf("retry counter %d for a non-retryable error", got)
	}
}

func TestAuditQuarantinesCorruptingWorker(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	// A Byzantine worker corrupts every result byte-level while echoing
	// perfect keys; a partial audit (half the cells) must still catch
	// it, purge everything it contributed, and converge byte-identical.
	healthy := startWorker(t, "w2-healthy")
	corrupt := httptest.NewServer(resilience.CorruptCellResults((&WorkerNode{Name: "w1-corrupt"}).Handler(), fault.MustParse("worker.corrupt:1").Arm("worker", 7)))
	t.Cleanup(corrupt.Close)

	reg := NewRegistryConfig(RegistryConfig{
		TTL:     time.Minute,
		Breaker: resilience.BreakerConfig{Threshold: 2, Cooldown: 50 * time.Millisecond},
	})
	reg.Register("w1-corrupt", corrupt.URL, 2)
	reg.Register("w2-healthy", healthy.URL, 2)
	d := NewDispatcher(DispatcherConfig{
		Registry:        reg,
		DispatchTimeout: time.Minute,
		BatchSize:       2,
		RetryBase:       time.Millisecond,
		AuditFraction:   0.5,
		AuditSeed:       3,
		QuarantineFor:   time.Hour,
	})
	opts := fastOpts()
	del := d.ForJob("e1", opts.Horizon, opts)
	if err := diff.SerialVsDistributed(context.Background(), del, "e1", opts.Horizon, opts); err != nil {
		t.Fatal(err)
	}
	if got := counter(d, "cluster.cells.audited"); got == 0 {
		t.Fatal("audit sampled nothing")
	}
	if got := counter(d, "cluster.cells.audit_mismatch"); got == 0 {
		t.Fatal("audit never saw the corruption")
	}
	if got := counter(d, "cluster.worker.quarantined"); got != 1 {
		t.Fatalf("quarantined %d workers, want 1", got)
	}
	if !d.Registry().IsQuarantined("w1-corrupt") {
		t.Fatal("corrupting worker not quarantined")
	}
	if d.Registry().IsQuarantined("w2-healthy") {
		t.Fatal("healthy worker quarantined")
	}
}

// TestClusterChaosSoak is the capstone e2e: a coordinator and three
// in-process workers — one healthy, one flapping (partition-windowed off
// the network twice), one Byzantine (corrupting result bytes) — under a
// seeded RPC fault schedule of drops, delays and two latency spikes. The
// merged table must come out byte-identical to a serial run, within the
// dispatch-round bound, with the corrupting worker quarantined and every
// resilience counter accounted for. Set HAMMERTIME_CHAOS_ARTIFACTS to a
// directory to keep the fault schedule and merged-table artifacts.
func TestClusterChaosSoak(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	healthy := startWorker(t, "w1-healthy")
	flappy := startWorker(t, "w2-flappy")
	corrupt := httptest.NewServer(resilience.CorruptCellResults((&WorkerNode{Name: "w3-corrupt"}).Handler(), fault.MustParse("worker.corrupt:1").Arm("worker", 11)))
	t.Cleanup(corrupt.Close)

	// The flapping worker is implemented as two partition windows on its
	// host: reachable, gone, back, gone again — the repeated-crash shape,
	// deterministic in the transport's call index.
	flappyHost := strings.TrimPrefix(flappy.URL, "http://")
	rpc := fault.MustParse(fmt.Sprintf(
		"rpc.drop:0.1,rpc.delay=2ms:0.3,rpc.spike=10ms@6-9,rpc.spike=10ms@18-21,rpc.partition=%s@3-7,rpc.partition=%s@12-16", flappyHost, flappyHost)).Arm("rpc", 42)
	chaos := resilience.NewTransport(nil, rpc)

	reg := NewRegistryConfig(RegistryConfig{
		TTL:     time.Minute,
		Breaker: resilience.BreakerConfig{Threshold: 2, Cooldown: 10 * time.Millisecond},
	})
	reg.Register("w1-healthy", healthy.URL, 2)
	reg.Register("w2-flappy", flappy.URL, 2)
	reg.Register("w3-corrupt", corrupt.URL, 2)
	d := NewDispatcher(DispatcherConfig{
		Registry:        reg,
		Client:          &http.Client{Transport: chaos},
		Faults:          rpc,
		DispatchTimeout: time.Minute,
		BatchSize:       2,
		MaxRounds:       8,
		RPCRetries:      2,
		RetryBase:       time.Millisecond,
		HedgeRounds:     2,
		HedgeDelay:      5 * time.Millisecond,
		AuditFraction:   1, // soak audits everything: any corrupt byte is terminal
		QuarantineFor:   time.Hour,
	})

	opts := fastOpts()
	del := d.ForJob("e1", opts.Horizon, opts)

	// Byte identity under chaos: the fault layer may slow the run and
	// reroute cells, but never change a single byte of the result.
	ctx := harness.WithGridDelegate(context.Background(), del)
	tb, err := harness.Experiment(ctx, "e1", opts.Horizon, opts)
	if err != nil {
		t.Fatalf("chaos run failed: %v", err)
	}
	serial, err := harness.Experiment(context.Background(), "e1", opts.Horizon, opts)
	if err != nil {
		t.Fatal(err)
	}
	if tb.String() != serial.String() {
		t.Fatalf("chaos run diverged from serial:\n--- chaos ---\n%s\n--- serial ---\n%s", tb, serial)
	}

	var st sim.Stats
	d.MergeInto(&st)
	if got := st.Counter("cluster.dispatch.rounds"); got < 1 || got > 8 {
		t.Fatalf("dispatch rounds %d, want within [1, MaxRounds=8]", got)
	}
	if got := st.Counter("cluster.worker.quarantined"); got != 1 {
		t.Fatalf("quarantined %d workers, want exactly the Byzantine one", got)
	}
	if !reg.IsQuarantined("w3-corrupt") {
		t.Fatal("corrupting worker not quarantined")
	}
	if reg.IsQuarantined("w1-healthy") || reg.IsQuarantined("w2-flappy") {
		t.Fatal("an honest worker was quarantined")
	}
	if got := st.Counter("cluster.cells.audited"); got == 0 {
		t.Fatal("audit counter empty")
	}
	// The injected faults must actually have fired and been counted into
	// the metrics families the /metrics endpoint exposes.
	injected := int64(0)
	for _, kind := range []string{"drop", "delay", "spike", "partition"} {
		injected += st.Counter("fault.rpc." + kind)
	}
	if injected == 0 {
		t.Fatal("chaos transport injected nothing; the soak soaked nothing")
	}

	if dir := os.Getenv("HAMMERTIME_CHAOS_ARTIFACTS"); dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			t.Fatal(err)
		}
		var sched bytes.Buffer
		if err := chaos.WriteSchedule(&sched); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "fault-schedule.jsonl"), sched.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "merged-table.txt"), []byte(tb.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "serial-table.txt"), []byte(serial.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		injections := map[string]int64{}
		for _, c := range st.Snapshot().Counters {
			if strings.HasPrefix(c.Name, "fault.rpc.") {
				injections[c.Name] = c.Value
			}
		}
		counters, _ := json.MarshalIndent(injections, "", "  ")
		if err := os.WriteFile(filepath.Join(dir, "chaos-counters.json"), counters, 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestCachedPathAllocs pins the cached-cell fast path: once every cell
// is in the result cache, RunGrid must stay allocation-lean — in
// particular the resilience layer's provenance map, audit sampling and
// hedging must cost nothing when no cell is dispatched.
func TestCachedPathAllocs(t *testing.T) {
	d := NewDispatcher(DispatcherConfig{AuditFraction: 0.5, HedgeRounds: 2})
	spec := harness.GridSpec{ID: "g", Config: "c"}
	const n = 16
	for i := 0; i < n; i++ {
		d.cache.Put(harness.CellKey(spec, i), json.RawMessage(`{"v":1}`))
	}
	j := &jobDelegate{d: d, experiment: "e1", horizon: 1000}
	cells := firstCells(n)
	allocs := testing.AllocsPerRun(50, func() {
		if _, err := j.RunGrid(context.Background(), spec, cells); err != nil {
			t.Fatal(err)
		}
	})
	// Baseline is 22 for 16 cells, with or without -race: CellKey's one
	// string per cell plus the keys slice and results map, all predating
	// the resilience layer. The bound leaves less than one allocation per
	// cell of headroom, so any new per-cell cost fails it (an eagerly
	// allocated origin map entry, an audit draw, hedge bookkeeping, a
	// cache lookup that copies).
	if allocs > 32 {
		t.Fatalf("cached-path RunGrid costs %.0f allocs for %d cells, want <= 32", allocs, n)
	}
}
