package cluster

import (
	"context"
	"encoding/json"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"hammertime/internal/check/diff"
	"hammertime/internal/fault"
	"hammertime/internal/harness"
	"hammertime/internal/obs"
	"hammertime/internal/sim"
	"hammertime/internal/telemetry"
	"hammertime/internal/trace"
)

// fastOpts is a small-but-real E1 configuration: 2 defenses x 4 attack
// kinds = 8 cells, each a full simulation, sized to keep the suite
// quick. Mirrors the diff package's differential tests.
func fastOpts() harness.AttackOpts {
	return harness.AttackOpts{
		Horizon:        300_000,
		Tenants:        2,
		PagesPerTenant: 60,
		Defenses:       []string{"none", "para"},
		ManySided:      4,
	}
}

func startWorker(t *testing.T, name string) *httptest.Server {
	t.Helper()
	srv := httptest.NewServer((&WorkerNode{Name: name}).Handler())
	t.Cleanup(srv.Close)
	return srv
}

func newTestDispatcher(t *testing.T, workers map[string]string) *Dispatcher {
	t.Helper()
	reg := NewRegistryConfig(RegistryConfig{TTL: time.Minute})
	for name, addr := range workers {
		reg.Register(name, addr, 2)
	}
	return NewDispatcher(DispatcherConfig{
		Registry:        reg,
		DispatchTimeout: time.Minute,
		BatchSize:       2,
	})
}

func counter(d *Dispatcher, name string) int64 {
	var st sim.Stats
	d.MergeInto(&st)
	return st.Counter(name)
}

func TestDistributedMatchesSerial(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	w1 := startWorker(t, "w1")
	w2 := startWorker(t, "w2")
	d := newTestDispatcher(t, map[string]string{"w1": w1.URL, "w2": w2.URL})
	opts := fastOpts()
	del := d.ForJob("e1", opts.Horizon, opts)
	if del == nil {
		t.Fatal("e1 should be distributable")
	}
	if err := diff.SerialVsDistributed(context.Background(), del, "e1", opts.Horizon, opts); err != nil {
		t.Fatal(err)
	}
	if got := counter(d, "cluster.cells.dispatched"); got != 8 {
		t.Fatalf("dispatched %d cells, want 8", got)
	}
	if got := counter(d, "cluster.cells.local"); got != 0 {
		t.Fatalf("computed %d cells locally with a live fleet", got)
	}
}

func TestWorkerDeathStealsCells(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	healthy := startWorker(t, "healthy")
	// The doomed worker dies on first contact — its connection is torn
	// down mid-request, the SIGKILL shape — and never comes back.
	var killed atomic.Bool
	doomed := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		killed.Store(true)
		hj, ok := rw.(http.Hijacker)
		if !ok {
			t.Error("no hijacker")
			return
		}
		conn, _, err := hj.Hijack()
		if err == nil {
			conn.Close()
		}
	}))
	t.Cleanup(doomed.Close)

	d := newTestDispatcher(t, map[string]string{"healthy": healthy.URL, "doomed": doomed.URL})
	opts := fastOpts()
	del := d.ForJob("e1", opts.Horizon, opts)
	if err := diff.SerialVsDistributed(context.Background(), del, "e1", opts.Horizon, opts); err != nil {
		t.Fatal(err)
	}
	if !killed.Load() {
		t.Fatal("doomed worker was never dispatched to")
	}
	if got := counter(d, "cluster.cells.stolen"); got == 0 {
		t.Fatal("no cells stolen despite a dead worker")
	}
	if got := counter(d, "cluster.worker.failures"); got == 0 {
		t.Fatal("worker failure not counted")
	}
	// The dead worker must be failure-marked out of the live set.
	for _, w := range d.Registry().Live() {
		if w.Name == "doomed" {
			t.Fatal("dead worker still in live set")
		}
	}
}

func TestDuplicateRunServedFromCache(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	w1 := startWorker(t, "w1")
	d := newTestDispatcher(t, map[string]string{"w1": w1.URL})
	opts := fastOpts()

	run := func() string {
		ctx := harness.WithGridDelegate(context.Background(), d.ForJob("e1", opts.Horizon, opts))
		tb, err := harness.Experiment(ctx, "e1", opts.Horizon, opts)
		if err != nil {
			t.Fatal(err)
		}
		return tb.String()
	}
	first := run()
	dispatchedAfterFirst := counter(d, "cluster.cells.dispatched")
	second := run()
	if first != second {
		t.Fatalf("cache-served run differs:\n--- first ---\n%s\n--- second ---\n%s", first, second)
	}
	if got := counter(d, "cluster.cells.dispatched"); got != dispatchedAfterFirst {
		t.Fatalf("duplicate run re-dispatched cells: %d -> %d", dispatchedAfterFirst, got)
	}
	hits, _, _ := d.Cache().Counters()
	if hits < 8 {
		t.Fatalf("cache hits %d, want >= 8 (every cell of the duplicate)", hits)
	}
}

func TestLocalFallbackWithoutWorkers(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	d := newTestDispatcher(t, nil)
	opts := fastOpts()
	del := d.ForJob("e1", opts.Horizon, opts)
	if err := diff.SerialVsDistributed(context.Background(), del, "e1", opts.Horizon, opts); err != nil {
		t.Fatal(err)
	}
	if got := counter(d, "cluster.cells.local"); got != 8 {
		t.Fatalf("local cells %d, want 8", got)
	}
}

func TestForJobRejectsNonDistributable(t *testing.T) {
	d := newTestDispatcher(t, nil)
	if del := d.ForJob("nope", 0, fastOpts()); del != nil {
		t.Fatal("unknown experiment got a delegate")
	}
	replay := fastOpts()
	replay.ReplayAttack = []trace.Event{{}}
	if del := d.ForJob("e1", 0, replay); del != nil {
		t.Fatal("replayed-trace job got a delegate; replay state cannot cross nodes")
	}
	observed := fastOpts()
	observed.Observer = obs.NewRecorder()
	if del := d.ForJob("e1", 0, observed); del != nil {
		t.Fatal("observer-attached job got a delegate")
	}
}

func TestRegistryTTLAndFailure(t *testing.T) {
	reg := NewRegistryConfig(RegistryConfig{TTL: 10 * time.Second})
	now := time.Unix(1000, 0)
	reg.now = func() time.Time { return now }

	reg.Register("a", "http://a", 4)
	reg.Register("b", "http://b", 1)
	if live := reg.Live(); len(live) != 2 || live[0].Slots != 4 {
		t.Fatalf("live %+v, want 2 with a's 4 slots", live)
	}

	// b goes silent past the TTL.
	now = now.Add(11 * time.Second)
	reg.Register("a", "http://a", 4)
	live := reg.Live()
	if len(live) != 1 || live[0].Name != "a" {
		t.Fatalf("live %v, want just a", live)
	}

	// Consecutive failures open a's breaker and remove it from dispatch.
	// A heartbeat refreshes liveness but must NOT launder breaker state.
	reg.ReportFailure("a")
	reg.ReportFailure("a")
	if len(reg.Live()) != 1 {
		t.Fatal("worker dropped before reaching the failure threshold")
	}
	reg.ReportFailure("a")
	if len(reg.Live()) != 0 {
		t.Fatal("open-breaker worker still live")
	}
	reg.Register("a", "http://a", 4)
	if len(reg.Live()) != 0 {
		t.Fatal("heartbeat closed an open breaker")
	}

	// After the cooldown the worker half-opens: back in the live set, but
	// only as a probe, with one credit. A verified success closes it for
	// real.
	now = now.Add(11 * time.Second) // past the default 10s cooldown
	reg.Register("a", "http://a", 4)
	live = reg.Live()
	if len(live) != 1 || !live[0].Probe || live[0].Slots != 1 {
		t.Fatalf("live %+v, want a as half-open probe with 1 slot", live)
	}
	reg.ReportSuccess("a")
	live = reg.Live()
	if len(live) != 1 || live[0].Probe || live[0].Slots != 4 {
		t.Fatalf("live %+v, want a fully closed with 4 slots after probe success", live)
	}

	views := reg.Views()
	if len(views) != 2 {
		t.Fatalf("views %d, want 2 (dead workers still listed)", len(views))
	}
	if views[1].Name != "b" || views[1].Live {
		t.Fatalf("stale worker reported live: %+v", views[1])
	}
	if views[0].Breaker != "closed" {
		t.Fatalf("breaker state %q, want closed", views[0].Breaker)
	}
}

func TestWorkerRejectsSkew(t *testing.T) {
	w := &WorkerNode{Name: "w"}
	// Epoch skew: a version-mismatched coordinator.
	_, err := w.RunCells(context.Background(), CellRequest{
		Experiment: "e1", Grid: "g", Cells: []int{0}, Epoch: sim.DeterminismEpoch + 1,
	})
	if err == nil || !strings.Contains(err.Error(), "epoch skew") {
		t.Fatalf("epoch skew accepted: %v", err)
	}
	// Unknown experiment.
	if _, err := w.RunCells(context.Background(), CellRequest{Experiment: "bogus", Grid: "g", Cells: []int{0}}); err == nil {
		t.Fatal("unknown experiment accepted")
	}
	// Empty cell list.
	if _, err := w.RunCells(context.Background(), CellRequest{Experiment: "e1", Grid: "g"}); err == nil {
		t.Fatal("empty request accepted")
	}
}

// TestWorkerInjectsCellFaults: the cell faults of the Run a worker's
// request context carries fail the cell they aim at in an assigned batch
// and leave the others alone.
func TestWorkerInjectsCellFaults(t *testing.T) {
	w := &WorkerNode{Name: "w"}
	ctx := harness.WithRun(context.Background(), harness.Run{Faults: fault.MustParse("cell.error=e7/1")})
	req := CellRequest{Experiment: "e7", Grid: "e7", Cells: []int{0, 1}, Epoch: sim.DeterminismEpoch}
	if _, err := w.RunCells(ctx, req); err == nil || !strings.Contains(err.Error(), "cell.error=e7/1") {
		t.Fatalf("batch with a faulted cell: %v", err)
	}
	req.Cells = []int{0}
	if resp, err := w.RunCells(ctx, req); err != nil || len(resp.Cells) != 1 {
		t.Fatalf("batch without the faulted cell: %+v, %v", resp, err)
	}
}

func TestWorkerConfigSkewRejected(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulation; skipped in -short")
	}
	w := &WorkerNode{Name: "w"}
	opts := fastOpts()
	req := CellRequest{
		Experiment: "e1",
		Horizon:    opts.Horizon,
		Opts:       OptsFrom(opts),
		Grid:       "e1",
		Config:     "horizon=999;something-else", // coordinator disagrees
		Cells:      []int{0},
		Epoch:      sim.DeterminismEpoch,
	}
	if _, err := w.RunCells(context.Background(), req); err == nil || !strings.Contains(err.Error(), "config skew") {
		t.Fatalf("config skew accepted: %v", err)
	}
}

func TestDispatchImportsWorkerSpans(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	w1 := startWorker(t, "w1")
	d := newTestDispatcher(t, map[string]string{"w1": w1.URL})
	opts := fastOpts()
	tr := telemetry.NewTracer()
	ctx := telemetry.NewContext(context.Background(), &telemetry.Scope{Tracer: tr})
	ctx = harness.WithGridDelegate(ctx, d.ForJob("e1", opts.Horizon, opts))
	if _, err := harness.Experiment(ctx, "e1", opts.Horizon, opts); err != nil {
		t.Fatal(err)
	}
	var dispatches, workerGrids int
	for _, s := range tr.Snapshot() {
		if strings.HasPrefix(s.Name, "dispatch:") {
			dispatches++
		}
		if strings.HasPrefix(s.Name, "cell:") || s.Name == "machine.run" {
			workerGrids++
		}
	}
	if dispatches == 0 {
		t.Fatal("no dispatch spans recorded")
	}
	if workerGrids == 0 {
		t.Fatal("worker-side spans not imported into the job trace")
	}
}

// TestDispatcherReusesConnections checks the dispatcher's own connection
// pool. Each job sends its 8 one-cell batches to one worker with 2
// slots, so at most 2 RPCs are in flight, and a connection is dialed
// only when every pooled one is busy: three jobs in a row open at most
// 2 connections in all.
func TestDispatcherReusesConnections(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	var dials atomic.Int64
	w := httptest.NewUnstartedServer((&WorkerNode{Name: "w1"}).Handler())
	w.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateNew {
			dials.Add(1)
		}
	}
	w.Start()
	t.Cleanup(w.Close)
	reg := NewRegistryConfig(RegistryConfig{TTL: time.Minute})
	const slots = 2
	reg.Register("w1", w.URL, slots)
	d := NewDispatcher(DispatcherConfig{Registry: reg, DispatchTimeout: time.Minute, BatchSize: 1})
	t.Cleanup(d.Close)

	const batches = 8 // fastOpts' cells, one per batch
	// A new horizon per job: every cell misses the cache.
	for i, horizon := range []uint64{300_000, 300_001, 300_002} {
		opts := fastOpts()
		opts.Horizon = horizon
		ctx := harness.WithGridDelegate(context.Background(), d.ForJob("e1", horizon, opts))
		if _, err := harness.Experiment(ctx, "e1", horizon, opts); err != nil {
			t.Fatal(err)
		}
		if got := counter(d, "cluster.cells.dispatched"); got != int64(batches*(i+1)) {
			t.Fatalf("after job %d: %d cells dispatched, want %d", i+1, got, batches*(i+1))
		}
	}
	if got := dials.Load(); got == 0 || got > slots {
		t.Fatalf("three jobs opened %d connections to the worker, want 1..%d", got, slots)
	}
}

// TestDispatcherReleasesPoolOnShutdown checks that shutting down the
// server the dispatcher is mounted on closes the pool's idle worker
// connections. A worker's Shutdown waits up to 5 s for a connection the
// pool dialed but never used; with the pool released, it need not.
func TestDispatcherReleasesPoolOnShutdown(t *testing.T) {
	closed := make(chan struct{}, 1)
	w := httptest.NewUnstartedServer((&WorkerNode{Name: "w1"}).Handler())
	w.Config.ConnState = func(_ net.Conn, s http.ConnState) {
		if s == http.StateClosed {
			select {
			case closed <- struct{}{}:
			default:
			}
		}
	}
	w.Start()
	t.Cleanup(w.Close)

	d := NewDispatcher(DispatcherConfig{})
	mux := http.NewServeMux()
	d.Mount(mux)
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	coord := &http.Server{Handler: mux}
	go coord.Serve(ln)
	t.Cleanup(func() { coord.Close() })

	body := `{"name":"w1","addr":"` + w.URL + `"}`
	resp, err := http.Post("http://"+ln.Addr().String()+"/v1/cluster/register", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("register: status %d", resp.StatusCode)
	}
	// One RPC through the pool leaves an idle connection to the worker.
	resp, err = d.client.Get(w.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body) // read to EOF, or the connection is not reused
	resp.Body.Close()
	select {
	case <-closed:
		t.Fatal("the pool's worker connection closed before the coordinator shut down")
	default:
	}

	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.Shutdown(ctx); err != nil {
		t.Fatal(err)
	}
	select {
	case <-closed:
	case <-time.After(5 * time.Second):
		t.Fatal("the pool's worker connection is still open after the coordinator shut down")
	}
}

// TestTruncatedSpansStealBatch checks that a worker response whose span
// payload arrives truncated fails its batch instead of crashing the
// coordinator: the batch is stolen back, recomputed by the healthy
// worker, and the merged table is byte-identical to a serial run.
func TestTruncatedSpansStealBatch(t *testing.T) {
	if testing.Short() {
		t.Skip("full simulations; skipped in -short")
	}
	healthy := startWorker(t, "healthy")
	inner := (&WorkerNode{Name: "truncating"}).Handler()
	var truncated atomic.Int64
	bad := httptest.NewServer(http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rec := httptest.NewRecorder()
		inner.ServeHTTP(rec, r)
		var resp CellResponse
		if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &resp) != nil || len(resp.Spans) < 2 {
			t.Errorf("truncating worker: status %d, %d span bytes", rec.Code, len(resp.Spans))
			rw.WriteHeader(http.StatusInternalServerError)
			return
		}
		resp.Spans = resp.Spans[:len(resp.Spans)/2]
		truncated.Add(1)
		writeJSON(rw, http.StatusOK, resp)
	}))
	t.Cleanup(bad.Close)

	d := newTestDispatcher(t, map[string]string{"healthy": healthy.URL, "truncating": bad.URL})
	t.Cleanup(d.Close)
	opts := fastOpts()
	tr := telemetry.NewTracer()
	ctx := telemetry.NewContext(context.Background(), &telemetry.Scope{Tracer: tr})
	if err := diff.SerialVsDistributed(ctx, d.ForJob("e1", opts.Horizon, opts), "e1", opts.Horizon, opts); err != nil {
		t.Fatal(err)
	}
	if truncated.Load() == 0 {
		t.Fatal("the truncating worker never answered a batch")
	}
	if got := counter(d, "cluster.cells.stolen"); got == 0 {
		t.Fatal("no cells stolen back from truncated span payloads")
	}
	var failed int
	for _, s := range tr.Snapshot() {
		if s.Name == "dispatch:truncating" && strings.Contains(s.Err, "worker spans") {
			failed++
		}
	}
	if failed == 0 {
		t.Fatal("no dispatch span records the span decode failure")
	}
}
