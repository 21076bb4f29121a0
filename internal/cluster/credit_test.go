package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"hammertime/internal/cluster/resilience"
	"hammertime/internal/harness"
	"hammertime/internal/telemetry"
)

// fakeWorker answers /v1/cells with a placeholder result per cell, under
// the key the coordinator expects, without simulating anything. It
// records the peak number of requests in flight and each request's grid
// in arrival order.
type fakeWorker struct {
	srv *httptest.Server
	// hold is how long each request takes. serial makes the worker run
	// one request at a time, a 1-core worker; release, when set, holds
	// every request until it is closed.
	hold    time.Duration
	serial  bool
	release chan struct{}

	run      sync.Mutex // held while a serial worker runs a request
	mu       sync.Mutex
	inflight int
	peak     int
	grids    []string
	arrived  chan string // each request's grid, as it arrives
}

func startFake(t *testing.T, f *fakeWorker) *fakeWorker {
	t.Helper()
	f.arrived = make(chan string, 64) // more than any test sends
	f.srv = httptest.NewServer(http.HandlerFunc(f.serve))
	t.Cleanup(f.srv.Close)
	return f
}

func (f *fakeWorker) serve(rw http.ResponseWriter, r *http.Request) {
	var req CellRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(rw, http.StatusBadRequest, errorBody{Error: err.Error()})
		return
	}
	f.mu.Lock()
	f.inflight++
	f.peak = max(f.peak, f.inflight)
	f.grids = append(f.grids, req.Grid)
	f.mu.Unlock()
	defer func() {
		f.mu.Lock()
		f.inflight--
		f.mu.Unlock()
	}()
	f.arrived <- req.Grid
	if f.serial {
		f.run.Lock()
		defer f.run.Unlock()
	}
	if f.release != nil {
		select {
		case <-f.release:
		case <-r.Context().Done():
			return
		}
	}
	time.Sleep(f.hold)
	spec := harness.GridSpec{ID: req.Grid, Config: req.Config}
	resp := CellResponse{Worker: "fake", Config: req.Config, Spans: telemetry.EncodeSpans(nil)}
	for _, i := range req.Cells {
		resp.Cells = append(resp.Cells, CellResult{Index: i, Key: harness.CellKey(spec, i), Result: json.RawMessage(`{}`)})
	}
	writeJSON(rw, http.StatusOK, resp)
}

// seen returns the grids of the requests the worker has received, in
// arrival order, and the peak number it held at once.
func (f *fakeWorker) seen() ([]string, int) {
	f.mu.Lock()
	defer f.mu.Unlock()
	return append([]string(nil), f.grids...), f.peak
}

// fakeDispatcher registers the fake workers as w1, w2, ... with slots
// credits each.
func fakeDispatcher(t *testing.T, cfg DispatcherConfig, slots int, workers ...*fakeWorker) *Dispatcher {
	t.Helper()
	cfg.Registry = NewRegistryConfig(RegistryConfig{TTL: time.Minute, Breaker: cfg.Breaker})
	for i, f := range workers {
		cfg.Registry.Register(fmt.Sprintf("w%d", i+1), f.srv.URL, slots)
	}
	if cfg.RetryBase == 0 {
		cfg.RetryBase = time.Millisecond
	}
	d := NewDispatcher(cfg)
	t.Cleanup(d.Close)
	return d
}

// fakeJob is one job's delegate; its grids are placeholder grids only a
// fakeWorker can compute.
func fakeJob(t *testing.T, d *Dispatcher) *jobDelegate {
	t.Helper()
	return d.ForJob("e1", 1000, harness.AttackOpts{}).(*jobDelegate)
}

// firstCells returns the cell indices 0..n-1, a whole grid of n cells.
func firstCells(n int) []int {
	cells := make([]int, n)
	for i := range cells {
		cells[i] = i
	}
	return cells
}

// waitQueued blocks until n batches wait for a credit of the worker.
func waitQueued(t *testing.T, d *Dispatcher, worker string, n int) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for {
		if _, q := d.credits.load(worker); q == n {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("%d batches never queued for %s", n, worker)
		}
		time.Sleep(time.Millisecond)
	}
}

// TestCreditsBoundWorkerConcurrency: a worker advertising 2 slots never
// holds more than 2 batch RPCs of a 12-batch grid, and the batches that
// waited show up in the job's trace and the dispatcher's counters.
func TestCreditsBoundWorkerConcurrency(t *testing.T) {
	f := startFake(t, &fakeWorker{hold: 10 * time.Millisecond})
	d := fakeDispatcher(t, DispatcherConfig{BatchSize: 4}, 2, f)
	tr := telemetry.NewTracer()
	ctx := telemetry.NewContext(context.Background(), &telemetry.Scope{Tracer: tr})
	if _, err := fakeJob(t, d).RunGrid(ctx, harness.GridSpec{ID: "g", Config: "c"}, firstCells(48)); err != nil {
		t.Fatal(err)
	}
	grids, peak := f.seen()
	if len(grids) != 12 {
		t.Fatalf("worker saw %d batches, want 12", len(grids))
	}
	if peak != 2 {
		t.Fatalf("worker held %d batches at once, want its 2 slots", peak)
	}
	queued := counter(d, "cluster.dispatch.queued")
	if queued == 0 || counter(d, "cluster.dispatch.wait_ms") == 0 {
		t.Fatalf("queue not measured: %d queued, %d ms waited", queued, counter(d, "cluster.dispatch.wait_ms"))
	}
	var spans int64
	for _, s := range tr.Snapshot() {
		if s.Name == "queue:w1" {
			spans++
		}
	}
	if spans != queued {
		t.Fatalf("%d queue:w1 spans for %d queued batches", spans, queued)
	}
}

// TestCreditsServeOldestJobFirst: of two jobs started back to back on a
// 1-slot worker, every batch of the first is sent before any batch of
// the second.
func TestCreditsServeOldestJobFirst(t *testing.T) {
	f := startFake(t, &fakeWorker{hold: 5 * time.Millisecond})
	d := fakeDispatcher(t, DispatcherConfig{BatchSize: 1}, 1, f)
	first, second := fakeJob(t, d), fakeJob(t, d)
	errs := make(chan error, 2)
	go func() {
		_, err := first.RunGrid(context.Background(), harness.GridSpec{ID: "first", Config: "c"}, firstCells(4))
		errs <- err
	}()
	<-f.arrived
	waitQueued(t, d, "w1", 3)
	go func() {
		_, err := second.RunGrid(context.Background(), harness.GridSpec{ID: "second", Config: "c"}, firstCells(4))
		errs <- err
	}()
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	grids, peak := f.seen()
	want := []string{"first", "first", "first", "first", "second", "second", "second", "second"}
	if fmt.Sprint(grids) != fmt.Sprint(want) {
		t.Fatalf("batches sent in order %v, want %v", grids, want)
	}
	if peak != 1 {
		t.Fatalf("1-slot worker held %d batches at once", peak)
	}
}

// TestQueuedTimeNotCharged: the dispatch deadline starts when a batch is
// sent. Four batches queued on a 1-slot worker that takes 200 ms each
// finish under a 300 ms deadline without a retry or a steal.
func TestQueuedTimeNotCharged(t *testing.T) {
	f := startFake(t, &fakeWorker{hold: 200 * time.Millisecond, serial: true})
	d := fakeDispatcher(t, DispatcherConfig{BatchSize: 1, DispatchTimeout: 300 * time.Millisecond}, 1, f)
	if _, err := fakeJob(t, d).RunGrid(context.Background(), harness.GridSpec{ID: "g", Config: "c"}, firstCells(4)); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cluster.rpc.retries", "cluster.cells.stolen", "cluster.worker.failures"} {
		if got := counter(d, name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if got := counter(d, "cluster.cells.dispatched"); got != 4 {
		t.Fatalf("dispatched %d cells, want 4", got)
	}
}

// TestCancelWhileQueued: a job cancelled while its batch waits for a
// credit sends nothing and charges no breaker.
func TestCancelWhileQueued(t *testing.T) {
	f := startFake(t, &fakeWorker{release: make(chan struct{})})
	// One failure would open the breaker and take the worker out.
	d := fakeDispatcher(t, DispatcherConfig{Breaker: resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour}}, 1, f)
	holder := make(chan error, 1)
	go func() {
		_, err := fakeJob(t, d).RunGrid(context.Background(), harness.GridSpec{ID: "holder", Config: "c"}, firstCells(1))
		holder <- err
	}()
	<-f.arrived

	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := fakeJob(t, d).RunGrid(ctx, harness.GridSpec{ID: "cancelled", Config: "c"}, firstCells(1))
		cancelled <- err
	}()
	waitQueued(t, d, "w1", 1)
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job returned %v, want context.Canceled", err)
	}
	if inflight, queued := d.credits.load("w1"); inflight != 1 || queued != 0 {
		t.Fatalf("after the cancel: %d credits held, %d batches queued; want 1, 0", inflight, queued)
	}
	if len(d.Registry().Live()) != 1 || counter(d, "cluster.worker.failures") != 0 {
		t.Fatal("a batch cancelled in the queue was charged to the worker")
	}
	close(f.release)
	if err := <-holder; err != nil {
		t.Fatal(err)
	}
	if grids, _ := f.seen(); fmt.Sprint(grids) != "[holder]" {
		t.Fatalf("worker saw %v, want only the holder's batch", grids)
	}
}

// TestCancelInFlightNotCharged: a job cancelled while its batch RPC is
// on the wire charges no breaker and steals nothing back.
func TestCancelInFlightNotCharged(t *testing.T) {
	f := startFake(t, &fakeWorker{release: make(chan struct{})})
	defer close(f.release)
	// One failure would open the breaker and take the worker out.
	d := fakeDispatcher(t, DispatcherConfig{Breaker: resilience.BreakerConfig{Threshold: 1, Cooldown: time.Hour}}, 1, f)
	ctx, cancel := context.WithCancel(context.Background())
	cancelled := make(chan error, 1)
	go func() {
		_, err := fakeJob(t, d).RunGrid(ctx, harness.GridSpec{ID: "cancelled", Config: "c"}, firstCells(1))
		cancelled <- err
	}()
	<-f.arrived
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job returned %v, want context.Canceled", err)
	}
	if live := len(d.Registry().Live()); live != 1 {
		t.Fatalf("%d live workers after the cancel, want 1", live)
	}
	for _, name := range []string{"cluster.worker.failures", "cluster.cells.stolen"} {
		if got := counter(d, name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}

// TestWorkerLeavesWhileQueued: a batch waiting on a worker that leaves
// the live set goes back to its round's requeue and runs on the worker
// that is left, unsent and uncharged.
func TestWorkerLeavesWhileQueued(t *testing.T) {
	leaving := startFake(t, &fakeWorker{release: make(chan struct{})})
	d := fakeDispatcher(t, DispatcherConfig{}, 1, leaving)
	holder := make(chan error, 1)
	go func() {
		_, err := fakeJob(t, d).RunGrid(context.Background(), harness.GridSpec{ID: "holder", Config: "c"}, firstCells(1))
		holder <- err
	}()
	<-leaving.arrived
	moved := make(chan error, 1)
	go func() {
		_, err := fakeJob(t, d).RunGrid(context.Background(), harness.GridSpec{ID: "moved", Config: "c"}, firstCells(1))
		moved <- err
	}()
	waitQueued(t, d, "w1", 1)

	staying := startFake(t, &fakeWorker{})
	d.Registry().Register("w2", staying.srv.URL, 1)
	d.Registry().Deregister("w1")
	close(leaving.release)
	for _, ch := range []chan error{holder, moved} {
		if err := <-ch; err != nil {
			t.Fatal(err)
		}
	}
	if grids, _ := leaving.seen(); fmt.Sprint(grids) != "[holder]" {
		t.Fatalf("leaving worker saw %v, want only the holder's batch", grids)
	}
	if grids, _ := staying.seen(); fmt.Sprint(grids) != "[moved]" {
		t.Fatalf("staying worker saw %v, want the moved batch", grids)
	}
	for _, name := range []string{"cluster.worker.failures", "cluster.cells.stolen"} {
		if got := counter(d, name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
}

// TestCreditsGrantByTicket: a freed credit goes to the oldest ticket
// waiting, whatever order the batches queued in — the job first, then
// the batch.
func TestCreditsGrantByTicket(t *testing.T) {
	c := newCredits()
	w := Worker{Name: "w", Slots: 1}
	if !c.take(w) {
		t.Fatal("no credit free on an idle worker")
	}
	tickets := []ticket{{job: 2, batch: 1}, {job: 1, batch: 7}, {job: 1, batch: 3}}
	granted := make(chan ticket, len(tickets))
	for i, tk := range tickets {
		go func() {
			if err := c.wait(context.Background(), w, tk); err != nil {
				t.Error(err)
			}
			granted <- tk
		}()
		for {
			if _, q := c.load("w"); q == i+1 {
				break
			}
			time.Sleep(time.Millisecond)
		}
	}
	var order []ticket
	for range tickets {
		c.release("w")
		order = append(order, <-granted)
	}
	c.release("w")
	want := []ticket{{job: 1, batch: 3}, {job: 1, batch: 7}, {job: 2, batch: 1}}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("credits granted in order %v, want %v", order, want)
	}
	if inflight, queued := c.load("w"); inflight != 0 || queued != 0 {
		t.Fatalf("%d held, %d queued after every release", inflight, queued)
	}
}

// TestHedgeDelayCountsFromSend: a hedged batch waiting for its primary
// worker's credit is not hedged, however long it waits; the head start
// begins when the primary is sent.
func TestHedgeDelayCountsFromSend(t *testing.T) {
	primary := startFake(t, &fakeWorker{release: make(chan struct{})})
	spare := startFake(t, &fakeWorker{})
	// Every round hedges, after 20 ms on the wire.
	cfg := DispatcherConfig{MaxRounds: 2, HedgeRounds: 2, HedgeDelay: 20 * time.Millisecond}
	d := fakeDispatcher(t, cfg, 1, primary, spare)
	// The holder takes w1's credit and, 20 ms later, is hedged to w2.
	if _, err := fakeJob(t, d).RunGrid(context.Background(), harness.GridSpec{ID: "holder", Config: "c"}, firstCells(1)); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() {
		_, err := fakeJob(t, d).RunGrid(context.Background(), harness.GridSpec{ID: "waiter", Config: "c"}, firstCells(1))
		waited <- err
	}()
	waitQueued(t, d, "w1", 1)
	time.Sleep(10 * cfg.HedgeDelay)
	if grids, _ := spare.seen(); fmt.Sprint(grids) != "[holder]" {
		t.Fatalf("spare worker saw %v while the waiter was queued, want only the holder's hedge", grids)
	}
	close(primary.release)
	if err := <-waited; err != nil {
		t.Fatal(err)
	}
	if grids, _ := primary.seen(); fmt.Sprint(grids) != "[holder waiter]" {
		t.Fatalf("primary worker saw %v, want the holder's then the waiter's batch", grids)
	}
}
