package cluster

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
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
// and arrival time, in arrival order.
type fakeWorker struct {
	srv *httptest.Server
	// hold is how long each request takes. serial makes the worker run
	// one request at a time, a 1-core worker; release, when set, holds
	// every request until it is closed, and gates holds the requests of
	// one grid until its channel is closed.
	hold    time.Duration
	serial  bool
	release chan struct{}
	gates   map[string]chan struct{}

	run       sync.Mutex // held while a serial worker runs a request
	mu        sync.Mutex
	inflight  int
	peak      int
	grids     []string
	times     []time.Time
	cancelled int         // requests whose client went away while held
	arrived   chan string // each request's grid, as it arrives
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
	f.times = append(f.times, time.Now())
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
	gate := f.release
	if g, ok := f.gates[req.Grid]; ok {
		gate = g
	}
	if gate != nil {
		select {
		case <-gate:
		case <-r.Context().Done():
			f.mu.Lock()
			f.cancelled++
			f.mu.Unlock()
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

// waiting returns how many batches wait in the dispatcher's queue.
func waiting(d *Dispatcher) int {
	d.queue.mu.Lock()
	defer d.queue.mu.Unlock()
	return len(d.queue.waiting)
}

// eventually polls cond until it holds, failing with msg after 10 s.
func eventually(t *testing.T, msg string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(10 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatal(msg)
		}
		time.Sleep(time.Millisecond)
	}
}

// waitQueued blocks until n batches wait in the dispatcher's queue.
func waitQueued(t *testing.T, d *Dispatcher, n int) {
	t.Helper()
	eventually(t, fmt.Sprintf("%d batches never queued", n), func() bool { return waiting(d) == n })
}

// arrivals returns when the worker received each request of the grid.
func (f *fakeWorker) arrivals(grid string) []time.Time {
	f.mu.Lock()
	defer f.mu.Unlock()
	var out []time.Time
	for i, g := range f.grids {
		if g == grid {
			out = append(out, f.times[i])
		}
	}
	return out
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
		if s.Name != "queue" {
			continue
		}
		for _, a := range s.Attrs {
			if a.Key == "worker" && a.Val == "w1" {
				spans++
			}
		}
	}
	if spans != queued {
		t.Fatalf("%d queue spans taken by w1 for %d queued batches", spans, queued)
	}
}

// TestBatchesSpreadOverCredits: a grid's batches are sized over the live
// workers' credits, not their count, so a 5-cell grid on one 16-slot
// worker goes out as 5 one-cell batches that run side by side, where
// sizing by workers would send a 4-cell batch and a 1-cell one.
func TestBatchesSpreadOverCredits(t *testing.T) {
	f := startFake(t, &fakeWorker{})
	d := fakeDispatcher(t, DispatcherConfig{BatchSize: 4}, 16, f)
	if _, err := fakeJob(t, d).RunGrid(context.Background(), harness.GridSpec{ID: "g", Config: "c"}, firstCells(5)); err != nil {
		t.Fatal(err)
	}
	if grids, _ := f.seen(); len(grids) != 5 {
		t.Fatalf("worker saw %d batches of a 5-cell grid on 16 credits, want 5", len(grids))
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
	waitQueued(t, d, 3)
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
	waitQueued(t, d, 1)
	cancel()
	if err := <-cancelled; !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled job returned %v, want context.Canceled", err)
	}
	if inflight, queued := d.queue.inflight("w1"), waiting(d); inflight != 1 || queued != 0 {
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

// TestWorkerLeavesWhileQueued: a batch waits in the queue bound to no
// worker, so when the busy worker leaves the live set, the batch runs on
// the worker that is left, and nothing is charged or stolen.
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
	waitQueued(t, d, 1)

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

// TestRegistrationTakesWaitingBatch: a worker registering while a batch
// waits takes the batch at once, not when a credit frees on the busy
// worker.
func TestRegistrationTakesWaitingBatch(t *testing.T) {
	busy := startFake(t, &fakeWorker{release: make(chan struct{})})
	d := fakeDispatcher(t, DispatcherConfig{}, 1, busy)
	mux := http.NewServeMux()
	d.Mount(mux)
	coord := httptest.NewServer(mux)
	t.Cleanup(coord.Close)
	errs := make(chan error, 2)
	run := func(grid string) {
		go func() {
			_, err := fakeJob(t, d).RunGrid(context.Background(), harness.GridSpec{ID: grid, Config: "c"}, firstCells(1))
			errs <- err
		}()
	}
	run("holder")
	<-busy.arrived
	run("waiter")
	waitQueued(t, d, 1)

	idle := startFake(t, &fakeWorker{})
	resp, err := http.Post(coord.URL+"/v1/cluster/register", "application/json",
		strings.NewReader(`{"name":"w2","addr":"`+idle.srv.URL+`"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	select {
	case err := <-errs:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(busy.release)
		t.Fatal("the waiting batch stayed queued after a worker registered")
	}
	if grids, _ := idle.seen(); fmt.Sprint(grids) != "[waiter]" {
		t.Fatalf("the new worker saw %v, want the waiting batch", grids)
	}
	close(busy.release)
	if err := <-errs; err != nil {
		t.Fatal(err)
	}
}

// TestCreditsGrantByTicket: the queue keeps its batches in ticket order
// — the job first, then the batch — whatever order they queued in, and
// a freed credit takes the oldest.
func TestCreditsGrantByTicket(t *testing.T) {
	f := startFake(t, &fakeWorker{release: make(chan struct{})})
	d := fakeDispatcher(t, DispatcherConfig{BatchSize: 1}, 1, f)
	holder, older, newer := fakeJob(t, d), fakeJob(t, d), fakeJob(t, d)
	errs := make(chan error, 3)
	run := func(j *jobDelegate, grid string, n int) {
		go func() {
			_, err := j.RunGrid(context.Background(), harness.GridSpec{ID: grid, Config: "c"}, firstCells(n))
			errs <- err
		}()
	}
	run(holder, "holder", 1)
	<-f.arrived
	run(newer, "newer", 1)
	waitQueued(t, d, 1)
	run(older, "older", 2)
	waitQueued(t, d, 3)

	d.queue.mu.Lock()
	var order []ticket
	for _, b := range d.queue.waiting {
		order = append(order, b.t)
	}
	d.queue.mu.Unlock()
	want := []ticket{{job: older.job, batch: 1}, {job: older.job, batch: 2}, {job: newer.job, batch: 1}}
	if fmt.Sprint(order) != fmt.Sprint(want) {
		t.Fatalf("queue holds tickets %v, want %v", order, want)
	}
	close(f.release)
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if grids, _ := f.seen(); fmt.Sprint(grids) != "[holder older older newer]" {
		t.Fatalf("batches sent in order %v, want the holder's, the older job's, then the newer job's", grids)
	}
	if inflight, queued := d.queue.inflight("w1"), waiting(d); inflight != 0 || queued != 0 {
		t.Fatalf("%d held, %d queued after every batch", inflight, queued)
	}
}

// TestHedgeDelayCountsFromSend: a batch waiting for any credit is never
// backed up, however long it waits, and once sent it gets its full head
// start: the backup copy goes out HedgeDelay after the send, not after
// the queueing.
func TestHedgeDelayCountsFromSend(t *testing.T) {
	const delay = 100 * time.Millisecond
	holder, waiter := make(chan struct{}), make(chan struct{})
	gates := map[string]chan struct{}{"holder": holder, "waiter": waiter}
	w1 := startFake(t, &fakeWorker{gates: gates})
	w2 := startFake(t, &fakeWorker{gates: gates})
	d := fakeDispatcher(t, DispatcherConfig{BatchSize: 1, HedgeDelay: delay}, 1, w1, w2)
	errs := make(chan error, 2)
	run := func(grid string, n int) {
		go func() {
			_, err := fakeJob(t, d).RunGrid(context.Background(), harness.GridSpec{ID: grid, Config: "c"}, firstCells(n))
			errs <- err
		}()
	}
	// The holder's two batches take both credits and stay on the wire.
	run("holder", 2)
	<-w1.arrived
	<-w2.arrived
	run("waiter", 1)
	waitQueued(t, d, 1)
	time.Sleep(3 * delay)
	if got := counter(d, "cluster.batches.hedged"); got != 0 {
		t.Fatalf("%d backups sent while every credit was held", got)
	}
	if len(w1.arrivals("waiter"))+len(w2.arrivals("waiter")) != 0 {
		t.Fatal("the waiting batch was sent with no credit free")
	}

	// Both credits free up: one takes the waiter, which waited 3×delay;
	// the other sits idle until the waiter has been on the wire for
	// delay, then takes its backup copy.
	close(holder)
	eventually(t, "the waiting batch was never backed up", func() bool {
		return len(w1.arrivals("waiter"))+len(w2.arrivals("waiter")) >= 2
	})
	sends := append(w1.arrivals("waiter"), w2.arrivals("waiter")...)
	if len(sends) != 2 {
		t.Fatalf("the waiting batch was sent %d times, want a first leg and a backup", len(sends))
	}
	head := sends[1].Sub(sends[0])
	if head < 0 {
		head = -head
	}
	if head < delay/2 {
		t.Fatalf("backup sent %v after the first leg, want about HedgeDelay (%v) after it", head, delay)
	}
	close(waiter)
	for i := 0; i < 2; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	if got := counter(d, "cluster.batches.hedged"); got != 1 {
		t.Fatalf("%d backups sent, want 1", got)
	}
}

// TestBackupYieldsToWaitingBatch: a backup copy only uses a credit that
// nothing waits for. A batch queued while every credit is held stops
// the backup leg and runs on its credit at once; nothing is charged or
// stolen, and the straggler is backed up again once the credit idles.
func TestBackupYieldsToWaitingBatch(t *testing.T) {
	gate := make(chan struct{})
	gates := map[string]chan struct{}{"slow": gate}
	w1 := startFake(t, &fakeWorker{gates: gates})
	w2 := startFake(t, &fakeWorker{gates: gates})
	d := fakeDispatcher(t, DispatcherConfig{HedgeDelay: 20 * time.Millisecond}, 1, w1, w2)
	slow := make(chan error, 1)
	go func() {
		_, err := fakeJob(t, d).RunGrid(context.Background(), harness.GridSpec{ID: "slow", Config: "c"}, firstCells(1))
		slow <- err
	}()
	eventually(t, "the slow batch was never backed up", func() bool { return len(w2.arrivals("slow")) == 1 })

	next := make(chan error, 1)
	go func() {
		_, err := fakeJob(t, d).RunGrid(context.Background(), harness.GridSpec{ID: "next", Config: "c"}, firstCells(1))
		next <- err
	}()
	select {
	case err := <-next:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(10 * time.Second):
		close(gate)
		t.Fatal("the queued batch waited behind a backup copy")
	}
	if grids, _ := w2.seen(); fmt.Sprint(grids[:2]) != "[slow next]" {
		t.Fatalf("the backup's worker saw %v, want the backup, then the queued batch", grids)
	}
	w2.mu.Lock()
	cancelled := w2.cancelled
	w2.mu.Unlock()
	if cancelled != 1 {
		t.Fatalf("%d legs cancelled on the backup's worker, want the backup", cancelled)
	}
	if got := counter(d, "cluster.batches.hedged"); got != 2 {
		t.Fatalf("%d backups sent, want 2: the preempted one and its successor", got)
	}
	close(gate)
	if err := <-slow; err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"cluster.worker.failures", "cluster.cells.stolen"} {
		if got := counter(d, name); got != 0 {
			t.Errorf("%s = %d, want 0", name, got)
		}
	}
	if live := len(d.Registry().Live()); live != 2 {
		t.Fatalf("%d live workers, want 2", live)
	}
}

// TestStragglerDoesNotHoldGrid: a worker 10× slower than the other holds
// one batch, not half the grid. Each freed credit takes the next batch,
// so the fast worker serves the rest while the slow one runs its first.
func TestStragglerDoesNotHoldGrid(t *testing.T) {
	slow := startFake(t, &fakeWorker{hold: 200 * time.Millisecond})
	fast := startFake(t, &fakeWorker{hold: 20 * time.Millisecond})
	d := fakeDispatcher(t, DispatcherConfig{BatchSize: 2}, 1, slow, fast)
	start := time.Now()
	if _, err := fakeJob(t, d).RunGrid(context.Background(), harness.GridSpec{ID: "g", Config: "c"}, firstCells(16)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= 400*time.Millisecond {
		t.Fatalf("grid took %v, want under 400ms: the slow worker held it", took)
	}
	slowGrids, _ := slow.seen()
	fastGrids, _ := fast.seen()
	if len(slowGrids)+len(fastGrids) != 8 || len(fastGrids) < 6 {
		t.Fatalf("slow worker served %d batches and fast %d, want 8 with at least 6 fast", len(slowGrids), len(fastGrids))
	}
}

// TestBackupCopyCancelsBlockedLeg: a batch stuck on a worker that never
// answers is backed up by the idle worker once it has been on the wire
// for HedgeDelay. The grid finishes in about HedgeDelay plus the other
// worker's own time, not in DispatchTimeout; the stuck leg is cancelled
// and its worker's breaker is not charged.
func TestBackupCopyCancelsBlockedLeg(t *testing.T) {
	stuck := startFake(t, &fakeWorker{release: make(chan struct{})})
	fast := startFake(t, &fakeWorker{hold: 20 * time.Millisecond})
	d := fakeDispatcher(t, DispatcherConfig{BatchSize: 2, HedgeDelay: 50 * time.Millisecond}, 1, stuck, fast)
	start := time.Now()
	if _, err := fakeJob(t, d).RunGrid(context.Background(), harness.GridSpec{ID: "g", Config: "c"}, firstCells(16)); err != nil {
		t.Fatal(err)
	}
	if took := time.Since(start); took >= time.Second {
		t.Fatalf("grid took %v, want about HedgeDelay plus 8 batches of 20ms", took)
	}
	if grids, _ := stuck.seen(); len(grids) != 1 {
		t.Fatalf("stuck worker received %d batches, want 1", len(grids))
	}
	for name, want := range map[string]int64{
		"cluster.batches.hedged":  1,
		"cluster.hedge.wins":      1,
		"cluster.worker.failures": 0,
		"cluster.cells.stolen":    0,
	} {
		if got := counter(d, name); got != want {
			t.Errorf("%s = %d, want %d", name, got, want)
		}
	}
	eventually(t, "the stuck leg was never cancelled", func() bool {
		stuck.mu.Lock()
		defer stuck.mu.Unlock()
		return stuck.cancelled == 1
	})
	if live := len(d.Registry().Live()); live != 2 {
		t.Fatalf("%d live workers after the backup won, want 2", live)
	}
}
