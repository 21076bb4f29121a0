package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"runtime"
	"sort"
	"sync"
	"time"

	"hammertime/internal/harness"
	"hammertime/internal/sim"
	"hammertime/internal/telemetry"
)

// WorkerNode executes assigned cells: it rebuilds the requested grid
// from the wire options through harness.ComputeCells, narrowed to the
// assigned indices, so only those cells are simulated, and returns each result as
// the exact JSON the coordinator will merge. A worker keeps no job
// state — every request is self-contained, which is what makes killing
// a worker mid-run recoverable by re-dispatching elsewhere.
type WorkerNode struct {
	// Name identifies the worker in responses and registry entries.
	Name string
	// Log receives per-request structured logs and the harness's
	// failed-cell and slow-cell warnings (nil = silent).
	Log *slog.Logger

	mu       sync.Mutex
	draining bool
	inflight sync.WaitGroup
}

// StartDrain flips the worker into draining: new batch requests are
// refused with 503 + Retry-After (the coordinator's retry/steal machinery
// reroutes them), while in-flight batches run to completion. Part of the
// graceful-shutdown sequence: StartDrain → Deregister → WaitIdle →
// server shutdown.
func (w *WorkerNode) StartDrain() {
	w.mu.Lock()
	w.draining = true
	w.mu.Unlock()
}

// WaitIdle blocks until every in-flight batch has completed or ctx ends.
func (w *WorkerNode) WaitIdle(ctx context.Context) error {
	done := make(chan struct{})
	go func() {
		w.inflight.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// beginBatch admits one batch unless the worker is draining. The caller
// must invoke the returned func when the batch ends.
func (w *WorkerNode) beginBatch() (func(), bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.draining {
		return nil, false
	}
	w.inflight.Add(1)
	return w.inflight.Done, true
}

// RunCells computes one CellRequest, one cell at a time. The experiment
// may fail outside the target grid without failing the request — the
// capture's completeness is the contract, not the experiment's own
// result (whose table the worker discards anyway).
func (w *WorkerNode) RunCells(ctx context.Context, req CellRequest) (CellResponse, error) {
	resp := CellResponse{Worker: w.Name}
	if !harness.ValidExperiment(req.Experiment) {
		return resp, fmt.Errorf("cluster: unknown experiment %q", req.Experiment)
	}
	if req.Grid == "" || len(req.Cells) == 0 {
		return resp, fmt.Errorf("cluster: empty grid or cell list")
	}
	if req.Epoch != 0 && req.Epoch != sim.DeterminismEpoch {
		return resp, fmt.Errorf("cluster: determinism epoch skew: coordinator %d, worker %d — upgrade the older node",
			req.Epoch, sim.DeterminismEpoch)
	}

	// The worker's spans ride back in the response; the tracer reuses the
	// job's trace id so worker-local exports correlate, and the
	// coordinator remaps span ids when grafting them into its own tracer.
	tracer := telemetry.NewTracer()
	if id, ok := telemetry.ParseTraceID(req.TraceID); ok {
		tracer = telemetry.NewTracerWithID(id)
	}
	ctx = telemetry.NewContext(ctx, &telemetry.Scope{Tracer: tracer})

	// One credit is one core: a batch's cells run one at a time, so a
	// worker holding one batch per slot keeps one live machine per slot.
	run := harness.RunFrom(ctx)
	run.Workers = 1
	if run.Logger == nil {
		// A request's context carries no Run: warn in the node's log.
		run.Logger, run.Policy.SlowCellWarn = w.Log, harness.DefaultSlowCellWarn
	}
	ctx = harness.WithRun(ctx, run)
	start := time.Now()
	config, results, err := harness.ComputeCells(ctx, req.Experiment, req.Horizon, req.Opts.Attack(), req.Grid, req.Cells)
	if config != "" && req.Config != "" && config != req.Config {
		return resp, fmt.Errorf("cluster: grid config skew on %q: coordinator %q, worker %q — option or version drift",
			req.Grid, req.Config, config)
	}
	if err != nil {
		return resp, err
	}
	for _, i := range req.Cells {
		cell := results[i]
		resp.Cells = append(resp.Cells, CellResult{Index: i, Key: cell.Key, Result: cell.Result})
	}
	sort.Slice(resp.Cells, func(a, b int) bool { return resp.Cells[a].Index < resp.Cells[b].Index })
	resp.Config = config
	resp.Spans = telemetry.EncodeSpans(tracer.Snapshot())
	telemetry.OrNop(w.Log).Info("cells computed",
		"grid", req.Grid, "cells", len(resp.Cells), "elapsed", time.Since(start))
	return resp, nil
}

// Handler returns the worker's HTTP surface:
//
//	POST /v1/cells   — compute a CellRequest
//	GET  /healthz    — liveness
func (w *WorkerNode) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/cells", func(rw http.ResponseWriter, r *http.Request) {
		done, ok := w.beginBatch()
		if !ok {
			// Draining: the coordinator should retry elsewhere. 503 is
			// retryable by the dispatch loop, and Retry-After hints at
			// the backoff scale.
			rw.Header().Set("Retry-After", "1")
			writeJSON(rw, http.StatusServiceUnavailable, errorBody{Error: "worker draining"})
			return
		}
		defer done()
		var req CellRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			writeJSON(rw, http.StatusBadRequest, errorBody{Error: "bad request: " + err.Error()})
			return
		}
		resp, err := w.RunCells(r.Context(), req)
		if err != nil {
			telemetry.OrNop(w.Log).Warn("cell request failed", "grid", req.Grid, "err", err)
			writeJSON(rw, http.StatusInternalServerError, errorBody{Error: err.Error()})
			return
		}
		writeJSON(rw, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /healthz", func(rw http.ResponseWriter, r *http.Request) {
		rw.WriteHeader(http.StatusOK)
		fmt.Fprintln(rw, "ok")
	})
	return mux
}

// Heartbeat registers the worker with the coordinator now and then every
// interval until ctx ends, advertising runtime.GOMAXPROCS(0) as its
// slots. Registration doubles as the liveness beacon; failures are
// logged and retried on the next tick — a coordinator restart just loses
// one beat.
func Heartbeat(ctx context.Context, client *http.Client, coordinator, name, selfAddr string, every time.Duration, log *slog.Logger) {
	if every <= 0 {
		every = 5 * time.Second
	}
	log = telemetry.OrNop(log)
	beat := func() {
		if err := register(ctx, client, coordinator, RegisterRequest{Name: name, Addr: selfAddr, Slots: runtime.GOMAXPROCS(0)}); err != nil {
			log.Warn("heartbeat failed", "coordinator", coordinator, "err", err)
		}
	}
	beat()
	t := time.NewTicker(every)
	defer t.Stop()
	for {
		select {
		case <-ctx.Done():
			return
		case <-t.C:
			beat()
		}
	}
}

// Deregister sends the final goodbye heartbeat: the coordinator drops
// the worker from dispatch immediately instead of waiting out the TTL.
// Best-effort — a coordinator that misses it just ages the entry out.
func Deregister(ctx context.Context, client *http.Client, coordinator, name string) error {
	return register(ctx, client, coordinator, RegisterRequest{Name: name, Deregister: true})
}

// register posts one registration request to the coordinator (nil
// client = http.DefaultClient).
func register(ctx context.Context, client *http.Client, coordinator string, rr RegisterRequest) error {
	if client == nil {
		client = http.DefaultClient
	}
	body, _ := json.Marshal(rr)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		coordinator+"/v1/cluster/register", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", "application/json")
	resp, err := client.Do(req)
	if err != nil {
		return err
	}
	resp.Body.Close()
	if resp.StatusCode/100 != 2 {
		return fmt.Errorf("cluster: register status %d", resp.StatusCode)
	}
	return nil
}

func writeJSON(rw http.ResponseWriter, status int, v any) {
	rw.Header().Set("Content-Type", "application/json")
	rw.WriteHeader(status)
	json.NewEncoder(rw).Encode(v)
}
