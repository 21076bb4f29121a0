package cluster

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/fnv"
	"io"
	"log/slog"
	"net/http"
	"net/url"
	"sync"
	"sync/atomic"
	"time"

	"hammertime/internal/cluster/resilience"
	"hammertime/internal/fault"
	"hammertime/internal/harness"
	"hammertime/internal/sim"
	"hammertime/internal/telemetry"
)

// DispatcherConfig parametrizes a Dispatcher. The zero value works:
// memory-only cache, 15s worker TTL, 2m per-batch deadline, 2 RPC
// retries with 50ms-base backoff, hedging in the final 2 rounds, audit
// off.
type DispatcherConfig struct {
	// Cache fronts dispatch (nil = a fresh 64 MiB memory-only cache).
	Cache *ResultCache
	// Registry tracks the worker fleet (nil = a fresh 15s-TTL registry
	// configured with Breaker).
	Registry *Registry
	// Client performs worker RPCs (nil = a client on the dispatcher's
	// own connection pool, released by Close). Wrap its transport with
	// resilience.NewTransport (and set Faults) to run the whole dispatch
	// plane under an injected fault schedule.
	Client *http.Client
	// DispatchTimeout bounds one batch RPC attempt from its send — time
	// spent waiting for the worker's credit is not charged; a batch that
	// misses it is stolen back and re-dispatched (0 = 2m).
	DispatchTimeout time.Duration
	// BatchSize caps the cells per RPC (0 = 4). Smaller batches steal
	// back less work when a worker dies mid-run.
	BatchSize int
	// MaxRounds bounds the dispatch-steal-redispatch loop (0 = 8); the
	// local fallback makes the final round when workers keep dying.
	MaxRounds int
	// RPCRetries is how many extra attempts one batch gets against the
	// same worker before the batch counts as failed (0 = 2, <0 = none).
	// Retries absorb transient faults — a dropped packet no longer
	// steals a whole batch and burns a dispatch round.
	RPCRetries int
	// RetryBase is the base of the deterministic jittered backoff slept
	// between attempts, harness.Backoff-shaped (0 = 50ms).
	RetryBase time.Duration
	// Breaker configures per-worker circuit breakers (used when Registry
	// is nil; a supplied Registry carries its own).
	Breaker resilience.BreakerConfig
	// HedgeRounds: during the final N dispatch rounds each batch is also
	// dispatched to a second worker after HedgeDelay, first verified
	// response wins (0 = 2, <0 = never). Cells are idempotent, so the
	// losing response is simply discarded.
	HedgeRounds int
	// HedgeDelay is the head start the primary worker gets, from the
	// primary's send, before the hedge fires (0 = DispatchTimeout/8).
	HedgeDelay time.Duration
	// AuditFraction in [0,1] is the fraction of remotely computed cells
	// re-executed locally and byte-compared before the batch is trusted
	// (0 = audit off). The sample is deterministic per cell key and
	// AuditSeed. A mismatch quarantines the worker for QuarantineFor and
	// purges its unaudited cells from the run.
	AuditFraction float64
	// AuditSeed varies which cells the audit samples.
	AuditSeed uint64
	// QuarantineFor is the penalty window of a byte-corrupting worker
	// (0 = 10m): its heartbeats are ignored and its entry barred from
	// dispatch until the window ends, then a probe batch gates re-entry.
	QuarantineFor time.Duration
	// Faults, when the Client's transport is fault-injecting, is its
	// armed rpc site; the dispatcher merges its injection counters onto
	// /metrics as fault.rpc.* families.
	Faults *fault.Site
	// Log receives dispatch logs (nil = silent).
	Log *slog.Logger
}

// Dispatcher is the coordinator's long-lived half: the result cache, the
// worker registry, and the counters. Per-job delegates from ForJob share
// them, so a cell computed for one job serves every later job that needs
// the same key.
type Dispatcher struct {
	cache  *ResultCache
	reg    *Registry
	client *http.Client
	// pool is the transport behind client when the dispatcher made it.
	pool *http.Transport
	cfg  DispatcherConfig
	log  *slog.Logger

	credits *credits
	jobs    atomic.Uint64 // the last job's ticket number

	closeOnShutdown sync.Once // hooks Close onto the server Mount serves on

	statsMu sync.Mutex
	stats   sim.Stats
}

// NewDispatcher builds a dispatcher, filling config defaults.
func NewDispatcher(cfg DispatcherConfig) *Dispatcher {
	d := &Dispatcher{cache: cfg.Cache, reg: cfg.Registry, client: cfg.Client, cfg: cfg, credits: newCredits()}
	if d.cache == nil {
		d.cache = NewResultCache(0)
	}
	if d.reg == nil {
		d.reg = NewRegistryConfig(RegistryConfig{Breaker: cfg.Breaker})
	}
	if d.client == nil {
		d.pool = http.DefaultTransport.(*http.Transport).Clone()
		// A worker never has more batch RPCs in flight than its credits,
		// hedge legs included, so it never has more idle connections
		// either; the default of 2 would make a worker with more cores
		// dial and close connections for most batches.
		d.pool.MaxIdleConnsPerHost = maxSlots
		d.client = &http.Client{Transport: d.pool}
	}
	if d.cfg.DispatchTimeout <= 0 {
		d.cfg.DispatchTimeout = 2 * time.Minute
	}
	if d.cfg.BatchSize <= 0 {
		d.cfg.BatchSize = 4
	}
	if d.cfg.MaxRounds <= 0 {
		d.cfg.MaxRounds = 8
	}
	switch {
	case d.cfg.RPCRetries == 0:
		d.cfg.RPCRetries = 2
	case d.cfg.RPCRetries < 0:
		d.cfg.RPCRetries = 0
	}
	if d.cfg.RetryBase <= 0 {
		d.cfg.RetryBase = 50 * time.Millisecond
	}
	switch {
	case d.cfg.HedgeRounds == 0:
		d.cfg.HedgeRounds = 2
	case d.cfg.HedgeRounds < 0:
		d.cfg.HedgeRounds = 0
	}
	if d.cfg.HedgeDelay <= 0 {
		d.cfg.HedgeDelay = d.cfg.DispatchTimeout / 8
	}
	if d.cfg.QuarantineFor <= 0 {
		d.cfg.QuarantineFor = 10 * time.Minute
	}
	d.log = telemetry.OrNop(cfg.Log)
	return d
}

// Close releases the idle worker connections of the dispatcher's own
// pool. A client supplied in DispatcherConfig is the caller's to close.
// RPCs still in flight finish; the dispatcher stays usable, dialing
// afresh.
func (d *Dispatcher) Close() {
	if d.pool != nil {
		d.pool.CloseIdleConnections()
	}
}

// Registry returns the worker registry (for HTTP registration wiring).
func (d *Dispatcher) Registry() *Registry { return d.reg }

// Cache returns the result cache.
func (d *Dispatcher) Cache() *ResultCache { return d.cache }

func (d *Dispatcher) count(name string, delta int64) {
	d.statsMu.Lock()
	d.stats.Add(name, delta)
	d.statsMu.Unlock()
}

// MergeInto folds the dispatcher's counters and point-in-time gauges
// into dst — the serve layer's ExtraMetrics hook, so cluster state rides
// the same /metrics exposition as the job counters. dst must be a fresh
// scratch Stats (the serve layer rebuilds one per snapshot): lifetime
// cache counters are added whole, not as deltas.
func (d *Dispatcher) MergeInto(dst *sim.Stats) {
	d.statsMu.Lock()
	dst.Merge(&d.stats)
	d.statsMu.Unlock()
	hits, misses, evicted := d.cache.Counters()
	dst.Add("cluster.cache.hits", hits)
	dst.Add("cluster.cache.misses", misses)
	dst.Add("cluster.cache.evicted", evicted)
	dst.Add("cluster.workers.evicted", d.reg.Evicted())
	queued, waited := d.credits.totals()
	dst.Add("cluster.dispatch.queued", queued)
	dst.Add("cluster.dispatch.wait_ms", waited.Milliseconds())
	dst.SetGauge("cluster.cache.bytes", float64(d.cache.Bytes()))
	dst.SetGauge("cluster.cache.entries", float64(d.cache.Len()))
	dst.SetGauge("cluster.workers.live", float64(len(d.reg.Live())))
	dst.SetGauge("cluster.workers.quarantined", float64(d.reg.Quarantined()))
	d.cfg.Faults.MergeInto(dst)
}

// validateWorkerAddr rejects anything but an absolute http(s) URL — a
// garbage addr accepted here would otherwise surface rounds later as
// opaque dispatch failures against a dial string that never could work.
func validateWorkerAddr(addr string) error {
	u, err := url.Parse(addr)
	if err != nil {
		return fmt.Errorf("addr %q: %v", addr, err)
	}
	if (u.Scheme != "http" && u.Scheme != "https") || u.Host == "" {
		return fmt.Errorf("addr %q: must be an absolute http(s) URL like http://host:port", addr)
	}
	return nil
}

// Mount registers the coordinator's cluster endpoints on mux:
//
//	POST /v1/cluster/register — worker registration/heartbeat/deregister
//	GET  /v1/cluster/workers  — fleet listing
func (d *Dispatcher) Mount(mux *http.ServeMux) {
	mux.HandleFunc("POST /v1/cluster/register", func(rw http.ResponseWriter, r *http.Request) {
		// Close the pool when this server shuts down: a pooled connection
		// that never carried a request holds a worker's Shutdown for 5 s.
		if srv, ok := r.Context().Value(http.ServerContextKey).(*http.Server); ok {
			d.closeOnShutdown.Do(func() { srv.RegisterOnShutdown(d.Close) })
		}
		var req RegisterRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil || req.Name == "" {
			writeJSON(rw, http.StatusBadRequest, errorBody{Error: "register needs {name, addr}"})
			return
		}
		if req.Deregister {
			d.reg.Deregister(req.Name)
			d.count("cluster.deregisters", 1)
			writeJSON(rw, http.StatusOK, map[string]string{"status": "deregistered"})
			return
		}
		if err := validateWorkerAddr(req.Addr); err != nil {
			writeJSON(rw, http.StatusBadRequest, errorBody{Error: "register: " + err.Error()})
			return
		}
		if req.Slots < 0 || req.Slots > maxSlots {
			writeJSON(rw, http.StatusBadRequest, errorBody{Error: fmt.Sprintf("register: slots %d outside [0, %d]", req.Slots, maxSlots)})
			return
		}
		if !d.reg.Register(req.Name, req.Addr, req.Slots) {
			d.count("cluster.heartbeats.rejected", 1)
			writeJSON(rw, http.StatusForbidden, errorBody{Error: "worker quarantined; heartbeats ignored until the penalty window ends"})
			return
		}
		d.count("cluster.heartbeats", 1)
		writeJSON(rw, http.StatusOK, map[string]string{"status": "registered"})
	})
	mux.HandleFunc("GET /v1/cluster/workers", func(rw http.ResponseWriter, r *http.Request) {
		views := d.reg.Views()
		for i := range views {
			views[i].Inflight, _ = d.credits.load(views[i].Name)
		}
		writeJSON(rw, http.StatusOK, views)
	})
}

// ForJob returns the grid delegate for one job, or nil when the job
// cannot be distributed (unknown experiment, replayed trace, attached
// observer) — a nil delegate means "run it locally like before".
func (d *Dispatcher) ForJob(experiment string, horizon uint64, opts harness.AttackOpts) harness.GridDelegate {
	if !harness.ValidExperiment(experiment) || !Distributable(opts) {
		return nil
	}
	return &jobDelegate{d: d, experiment: experiment, horizon: horizon, opts: OptsFrom(opts), job: d.jobs.Add(1)}
}

// jobDelegate distributes one job's grids. It implements
// harness.GridDelegate: runGrid hands it (spec, the cells its
// checkpoint lacks) and restores whatever JSON it returns.
type jobDelegate struct {
	d          *Dispatcher
	experiment string
	horizon    uint64
	opts       Opts
	// job and batches number the job's batch tickets: job is the
	// dispatcher-wide order of ForJob calls, batches the last batch
	// number this job handed out.
	job     uint64
	batches atomic.Uint64
}

// batchOutcome is one dispatched batch's result, fed back to the round
// loop: either resp is set (worker names who answered), or err and the
// cells to steal back.
type batchOutcome struct {
	worker Worker
	cells  []int
	resp   *CellResponse
	err    error
}

// gridState is the mutable merge state of one RunGrid call.
type gridState struct {
	spec harness.GridSpec
	// keys holds each requested cell's key at its index.
	keys    []string
	results map[int]json.RawMessage
	// origin tracks which worker produced each merged-but-unaudited
	// cell, so catching a worker corrupting bytes later purges every
	// cell it ever contributed to this run. Audited, local and cached
	// cells are not tracked — they are trusted. Allocated lazily: the
	// all-cache-hit path must not pay for it.
	origin map[int]string
}

// RunGrid computes the given cells of the grid: cache first, then rounds of
// partitioned dispatch across live workers — each batch RPC gated on a
// credit of its worker, retried with deterministic backoff, hedged to a
// second worker in the final rounds, byte-audited by sample, and stolen
// back from failed or corrupting workers — falling back to in-process
// execution when no workers are live. Results enter the shared cache
// only after the grid completes, so a corrupting worker's bytes never
// outlive the round that caught them. Strict: either every requested
// cell merges, or an error.
func (j *jobDelegate) RunGrid(ctx context.Context, spec harness.GridSpec, cells []int) (map[int]json.RawMessage, error) {
	d := j.d
	size := 0
	for _, i := range cells {
		size = max(size, i+1)
	}
	st := &gridState{
		spec:    spec,
		keys:    make([]string, size),
		results: make(map[int]json.RawMessage, len(cells)),
	}
	var pending []int
	for _, i := range cells {
		st.keys[i] = harness.CellKey(spec, i)
		if raw, ok := d.cache.Get(st.keys[i]); ok {
			st.results[i] = raw
			continue
		}
		pending = append(pending, i)
	}
	if len(pending) < len(cells) {
		d.log.Info("cells served from cache", "grid", spec.ID, "hits", len(cells)-len(pending), "total", len(cells))
	}

	for round := 0; len(pending) > 0; round++ {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if round >= d.cfg.MaxRounds {
			return nil, fmt.Errorf("cluster: %d cells still pending after %d dispatch rounds", len(pending), round)
		}
		d.count("cluster.dispatch.rounds", 1)
		live := d.reg.Live()
		if len(live) == 0 {
			// No fleet (or the whole fleet died): the coordinator is
			// always its own worker of last resort.
			d.log.Warn("no live workers, computing locally", "grid", spec.ID, "cells", len(pending))
			if err := j.runLocal(ctx, st, pending); err != nil {
				return nil, err
			}
			pending = nil
			break
		}

		hedge := d.cfg.HedgeRounds > 0 && round >= d.cfg.MaxRounds-d.cfg.HedgeRounds && len(live) > 1
		batches := partition(pending, len(live), d.cfg.BatchSize)
		assignment := assignBatches(len(batches), live)
		outcomes := make(chan batchOutcome, len(batches))
		inflight := 0
		var requeue []int
		for bi, cells := range batches {
			wi := assignment[bi]
			if wi < 0 {
				// Every placeable worker is a probe already holding its
				// one batch; these cells wait for the next round.
				requeue = append(requeue, cells...)
				continue
			}
			w := live[wi]
			var second *Worker
			if hedge && !w.Probe {
				second = hedgeTarget(live, wi)
			}
			inflight++
			t := ticket{job: j.job, batch: j.batches.Add(1)}
			go func(w Worker, second *Worker, cells []int) {
				resp, by, err := j.dispatchResilient(ctx, w, second, spec, cells, t)
				outcomes <- batchOutcome{worker: by, cells: cells, resp: resp, err: err}
			}(w, second, cells)
		}
		for k := 0; k < inflight; k++ {
			out := <-outcomes
			if out.err != nil && uncharged(ctx, out.err) {
				d.log.Info("batch requeued uncharged", "grid", spec.ID,
					"worker", out.worker.Name, "cells", len(out.cells), "err", out.err)
				requeue = append(requeue, out.cells...)
				continue
			}
			if out.err != nil {
				// Steal the batch back: the breaker has recorded the
				// failure and the cells go into the next round, to
				// another worker or the local fallback.
				d.count("cluster.worker.failures", 1)
				d.count("cluster.cells.stolen", int64(len(out.cells)))
				d.log.Warn("batch failed, stealing cells back",
					"grid", spec.ID, "worker", out.worker.Name, "cells", len(out.cells), "err", out.err)
				requeue = append(requeue, out.cells...)
				continue
			}
			stolen, err := j.mergeBatch(ctx, st, out)
			requeue = append(requeue, stolen...)
			if err != nil {
				return nil, err
			}
		}
		pending = requeue
	}

	for _, i := range cells {
		if _, ok := st.results[i]; !ok {
			return nil, fmt.Errorf("cluster: cell %d of %q never computed", i, spec.ID)
		}
	}
	// Commit to the shared cache only now: any worker caught corrupting
	// mid-run has had its cells purged and recomputed above, so nothing
	// unverified-and-suspect persists beyond this grid. runGrid records
	// the cells in the job's checkpoint at the same point.
	for _, i := range cells {
		d.cache.Put(st.keys[i], st.results[i])
	}
	return st.results, nil
}

// mergeBatch verifies, audits and commits one successful batch response.
// It returns the cells to steal back (a rejected or quarantined batch)
// and a hard error only when the grid itself cannot proceed (the local
// audit executor failed).
func (j *jobDelegate) mergeBatch(ctx context.Context, st *gridState, out batchOutcome) ([]int, error) {
	d := j.d
	if d.reg.IsQuarantined(out.worker.Name) {
		// The worker was quarantined while this response was in flight;
		// nothing it says is trusted anymore.
		d.count("cluster.cells.stolen", int64(len(out.cells)))
		return out.cells, nil
	}
	batch, err := j.verify(st.spec, st.keys, out)
	if err != nil {
		// A verification failure (key/config skew, missing cells) is not
		// retryable on this worker — but another worker or the local
		// fallback may still be healthy.
		d.reg.ReportFailure(out.worker.Name)
		d.count("cluster.worker.failures", 1)
		d.count("cluster.cells.stolen", int64(len(out.cells)))
		d.log.Warn("batch rejected, stealing cells back",
			"grid", st.spec.ID, "worker", out.worker.Name, "err", err)
		return out.cells, nil
	}

	stolen, quarantined, err := j.auditBatch(ctx, st, out, batch)
	if err != nil {
		return nil, err
	}
	if quarantined {
		return stolen, nil
	}

	for _, i := range out.cells {
		st.results[i] = batch[i]
		if !j.auditPick(st.keys[i]) {
			if st.origin == nil {
				st.origin = make(map[int]string)
			}
			st.origin[i] = out.worker.Name
		}
	}
	d.count("cluster.cells.dispatched", int64(len(out.cells)))
	return nil, nil
}

// auditBatch re-executes the batch's deterministic audit sample locally
// and byte-compares. On a mismatch the worker is quarantined, its
// unaudited contributions to this run are purged, and the cells still
// needing recomputation are returned with quarantined=true — the caller
// must NOT commit the batch. quarantined=false means the audit passed
// (or sampled nothing) and the batch is safe to commit.
func (j *jobDelegate) auditBatch(ctx context.Context, st *gridState, out batchOutcome, batch map[int]json.RawMessage) (_ []int, quarantined bool, _ error) {
	d := j.d
	if d.cfg.AuditFraction <= 0 {
		return nil, false, nil
	}
	var sample []int
	for _, i := range out.cells {
		if j.auditPick(st.keys[i]) {
			sample = append(sample, i)
		}
	}
	if len(sample) == 0 {
		return nil, false, nil
	}
	d.count("cluster.cells.audited", int64(len(sample)))
	local, err := j.computeLocal(ctx, st.spec, sample, st.keys, false)
	if err != nil {
		return nil, false, fmt.Errorf("cluster: audit of %q cells from %s: %w", st.spec.ID, out.worker.Name, err)
	}
	var mismatched []int
	for _, i := range sample {
		if !bytes.Equal(local[i], batch[i]) {
			mismatched = append(mismatched, i)
		}
	}
	if len(mismatched) == 0 {
		return nil, false, nil
	}

	// The worker returned wrong bytes for a cell it claimed to compute:
	// quarantine it (BreakHammer's throttle-the-suspect, applied to
	// nodes) and distrust everything it contributed to this run.
	d.count("cluster.cells.audit_mismatch", int64(len(mismatched)))
	d.count("cluster.worker.quarantined", 1)
	d.reg.Quarantine(out.worker.Name, d.cfg.QuarantineFor)
	d.log.Warn("byte audit failed, quarantining worker",
		"grid", st.spec.ID, "worker", out.worker.Name,
		"mismatched", len(mismatched), "audited", len(sample), "penalty", d.cfg.QuarantineFor)

	var stolen []int
	for _, i := range out.cells {
		if raw, ok := local[i]; ok {
			// The audit already computed the authoritative bytes.
			st.results[i] = raw
			continue
		}
		stolen = append(stolen, i)
	}
	for i, w := range st.origin {
		if w == out.worker.Name {
			delete(st.results, i)
			delete(st.origin, i)
			stolen = append(stolen, i)
		}
	}
	d.count("cluster.cells.stolen", int64(len(stolen)))
	return stolen, true, nil
}

// auditPick reports whether the audit samples this cell: an FNV-64a of
// (cell key, audit seed) mapped to [0,1) against AuditFraction — a
// deterministic per-cell coin that every round and every job flips the
// same way.
func (j *jobDelegate) auditPick(key string) bool {
	f := j.d.cfg.AuditFraction
	if f <= 0 {
		return false
	}
	if f >= 1 {
		return true
	}
	h := fnv.New64a()
	fmt.Fprintf(h, "%s|audit=%d", key, j.d.cfg.AuditSeed)
	return float64(h.Sum64()>>11)/(1<<53) < f
}

// dispatchResilient runs one batch against w with bounded retries, and —
// when hedging is on for the round — races a second attempt on another
// worker once the first has had a head start on the wire. The first
// verified transport-level success wins; cells are idempotent, so the
// losing response is discarded.
func (j *jobDelegate) dispatchResilient(ctx context.Context, w Worker, second *Worker, spec harness.GridSpec, cells []int, t ticket) (*CellResponse, Worker, error) {
	d := j.d
	if second == nil {
		resp, err := j.dispatchRetry(ctx, w, spec, cells, t, nil)
		return resp, w, err
	}
	type leg struct {
		resp *CellResponse
		w    Worker
		err  error
	}
	ch := make(chan leg, 2)
	launch := func(lw Worker, sent func()) {
		go func() {
			resp, err := j.dispatchRetry(ctx, lw, spec, cells, t, sent)
			ch <- leg{resp: resp, w: lw, err: err}
		}()
	}
	// The head start counts from the primary's send, not from its wait
	// for a credit: the timer is armed when sent fires.
	sent := make(chan struct{})
	launch(w, func() { close(sent) })
	timer := time.NewTimer(d.cfg.HedgeDelay)
	timer.Stop()
	defer timer.Stop()
	var hedgeAt <-chan time.Time
	hedged := false
	outstanding := 1
	var firstErr error
	for {
		select {
		case <-sent:
			sent = nil
			timer.Reset(d.cfg.HedgeDelay)
			hedgeAt = timer.C
		case <-hedgeAt:
			if !hedged {
				hedged = true
				outstanding++
				d.count("cluster.batches.hedged", 1)
				d.log.Info("hedging straggler batch", "grid", spec.ID,
					"primary", w.Name, "hedge", second.Name, "cells", len(cells))
				launch(*second, nil)
			}
		case l := <-ch:
			if l.err == nil {
				if hedged && l.w.Name == second.Name {
					d.count("cluster.hedge.wins", 1)
				}
				return l.resp, l.w, nil
			}
			if firstErr == nil {
				firstErr = l.err
			}
			outstanding--
			if !hedged {
				// The primary failed before the hedge delay: fire the
				// hedge immediately rather than waiting out the timer.
				hedged = true
				outstanding++
				d.count("cluster.batches.hedged", 1)
				launch(*second, nil)
				continue
			}
			if outstanding == 0 {
				return nil, w, firstErr
			}
		case <-ctx.Done():
			return nil, w, ctx.Err()
		}
	}
}

// dispatchRetry attempts one batch RPC against one worker up to
// 1+RPCRetries times, sleeping the deterministic harness backoff keyed
// by (grid, worker, batch) between attempts. Every attempt waits for a
// credit under the batch's ticket t, and sent (if not nil) is called as
// the first attempt goes on the wire. Breaker accounting is one signal per
// exhausted sequence, not per attempt — retries exist precisely so a
// transient hiccup is absorbed before the breaker hears about anything —
// and none for an attempt that was never sent or that failed after the
// job ended.
func (j *jobDelegate) dispatchRetry(ctx context.Context, w Worker, spec harness.GridSpec, cells []int, t ticket, sent func()) (*CellResponse, error) {
	d := j.d
	key := fmt.Sprintf("%s|%s|%d", spec.ID, w.Name, cells[0])
	for attempt := 1; ; attempt++ {
		resp, err := j.dispatch(ctx, w, spec, cells, t, sent)
		sent = nil
		if err == nil {
			d.reg.ReportSuccess(w.Name)
			return resp, nil
		}
		if uncharged(ctx, err) {
			return nil, err
		}
		if !retryable(err) || attempt > d.cfg.RPCRetries {
			d.reg.ReportFailure(w.Name)
			return nil, err
		}
		d.count("cluster.rpc.retries", 1)
		d.log.Info("batch RPC retrying", "grid", spec.ID, "worker", w.Name,
			"attempt", attempt, "err", err)
		if !harness.Sleep(ctx, harness.Backoff(d.cfg.RetryBase, key, attempt)) {
			return nil, err
		}
	}
}

// statusError is a non-2xx worker reply, kept typed so the retry loop
// can tell a transient server failure from a semantic rejection.
type statusError struct {
	status int
	msg    string
}

func (e *statusError) Error() string { return e.msg }

// retryable reports whether another attempt at the same worker could
// plausibly succeed: transport-level failures (drops, resets, truncated
// bodies, timeouts) and 5xx replies are transient; a 4xx is the worker
// telling us the request itself is wrong, and repeating it is noise.
func retryable(err error) bool {
	var se *statusError
	if errors.As(err, &se) {
		return se.status >= 500
	}
	return true
}

// hedgeTarget picks the hedge worker for a batch assigned to live[wi]:
// the next distinct non-probe worker in the stable round order, nil when
// none exists.
func hedgeTarget(live []Worker, wi int) *Worker {
	for off := 1; off < len(live); off++ {
		c := live[(wi+off)%len(live)]
		if c.Probe || c.Name == live[wi].Name {
			continue
		}
		return &c
	}
	return nil
}

// assignBatches maps each batch to a live-worker index round-robin, with
// half-open (probe) workers capped at one batch — the breaker's contract
// is that a probation worker proves itself on one batch, not a full
// share. A batch that cannot be placed gets -1 and waits for the next
// round.
func assignBatches(n int, live []Worker) []int {
	out := make([]int, n)
	used := make([]int, len(live))
	next := 0
	for b := 0; b < n; b++ {
		out[b] = -1
		for tries := 0; tries < len(live); tries++ {
			wi := next % len(live)
			next++
			if live[wi].Probe && used[wi] >= 1 {
				continue
			}
			used[wi]++
			out[b] = wi
			break
		}
	}
	return out
}

// errWorkerLeft is why a batch that waited for a credit is not sent.
var errWorkerLeft = errors.New("cluster: batch not sent: worker left the live set")

// uncharged reports whether a failed batch attempt says nothing about
// its worker's health: the batch was never sent because its worker left
// the live set while it waited for a credit, or the job ended while the
// batch waited or ran. The breaker hears nothing and the cells go back
// to the round's requeue (whose next round returns the job's error).
func uncharged(ctx context.Context, err error) bool {
	return errors.Is(err, errWorkerLeft) || ctx.Err() != nil
}

// dispatch sends one batch to one worker under the per-batch deadline,
// grafting the worker's spans into the job's trace on success. The send
// takes one of the worker's credits, waiting behind older tickets when
// all are held; the deadline starts once the credit is in hand, and the
// credit is returned as soon as the reply is read.
func (j *jobDelegate) dispatch(ctx context.Context, w Worker, spec harness.GridSpec, cells []int, t ticket, sent func()) (*CellResponse, error) {
	d := j.d
	ctx, span := telemetry.StartSpan(ctx, "dispatch:"+w.Name)
	span.SetAttrs(
		telemetry.String("worker", w.Name),
		telemetry.Int("cells", int64(len(cells))),
	)
	req := CellRequest{
		Experiment: j.experiment,
		Horizon:    j.horizon,
		Opts:       j.opts,
		Grid:       spec.ID,
		Config:     spec.Config,
		Cells:      cells,
		Epoch:      sim.DeterminismEpoch,
	}
	sc := telemetry.ScopeFrom(ctx)
	if sc != nil && sc.Tracer != nil {
		req.TraceID = sc.Tracer.ID().String()
	}
	// Encoded before the wait, so a granted credit goes straight to the
	// wire.
	body, err := json.Marshal(req)
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	if err := j.acquire(ctx, w, t); err != nil {
		span.EndErr(err)
		return nil, err
	}
	if sent != nil {
		sent()
	}
	dctx, cancel := context.WithTimeout(ctx, d.cfg.DispatchTimeout)
	resp, err := j.call(dctx, w.Addr, body)
	cancel()
	d.credits.release(w.Name)
	if err == nil {
		var spans []telemetry.SpanSnap
		if spans, err = telemetry.DecodeSpans(resp.Spans, 0); err == nil {
			if sc != nil && sc.Tracer != nil {
				sc.Tracer.ImportRemote(span.ID(), spans)
			}
		} else {
			err = fmt.Errorf("cluster: worker spans: %w", err)
		}
	}
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	span.End()
	return resp, nil
}

// acquire takes a credit on w for the batch holding ticket t. A batch
// that has to wait records the wait as a queue:<worker> span under its
// dispatch span, and after the wait is sent only if w is still live.
func (j *jobDelegate) acquire(ctx context.Context, w Worker, t ticket) error {
	d := j.d
	if d.credits.take(w) {
		return nil
	}
	_, span := telemetry.StartSpan(ctx, "queue:"+w.Name)
	err := d.credits.wait(ctx, w, t)
	if err == nil && !d.reg.IsLive(w.Name) {
		d.credits.release(w.Name)
		err = errWorkerLeft
	}
	if err != nil {
		span.EndErr(err)
		return err
	}
	span.End()
	return nil
}

// call performs the HTTP RPC of one encoded CellRequest.
func (j *jobDelegate) call(ctx context.Context, addr string, body []byte) (*CellResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, addr+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	hresp, err := j.d.client.Do(hreq)
	if err != nil {
		return nil, err
	}
	defer hresp.Body.Close()
	if hresp.StatusCode != http.StatusOK {
		var eb errorBody
		msg, _ := io.ReadAll(io.LimitReader(hresp.Body, 4096))
		if json.Unmarshal(msg, &eb) == nil && eb.Error != "" {
			return nil, &statusError{status: hresp.StatusCode, msg: "cluster: worker: " + eb.Error}
		}
		return nil, &statusError{status: hresp.StatusCode,
			msg: fmt.Sprintf("cluster: worker status %d: %s", hresp.StatusCode, bytes.TrimSpace(msg))}
	}
	var resp CellResponse
	if err := json.NewDecoder(hresp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("cluster: worker response: %w", err)
	}
	// Read to EOF: the transport shelves the connection in its idle pool
	// before EOF reaches us, and drops one whose body closes unread.
	_, _ = io.Copy(io.Discard, hresp.Body)
	return &resp, nil
}

// verify checks one batch response — every requested cell present, each
// echoed key matching the coordinator's content address, config string
// identical — and returns the per-cell raw results. A key mismatch means
// the nodes disagree about what the cell even is (epoch/config/seed
// drift) and the batch is rejected whole.
func (j *jobDelegate) verify(spec harness.GridSpec, keys []string, out batchOutcome) (map[int]json.RawMessage, error) {
	if out.resp.Config != "" && out.resp.Config != spec.Config {
		return nil, fmt.Errorf("config skew: coordinator %q, worker %q", spec.Config, out.resp.Config)
	}
	got := make(map[int]CellResult, len(out.resp.Cells))
	for _, c := range out.resp.Cells {
		got[c.Index] = c
	}
	batch := make(map[int]json.RawMessage, len(out.cells))
	for _, i := range out.cells {
		c, ok := got[i]
		if !ok {
			return nil, fmt.Errorf("cell %d missing from response", i)
		}
		if c.Key != keys[i] {
			return nil, fmt.Errorf("cell %d key mismatch: want %s, got %s (epoch/seed/config skew)", i, keys[i], c.Key)
		}
		if len(c.Result) == 0 {
			return nil, fmt.Errorf("cell %d has empty result", i)
		}
		batch[i] = c.Result
	}
	return batch, nil
}

// computeLocal runs the given cells in-process through
// harness.ComputeCells, the executor a worker uses — identical code
// path, identical bytes. It is both the no-fleet fallback and the
// audit's authoritative executor. With record set (the fallback) the
// cells go into the job's checkpoint as they finish; the audit runs
// with no checkpoint, so bytes recorded from a worker can never vouch
// for themselves.
func (j *jobDelegate) computeLocal(ctx context.Context, spec harness.GridSpec, cells []int, keys []string, record bool) (map[int]json.RawMessage, error) {
	if !record {
		run := harness.RunFrom(ctx)
		run.Checkpoint = nil
		ctx = harness.WithRun(ctx, run)
	}
	_, got, err := harness.ComputeCells(ctx, j.experiment, j.horizon, j.opts.Attack(), spec.ID, cells)
	if err != nil {
		return nil, fmt.Errorf("cluster: local cells: %w", err)
	}
	out := make(map[int]json.RawMessage, len(cells))
	for _, i := range cells {
		c := got[i]
		if c.Key != keys[i] {
			return nil, fmt.Errorf("cluster: local cell %d key mismatch: want %s, got %s", i, keys[i], c.Key)
		}
		out[i] = c.Result
	}
	return out, nil
}

// runLocal computes cells in-process and merges them as trusted results.
func (j *jobDelegate) runLocal(ctx context.Context, st *gridState, cells []int) error {
	local, err := j.computeLocal(ctx, st.spec, cells, st.keys, true)
	if err != nil {
		return err
	}
	for _, i := range cells {
		st.results[i] = local[i]
	}
	j.d.count("cluster.cells.local", int64(len(cells)))
	return nil
}

// partition splits cells into batches of at most batchSize, sized so one
// round spreads the work across all workers: ceil(len/workers) capped at
// batchSize.
func partition(cells []int, workers, batchSize int) [][]int {
	if len(cells) == 0 {
		return nil
	}
	size := (len(cells) + workers - 1) / workers
	if size > batchSize {
		size = batchSize
	}
	if size < 1 {
		size = 1
	}
	var out [][]int
	for start := 0; start < len(cells); start += size {
		end := start + size
		if end > len(cells) {
			end = len(cells)
		}
		out = append(out, cells[start:end])
	}
	return out
}
