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
	"time"

	"hammertime/internal/cluster/resilience"
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
	// resilience.NewTransport (and set Chaos) to run the whole dispatch
	// plane under an injected fault schedule.
	Client *http.Client
	// DispatchTimeout bounds one batch RPC attempt; a batch that misses
	// it is stolen back and re-dispatched (0 = 2m).
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
	// HedgeDelay is the head start the primary worker gets before the
	// hedge fires (0 = DispatchTimeout/8).
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
	// Chaos, when the Client's transport is fault-injecting, lets the
	// dispatcher merge the transport's fault counters onto /metrics as
	// cluster.chaos.* families.
	Chaos *resilience.Transport
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

	statsMu sync.Mutex
	stats   sim.Stats
}

// NewDispatcher builds a dispatcher, filling config defaults.
func NewDispatcher(cfg DispatcherConfig) *Dispatcher {
	d := &Dispatcher{cache: cfg.Cache, reg: cfg.Registry, client: cfg.Client, cfg: cfg}
	if d.cache == nil {
		d.cache = NewResultCache(0)
	}
	if d.reg == nil {
		d.reg = NewRegistryConfig(RegistryConfig{Breaker: cfg.Breaker})
	}
	if d.client == nil {
		d.pool = http.DefaultTransport.(*http.Transport).Clone()
		d.pool.MaxIdleConnsPerHost = idleConnsPerWorker
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

// idleConnsPerWorker is how many idle connections the dispatcher's own
// pool keeps per worker. A job fans all of a round's batches out at
// once (an E1 grid is 12 batches of 4 cells), plus hedges, for each
// concurrent job; the default transport keeps 2, so most batch RPCs
// would dial a fresh connection and close it afterwards.
const idleConnsPerWorker = 64

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
	dst.SetGauge("cluster.cache.bytes", float64(d.cache.Bytes()))
	dst.SetGauge("cluster.cache.entries", float64(d.cache.Len()))
	dst.SetGauge("cluster.workers.live", float64(len(d.reg.Live())))
	dst.SetGauge("cluster.workers.quarantined", float64(d.reg.Quarantined()))
	if d.cfg.Chaos != nil {
		for fault, n := range d.cfg.Chaos.Counters() {
			dst.Add("cluster.chaos."+fault, n)
		}
	}
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
		if !d.reg.Register(req.Name, req.Addr) {
			d.count("cluster.heartbeats.rejected", 1)
			writeJSON(rw, http.StatusForbidden, errorBody{Error: "worker quarantined; heartbeats ignored until the penalty window ends"})
			return
		}
		d.count("cluster.heartbeats", 1)
		writeJSON(rw, http.StatusOK, map[string]string{"status": "registered"})
	})
	mux.HandleFunc("GET /v1/cluster/workers", func(rw http.ResponseWriter, r *http.Request) {
		writeJSON(rw, http.StatusOK, d.reg.Views())
	})
}

// ForJob returns the grid delegate for one job, or nil when the job
// cannot be distributed (unknown experiment, replayed trace, attached
// observer) — a nil delegate means "run it locally like before".
func (d *Dispatcher) ForJob(experiment string, horizon uint64, opts harness.AttackOpts) harness.GridDelegate {
	if !harness.ValidExperiment(experiment) || !Distributable(opts) {
		return nil
	}
	return &jobDelegate{d: d, experiment: experiment, horizon: horizon, opts: OptsFrom(opts)}
}

// jobDelegate distributes one job's grids. It implements
// harness.GridDelegate: runGrid hands it (spec, n) and restores whatever
// JSON it returns.
type jobDelegate struct {
	d          *Dispatcher
	experiment string
	horizon    uint64
	opts       Opts
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
	spec    harness.GridSpec
	keys    []string
	results map[int]json.RawMessage
	// origin tracks which worker produced each merged-but-unaudited
	// cell, so catching a worker corrupting bytes later purges every
	// cell it ever contributed to this run. Audited, local and cached
	// cells are not tracked — they are trusted. Allocated lazily: the
	// all-cache-hit path must not pay for it.
	origin map[int]string
}

// RunGrid computes every cell of the grid: cache first, then rounds of
// partitioned dispatch across live workers — each batch RPC retried with
// deterministic backoff, hedged to a second worker in the final rounds,
// byte-audited by sample, and stolen back from failed or corrupting
// workers — falling back to in-process execution when no workers are
// live. Results enter the shared cache only after the grid completes, so
// a corrupting worker's bytes never outlive the round that caught them.
// Strict: either all n cells merge, or an error.
func (j *jobDelegate) RunGrid(ctx context.Context, spec harness.GridSpec, n int) (map[int]json.RawMessage, error) {
	d := j.d
	st := &gridState{
		spec:    spec,
		keys:    make([]string, n),
		results: make(map[int]json.RawMessage, n),
	}
	var pending []int
	for i := 0; i < n; i++ {
		st.keys[i] = harness.CellKey(spec, i)
		if raw, ok := d.cache.Get(st.keys[i]); ok {
			st.results[i] = raw
			continue
		}
		pending = append(pending, i)
	}
	if len(pending) < n {
		d.log.Info("cells served from cache", "grid", spec.ID, "hits", n-len(pending), "total", n)
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
			go func(w Worker, second *Worker, cells []int) {
				resp, by, err := j.dispatchResilient(ctx, w, second, spec, cells)
				outcomes <- batchOutcome{worker: by, cells: cells, resp: resp, err: err}
			}(w, second, cells)
		}
		for k := 0; k < inflight; k++ {
			out := <-outcomes
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

	for i := 0; i < n; i++ {
		if _, ok := st.results[i]; !ok {
			return nil, fmt.Errorf("cluster: cell %d of %q never computed", i, spec.ID)
		}
	}
	// Commit to the shared cache only now: any worker caught corrupting
	// mid-run has had its cells purged and recomputed above, so nothing
	// unverified-and-suspect persists beyond this grid.
	for i := 0; i < n; i++ {
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
	local, err := j.computeLocal(ctx, st.spec, sample, st.keys)
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
// worker after a head start. The first verified transport-level success
// wins; cells are idempotent, so the losing response is discarded.
func (j *jobDelegate) dispatchResilient(ctx context.Context, w Worker, second *Worker, spec harness.GridSpec, cells []int) (*CellResponse, Worker, error) {
	d := j.d
	if second == nil {
		resp, err := j.dispatchRetry(ctx, w, spec, cells)
		return resp, w, err
	}
	type leg struct {
		resp *CellResponse
		w    Worker
		err  error
	}
	ch := make(chan leg, 2)
	launch := func(lw Worker) {
		go func() {
			resp, err := j.dispatchRetry(ctx, lw, spec, cells)
			ch <- leg{resp: resp, w: lw, err: err}
		}()
	}
	launch(w)
	timer := time.NewTimer(d.cfg.HedgeDelay)
	defer timer.Stop()
	hedged := false
	outstanding := 1
	var firstErr error
	for {
		select {
		case <-timer.C:
			if !hedged {
				hedged = true
				outstanding++
				d.count("cluster.batches.hedged", 1)
				d.log.Info("hedging straggler batch", "grid", spec.ID,
					"primary", w.Name, "hedge", second.Name, "cells", len(cells))
				launch(*second)
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
				launch(*second)
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
// by (grid, worker, batch) between attempts. Breaker accounting is one
// signal per exhausted sequence, not per attempt — retries exist
// precisely so a transient hiccup is absorbed before the breaker hears
// about anything.
func (j *jobDelegate) dispatchRetry(ctx context.Context, w Worker, spec harness.GridSpec, cells []int) (*CellResponse, error) {
	d := j.d
	key := fmt.Sprintf("%s|%s|%d", spec.ID, w.Name, cells[0])
	var lastErr error
	for attempt := 1; ; attempt++ {
		resp, err := j.dispatch(ctx, w, spec, cells)
		if err == nil {
			d.reg.ReportSuccess(w.Name)
			return resp, nil
		}
		lastErr = err
		if !retryable(err) || attempt > d.cfg.RPCRetries {
			break
		}
		d.count("cluster.rpc.retries", 1)
		d.log.Info("batch RPC retrying", "grid", spec.ID, "worker", w.Name,
			"attempt", attempt, "err", err)
		if !harness.Sleep(ctx, harness.Backoff(d.cfg.RetryBase, key, attempt)) {
			break
		}
	}
	d.reg.ReportFailure(w.Name)
	return nil, lastErr
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

// dispatch sends one batch to one worker under the per-batch deadline,
// grafting the worker's spans into the job's trace on success.
func (j *jobDelegate) dispatch(ctx context.Context, w Worker, spec harness.GridSpec, cells []int) (*CellResponse, error) {
	d := j.d
	dctx, cancel := context.WithTimeout(ctx, d.cfg.DispatchTimeout)
	defer cancel()
	dctx, span := telemetry.StartSpan(dctx, "dispatch:"+w.Name)
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
	if sc := telemetry.ScopeFrom(dctx); sc != nil && sc.Tracer != nil {
		req.TraceID = sc.Tracer.ID().String()
	}
	resp, err := j.call(dctx, w.Addr, req)
	if err == nil {
		var spans []telemetry.SpanSnap
		if spans, err = telemetry.DecodeSpans(resp.Spans, 0); err == nil {
			if sc := telemetry.ScopeFrom(dctx); sc != nil && sc.Tracer != nil {
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

// call performs the HTTP RPC.
func (j *jobDelegate) call(ctx context.Context, addr string, req CellRequest) (*CellResponse, error) {
	body, err := json.Marshal(req)
	if err != nil {
		return nil, err
	}
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

// computeLocal runs the given cells in-process through the same capture
// mechanism a worker uses — identical code path, identical bytes — with
// the delegate cleared so the run cannot recurse into dispatch. It is
// both the no-fleet fallback and the audit's authoritative executor.
func (j *jobDelegate) computeLocal(ctx context.Context, spec harness.GridSpec, cells []int, keys []string) (map[int]json.RawMessage, error) {
	capture := harness.NewCellCapture(spec.ID, cells)
	run := harness.RunFrom(ctx)
	run.Capture, run.Delegate = capture, nil
	_, runErr := harness.Experiment(harness.WithRun(ctx, run), j.experiment, j.horizon, j.opts.Attack())
	if err := capture.Err(); err != nil {
		return nil, err
	}
	got := capture.Results()
	out := make(map[int]json.RawMessage, len(cells))
	for _, i := range cells {
		c, ok := got[i]
		if !ok {
			if runErr != nil {
				return nil, fmt.Errorf("cluster: local cell %d: %w", i, runErr)
			}
			return nil, fmt.Errorf("cluster: local cell %d never computed", i)
		}
		if c.Key != keys[i] {
			return nil, fmt.Errorf("cluster: local cell %d key mismatch: want %s, got %s", i, keys[i], c.Key)
		}
		out[i] = c.Result
	}
	return out, nil
}

// runLocal computes cells in-process and merges them as trusted results.
func (j *jobDelegate) runLocal(ctx context.Context, st *gridState, cells []int) error {
	local, err := j.computeLocal(ctx, st.spec, cells, st.keys)
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
