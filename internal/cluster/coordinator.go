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
	"slices"
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
// retries with 50ms-base backoff, backup copies after 15s on the wire,
// audit off. Every batch goes through the dispatcher's one queue (see
// queue), and a cell gets 8 tries before its grid fails.
type DispatcherConfig struct {
	// Cache fronts dispatch (nil = a fresh 64 MiB memory-only cache).
	Cache *ResultCache
	// Registry tracks the worker fleet (nil = a fresh 15s-TTL registry
	// configured with Breaker).
	Registry *Registry
	// Client performs worker RPCs (nil = the dispatcher's own connection
	// pool per worker, capped at the worker's slots and released by
	// Close). Wrap its transport with resilience.NewTransport (and set
	// Faults) to run the whole dispatch plane under an injected fault
	// schedule.
	Client *http.Client
	// DispatchTimeout bounds one batch RPC attempt from its send — time
	// spent waiting for a credit is not charged; a batch that misses it
	// is stolen back and queued again (0 = 2m).
	DispatchTimeout time.Duration
	// BatchSize caps the cells per RPC (0 = 4). Smaller batches steal
	// back less work when a worker dies mid-run.
	BatchSize int
	// RPCRetries is how many extra attempts one batch gets against the
	// same worker before the batch counts as failed (0 = 2, <0 = none).
	// Retries absorb transient faults — a dropped packet no longer
	// steals a whole batch.
	RPCRetries int
	// RetryBase is the base of the deterministic jittered backoff slept
	// between attempts, harness.Backoff-shaped (0 = 50ms).
	RetryBase time.Duration
	// Breaker configures per-worker circuit breakers (used when Registry
	// is nil; a supplied Registry carries its own).
	Breaker resilience.BreakerConfig
	// Deprecated: HedgeRounds is ignored; HedgeDelay alone times backup
	// copies. ROADMAP item 17 deletes it together with perfledger's use
	// of it.
	HedgeRounds int
	// HedgeDelay is how long a batch must have been on the wire, counted
	// from its send, before an idle credit on another worker takes a
	// backup copy of it, once nothing waits in the queue (0 =
	// DispatchTimeout/8); with the audit on, the batch's worker must have
	// passed it. The first verified response wins and the losing leg is
	// cancelled; a batch queued meanwhile stops the backup leg instead.
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
	cache *ResultCache
	reg   *Registry
	cfg   DispatcherConfig
	log   *slog.Logger

	queue queue
	jobs  atomic.Uint64 // the last job's ticket number

	poolMu sync.Mutex
	pools  map[string]*workerPool // without cfg.Client, one per worker

	closeOnShutdown sync.Once // hooks Close onto the server Mount serves on

	statsMu sync.Mutex
	stats   sim.Stats
}

// workerPool is the dispatcher's own connection pool to one worker. It
// holds at most the worker's slots in connections: a worker never has
// more legs on the wire than credits, so a dial beyond that would only
// race a connection about to free up, and idle unused. Its fields are
// guarded by Dispatcher.poolMu.
type workerPool struct {
	addr   string
	slots  int
	client *http.Client
	// rpcs counts the RPCs using the pool. A retired pool, replaced or
	// its worker gone, closes its idle connections when the last ends.
	rpcs    int
	retired bool
}

// NewDispatcher builds a dispatcher, filling config defaults.
func NewDispatcher(cfg DispatcherConfig) *Dispatcher {
	d := &Dispatcher{cache: cfg.Cache, reg: cfg.Registry, cfg: cfg, pools: make(map[string]*workerPool)}
	d.queue.held = make(map[string]int)
	if d.cache == nil {
		d.cache = NewResultCache(0)
	}
	if d.reg == nil {
		d.reg = NewRegistryConfig(RegistryConfig{Breaker: cfg.Breaker})
	}
	if d.cfg.DispatchTimeout <= 0 {
		d.cfg.DispatchTimeout = 2 * time.Minute
	}
	if d.cfg.BatchSize <= 0 {
		d.cfg.BatchSize = 4
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
	if d.cfg.HedgeDelay <= 0 {
		d.cfg.HedgeDelay = d.cfg.DispatchTimeout / 8
	}
	if d.cfg.QuarantineFor <= 0 {
		d.cfg.QuarantineFor = 10 * time.Minute
	}
	d.log = telemetry.OrNop(cfg.Log)
	return d
}

// Close releases the idle connections of the dispatcher's own pools. A
// client supplied in DispatcherConfig is the caller's to close. RPCs
// still in flight finish; the dispatcher stays usable, dialing afresh.
func (d *Dispatcher) Close() {
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	for _, p := range d.pools {
		p.client.CloseIdleConnections()
	}
}

// pool returns w's own pool, rebuilt when w's address or slots change
// (a probe's one credit keeps its pool), and counts one RPC on it until
// release.
func (d *Dispatcher) pool(w Worker) *workerPool {
	slots := max(w.Slots, 1)
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	p := d.pools[w.Name]
	if p == nil || p.addr != w.Addr || p.slots != slots && !w.Probe {
		// Retire w's old pool, and the pools of workers that left the
		// live set, so a fleet re-registering under fresh names cannot
		// grow the map.
		live := d.reg.Live()
		for name, old := range d.pools {
			if name == w.Name || !slices.ContainsFunc(live, func(l Worker) bool { return l.Name == name }) {
				if old.retired = true; old.rpcs == 0 {
					old.client.CloseIdleConnections()
				}
				delete(d.pools, name)
			}
		}
		t := http.DefaultTransport.(*http.Transport).Clone()
		t.MaxConnsPerHost, t.MaxIdleConnsPerHost = slots, slots
		p = &workerPool{addr: w.Addr, slots: slots, client: &http.Client{Transport: t}}
		d.pools[w.Name] = p
	}
	p.rpcs++
	return p
}

// release ends an RPC that pool counted.
func (d *Dispatcher) release(p *workerPool) {
	d.poolMu.Lock()
	defer d.poolMu.Unlock()
	if p.rpcs--; p.retired && p.rpcs == 0 {
		p.client.CloseIdleConnections()
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
	d.queue.mu.Lock()
	dst.Add("cluster.dispatch.queued", d.queue.queued)
	dst.Add("cluster.dispatch.wait_ms", d.queue.waited.Milliseconds())
	d.queue.mu.Unlock()
	dst.SetGauge("cluster.cache.bytes", float64(d.cache.Bytes()))
	dst.SetGauge("cluster.cache.entries", float64(d.cache.Len()))
	dst.SetGauge("cluster.workers.live", float64(len(d.reg.Live())))
	dst.SetGauge("cluster.workers.quarantined", float64(d.reg.Quarantined()))
	d.cfg.Faults.MergeInto(dst)
}

// validateWorkerAddr rejects anything but an absolute http(s) URL — a
// garbage addr accepted here would otherwise surface batches later as
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
		d.pump() // the worker's free credits take waiting batches now
		writeJSON(rw, http.StatusOK, map[string]string{"status": "registered"})
	})
	mux.HandleFunc("GET /v1/cluster/workers", func(rw http.ResponseWriter, r *http.Request) {
		views := d.reg.Views()
		for i := range views {
			views[i].Inflight = d.queue.inflight(views[i].Name)
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

// batchOutcome is one batch's result, fed back to its grid: resp is set
// (worker names who answered), or err, or local when no worker was live
// to take the batch.
type batchOutcome struct {
	worker Worker
	cells  []int
	resp   *CellResponse
	err    error
	local  bool
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

// gridRun is one RunGrid call's share of the dispatch queue.
type gridRun struct {
	j   *jobDelegate
	ctx context.Context
	st  *gridState
	// out receives one outcome per batch. Its capacity is the grid's
	// pending cells: the unresolved batches hold disjoint cells, so a
	// send never blocks, even after the grid has returned.
	out chan batchOutcome
	// outstanding counts the batches queued or on the wire, and tries
	// how often each cell has entered the queue.
	outstanding int
	tries       []uint8
}

// RunGrid computes the given cells of the grid: cache first, then the
// dispatcher's queue — each batch sent on a free credit of any live
// worker, retried with deterministic backoff, backed up to an idle worker
// when it straggles, byte-audited by sample, and queued again when it
// fails or its worker is caught corrupting — falling back to in-process
// execution when no workers are live. Results enter the shared cache
// only after the grid completes, so a corrupting worker's bytes never
// outlive the grid that caught them. Strict: either every requested
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
	if len(pending) > 0 {
		if err := j.dispatchAll(ctx, st, pending); err != nil {
			return nil, err
		}
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

// dispatchAll queues the pending cells and merges the batch outcomes as
// they arrive, putting back the cells of every batch that fails, until
// each cell has merged.
func (j *jobDelegate) dispatchAll(ctx context.Context, st *gridState, pending []int) error {
	d := j.d
	ctx, cancel := context.WithCancel(ctx)
	defer cancel()
	g := &gridRun{j: j, ctx: ctx, st: st, out: make(chan batchOutcome, len(pending)), tries: make([]uint8, len(st.keys))}
	defer d.abandon(g)
	for cells := pending; ; {
		if err := g.enqueue(cells); err != nil {
			return err
		}
		if g.outstanding == 0 {
			return nil
		}
		var out batchOutcome
		select {
		case out = <-g.out:
		case <-ctx.Done():
		}
		if err := ctx.Err(); err != nil {
			// The job ended: an outcome now says nothing about its worker.
			return err
		}
		g.outstanding--
		cells = nil
		switch {
		case out.local:
			// No fleet (or the whole fleet died): the coordinator is always
			// its own worker of last resort.
			d.log.Warn("no live workers, computing locally", "grid", st.spec.ID, "cells", len(out.cells))
			if err := j.runLocal(ctx, st, out.cells); err != nil {
				return err
			}
		case out.err != nil:
			// Steal the batch back: the breaker has recorded the failure
			// and the cells go back in the queue, to another worker or
			// the local fallback.
			d.count("cluster.worker.failures", 1)
			d.count("cluster.cells.stolen", int64(len(out.cells)))
			d.log.Warn("batch failed, stealing cells back",
				"grid", st.spec.ID, "worker", out.worker.Name, "cells", len(out.cells), "err", out.err)
			cells = out.cells
		default:
			var err error
			if cells, err = j.mergeBatch(ctx, st, out); err != nil {
				return err
			}
		}
	}
}

// enqueue puts cells in the dispatcher's queue, in batches sized to
// spread over the live workers' credits; with none live, in one batch
// for the local fallback.
func (g *gridRun) enqueue(cells []int) error {
	if len(cells) == 0 {
		return nil
	}
	d := g.j.d
	for _, i := range cells {
		if g.tries[i]++; g.tries[i] > maxAttempts {
			return fmt.Errorf("cluster: cell %d of %q still pending after %d dispatch attempts", i, g.st.spec.ID, maxAttempts)
		}
	}
	credits, size := 0, d.cfg.BatchSize
	for _, w := range d.reg.Live() {
		credits += w.Slots
	}
	if credits == 0 {
		size = len(cells)
	}
	parts := partition(cells, max(credits, 1), size)
	bs := make([]*batch, len(parts))
	for k, part := range parts {
		bs[k] = &batch{g: g, t: ticket{job: g.j.job, batch: g.j.batches.Add(1)}, cells: part}
	}
	g.outstanding += len(bs)
	d.enqueue(bs)
	return nil
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
		d.reg.ReportAudited(out.worker.Name)
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
// deterministic per-cell coin that every attempt and every job flips the
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

// dispatchRetry attempts one batch RPC against one worker up to
// 1+RPCRetries times, holding one of the worker's credits throughout and
// sleeping the deterministic harness backoff keyed by (grid, worker,
// batch) between attempts. Breaker accounting is one signal per exhausted
// sequence, not per attempt — retries exist precisely so a transient
// hiccup is absorbed before the breaker hears about anything — and none
// for an attempt that failed because ctx ended: the job was cancelled,
// or another leg of the batch won.
func (j *jobDelegate) dispatchRetry(ctx context.Context, w Worker, spec harness.GridSpec, cells []int) (*CellResponse, error) {
	d := j.d
	key := fmt.Sprintf("%s|%s|%d", spec.ID, w.Name, cells[0])
	for attempt := 1; ; attempt++ {
		resp, err := j.dispatch(ctx, w, spec, cells)
		if err == nil {
			d.reg.ReportSuccess(w.Name)
			return resp, nil
		}
		if ctx.Err() != nil {
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

// dispatch sends one batch to one worker under the per-batch deadline,
// grafting the worker's spans into the job's trace on success.
func (j *jobDelegate) dispatch(ctx context.Context, w Worker, spec harness.GridSpec, cells []int) (*CellResponse, error) {
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
	body, err := json.Marshal(req)
	if err != nil {
		span.EndErr(err)
		return nil, err
	}
	dctx, cancel := context.WithTimeout(ctx, d.cfg.DispatchTimeout)
	resp, err := j.call(dctx, w, body)
	cancel()
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

// call performs the HTTP RPC of one encoded CellRequest.
func (j *jobDelegate) call(ctx context.Context, w Worker, body []byte) (*CellResponse, error) {
	hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, w.Addr+"/v1/cells", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	hreq.Header.Set("Content-Type", "application/json")
	client := j.d.cfg.Client
	if client == nil {
		p := j.d.pool(w)
		defer j.d.release(p) // after the body closes, its connection idle
		client = p.client
	}
	hresp, err := client.Do(hreq)
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

// partition splits cells into batches of at most batchSize, sized so the
// batches spread over all credits: ceil(len/credits) capped at
// batchSize.
func partition(cells []int, credits, batchSize int) [][]int {
	size := max(min((len(cells)+credits-1)/credits, batchSize), 1)
	var out [][]int
	for len(cells) > 0 {
		n := min(size, len(cells))
		out, cells = append(out, cells[:n]), cells[n:]
	}
	return out
}
