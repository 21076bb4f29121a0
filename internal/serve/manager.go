// Package serve is the simulation-as-a-service layer behind cmd/hammerd:
// a bounded pool of simulation sessions fed by an admission-controlled
// job queue over the experiment harness. It exists because the paper's
// grids are minutes-long batch jobs: a daemon that accepts them must
// bound its own concurrency (session pool), shed load instead of
// queueing without bound (bounded queue + per-client token buckets, 429
// with Retry-After), survive a crashing simulation (per-session panic
// isolation), stop a running one on request (the cooperative
// cancellation threaded through core.Machine.RunCtx — a cancelled job
// tears its machine down auditor-consistent, it is not abandoned), and
// drain gracefully on SIGTERM (finish running jobs, reject new ones,
// then exit 0). The serve fault site (package fault) injects latency,
// panics and cancellations into the pool so those properties stay
// tested.
package serve

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"hammertime/internal/fault"
	"hammertime/internal/harness"
	"hammertime/internal/obs"
	"hammertime/internal/sim"
	"hammertime/internal/telemetry"
)

// RunFunc executes one job's simulation and returns the rendered result
// table. The default runs the harness experiment dispatcher; tests
// substitute fast fakes.
type RunFunc func(ctx context.Context, req JobRequest) (string, error)

// Config parametrizes a Manager. The zero value serves: 2 sessions, an
// 8-deep queue, 5 submissions/s/client with burst 10, no job deadline,
// no injected faults.
type Config struct {
	// Sessions is the pool size: at most this many jobs simulate
	// concurrently (0 = 2).
	Sessions int
	// QueueDepth bounds the jobs waiting for a session; submissions
	// beyond it are shed with 429 + Retry-After (0 = 8).
	QueueDepth int
	// RatePerSec and Burst parametrize the per-client token buckets
	// (RatePerSec 0 = 5/s; < 0 disables limiting; Burst 0 = 10).
	RatePerSec float64
	Burst      int
	// JobTimeout is the per-job running deadline (0 = none). A request's
	// own Timeout may only tighten it.
	JobTimeout time.Duration
	// Faults, when non-nil, is the armed serve fault site: it injects
	// latency, cancellations and session panics into the pool, counted
	// on /metrics as fault.serve.*.
	Faults *fault.Site
	// Run overrides the simulation runner (nil = harness.Experiment).
	Run RunFunc
	// Logger receives structured request/job/drain logs and the
	// harness's failed-cell and slow-cell warnings (nil = silent, the
	// historical behavior).
	Logger *slog.Logger
	// TrustClientHeader keys rate limiting by the X-Hammertime-Client
	// header when set. Off by default: the header is unauthenticated, so
	// trusting it lets any caller mint fresh rate-limit identities per
	// request (or exhaust another client's budget by impersonation).
	// Enable only behind a proxy that strips or validates it.
	TrustClientHeader bool
	// ExtraMetrics, when non-nil, contributes additional metrics to every
	// Metrics snapshot — the cluster dispatcher wires its cache/steal
	// counters here. It is called outside the manager's locks with a
	// scratch Stats already holding the serve metrics.
	ExtraMetrics func(*sim.Stats)
	// Store, when non-nil, makes the registry durable: every accepted
	// job is journaled across its lifecycle, running jobs thread a
	// per-job harness checkpoint, and NewManager replays the journal —
	// terminal jobs reappear with their tables, orphaned queued/running
	// jobs are resubmitted under their original id and trace and resume
	// from their last completed cells. NewManager takes the store's
	// replay, so a store serves one manager. cmd/hammerd wires -state-dir
	// here via OpenStore.
	Store *Store
	// RetentionAge evicts terminal jobs from the registry (and the
	// store's next compaction) once they have been finished this long
	// (0 = 6h; < 0 disables the age bound). Running and queued jobs are
	// never evicted.
	RetentionAge time.Duration
	// RetentionMax bounds how many terminal jobs the registry retains;
	// beyond it the oldest-finished are evicted (0 = 4096; < 0 disables
	// the count bound). Without retention a long-lived daemon leaked
	// every job ever submitted.
	RetentionMax int
}

func (c *Config) applyDefaults() {
	if c.Sessions <= 0 {
		c.Sessions = 2
	}
	if c.QueueDepth <= 0 {
		c.QueueDepth = 8
	}
	if c.RatePerSec == 0 {
		c.RatePerSec = 5
	}
	if c.Burst <= 0 {
		c.Burst = 10
	}
	if c.RetentionAge == 0 {
		c.RetentionAge = 6 * time.Hour
	}
	if c.RetentionMax == 0 {
		c.RetentionMax = 4096
	}
	if c.Run == nil {
		c.Run = func(ctx context.Context, req JobRequest) (string, error) {
			tb, err := harness.Experiment(ctx, req.Experiment, req.Horizon, harness.AttackOpts{})
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		}
	}
}

// ErrDraining rejects submissions while the daemon is shutting down.
var ErrDraining = errors.New("serve: draining, not accepting new jobs")

// ErrUnknownJob marks lookups of job ids the daemon has never seen.
var ErrUnknownJob = errors.New("serve: unknown job")

// OverloadError is a shed submission: the queue is full or the client
// is over its rate. The HTTP layer renders it as 429 with Retry-After.
type OverloadError struct {
	Reason     string
	RetryAfter time.Duration
}

// Error implements error.
func (e *OverloadError) Error() string {
	return fmt.Sprintf("serve: overloaded (%s), retry after %v", e.Reason, e.RetryAfter)
}

// errInjectedCancel is the cancellation cause of serve.cancel.
var errInjectedCancel = errors.New("serve: injected cancellation (serve.cancel)")

// errShutdown cancels the jobs still queued when the daemon shuts down.
var errShutdown = errors.New("serve: daemon shutdown")

// errJobFinished cancels a job's context once the job is terminal, so
// the manager's base context stops holding it.
var errJobFinished = errors.New("serve: job finished")

// Manager owns the session pool, the job queue and the job registry.
type Manager struct {
	cfg     Config
	limiter *limiter
	log     *slog.Logger
	store   *Store
	now     func() time.Time // test hook for the retention sweep

	baseCtx    context.Context
	baseCancel context.CancelCauseFunc

	mu            sync.Mutex
	jobs          map[string]*Job
	queue         chan *Job
	draining      bool
	drainDeadline time.Time
	lastSweep     time.Time
	evicted       int64 // lifetime retention evictions

	// Recovery counts, fixed at NewManager: terminal jobs replayed into
	// the registry and orphans resubmitted for resume.
	replayed, resumed int

	running atomic.Int64
	nextID  atomic.Uint64
	wg      sync.WaitGroup

	statsMu sync.Mutex
	stats   *sim.Stats
}

// NewManager builds the manager, replays the persistent store when one
// is configured (terminal jobs reappear, orphaned queued/running jobs
// are resubmitted to resume from their checkpoints), and starts the
// session pool.
func NewManager(cfg Config) *Manager {
	cfg.applyDefaults()
	ctx, cancel := context.WithCancelCause(context.Background())
	m := &Manager{
		cfg:        cfg,
		limiter:    newLimiter(cfg.RatePerSec, cfg.Burst),
		log:        telemetry.OrNop(cfg.Logger),
		store:      cfg.Store,
		now:        time.Now,
		baseCtx:    ctx,
		baseCancel: cancel,
		jobs:       make(map[string]*Job),
		stats:      &sim.Stats{},
	}
	// Job latency buckets: 1ms up through ~1h (simulation grids are
	// minutes-long; the default 1s-based buckets would flatten them).
	m.stats.NewHistogram("serve.job.seconds", sim.ExpBuckets(0.001, 4, 12))

	// Recovery runs before the sessions start, so orphans are enqueued
	// without racing admission. The queue is over-provisioned by the
	// orphan count: recovered work was already accepted once and must
	// not be shed, while new submissions stay bounded by QueueDepth (an
	// explicit check in Submit, not channel capacity).
	orphans := m.recover()
	m.queue = make(chan *Job, cfg.QueueDepth+len(orphans))
	for _, job := range orphans {
		m.queue <- job
		job.persist()
		m.log.Info("job resumed from store",
			"job", job.ID, "trace", job.TraceID(), "client", job.Client,
			"experiment", job.Request.Experiment, "restarts", job.Restarts)
	}
	for i := 0; i < cfg.Sessions; i++ {
		m.wg.Add(1)
		go m.session(i)
	}
	return m
}

// recover replays the store into the registry. Terminal records become
// inert jobs; queued or running records are orphans of the dead
// process — rebuilt as live jobs under their original id, submission
// time and trace id, with Restarts bumped, and returned for the caller
// to enqueue. The live retention sweep then evicts the replayed history
// the running daemon would already have dropped, and the journal is
// rewritten once from what survived, in journal order. Also restores
// the id counter past every recovered id and clears checkpoint debris
// of jobs that no longer need one.
func (m *Manager) recover() []*Job {
	if m.store == nil {
		return nil
	}
	recs := m.store.replayed()
	live := make(map[string]bool)
	var orphans []*Job
	var maxID uint64
	for _, rec := range recs {
		var n uint64
		if _, err := fmt.Sscanf(rec.ID, "job-%d", &n); err == nil && n > maxID {
			maxID = n
		}
		if rec.State.Terminal() {
			m.jobs[rec.ID] = replayedJob(rec)
			continue
		}
		// Orphan: the previous process died with this job queued or
		// running. Resubmit it with its trace preserved, so the trace a
		// client captured at submission still names the job's spans.
		tracer := telemetry.NewTracer()
		if tid, ok := telemetry.ParseTraceID(rec.TraceID); ok {
			tracer = telemetry.NewTracerWithID(tid)
		}
		job := m.newJob(rec.ID, rec.Client, rec.Request, rec.Restarts+1, rec.Submitted, tracer)
		m.jobs[rec.ID] = job
		orphans = append(orphans, job)
		live[rec.ID] = true
	}
	// Keep only the id namespace monotonic: replayed and resumed ids
	// must never be re-minted for new submissions.
	m.nextID.Store(maxID)
	m.mu.Lock()
	m.sweepRetentionLocked(true)
	kept := recs[:0]
	for _, rec := range recs {
		if m.jobs[rec.ID] != nil {
			kept = append(kept, rec)
		}
	}
	m.mu.Unlock()
	m.replayed, m.resumed = len(kept)-len(orphans), len(orphans)
	m.store.SweepCheckpoints(live)
	// Rewrite the journal to the retained view: without this, records
	// evicted here (or by the previous process's live sweep) survive on
	// disk and are re-filtered at every restart forever. An empty replay
	// leaves nothing to compact.
	if len(recs) > 0 {
		if err := m.store.rewrite(kept); err != nil {
			m.log.Warn("store compaction after recovery failed", "err", err)
		}
	}
	return orphans
}

// count bumps a server counter (the stats object is shared across
// sessions and HTTP handlers, hence the mutex).
func (m *Manager) count(name string) {
	m.statsMu.Lock()
	m.stats.Inc(name)
	m.statsMu.Unlock()
}

// observeHTTP records one served request into the per-route metrics:
// a latency histogram labeled by route pattern and a counter labeled
// by route + status code. Routes are mux patterns, not raw paths, so
// the label set stays bounded.
func (m *Manager) observeHTTP(route string, status int, secs float64) {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	hname := "serve.http.seconds;route=" + route
	if m.stats.Hist(hname) == nil {
		// 0.5ms up through ~2min: API calls cluster at the bottom, SSE
		// streams that follow a whole job live at the top.
		m.stats.NewHistogram(hname, sim.ExpBuckets(0.0005, 4, 10))
	}
	m.stats.Observe(hname, secs)
	m.stats.Inc("serve.http.requests;route=" + route + ";code=" + strconv.Itoa(status))
}

// Metrics snapshots the server counters plus live gauges, merged with
// whatever ExtraMetrics contributes.
func (m *Manager) Metrics() sim.StatsSnapshot {
	m.mu.Lock()
	registry := len(m.jobs)
	evicted := m.evicted
	m.mu.Unlock()
	m.statsMu.Lock()
	m.stats.SetGauge("serve.jobs.registry", float64(registry))
	m.stats.SetGauge("serve.jobs.evicted", float64(evicted))
	m.stats.SetGauge("serve.sessions", float64(m.cfg.Sessions))
	m.stats.SetGauge("serve.queue.depth", float64(len(m.queue)))
	m.stats.SetGauge("serve.queue.capacity", float64(m.cfg.QueueDepth))
	m.stats.SetGauge("serve.jobs.running", float64(m.running.Load()))
	if m.cfg.ExtraMetrics == nil && m.cfg.Faults == nil {
		defer m.statsMu.Unlock()
		return m.stats.Snapshot()
	}
	var merged sim.Stats
	merged.Merge(m.stats)
	m.statsMu.Unlock()
	m.cfg.Faults.MergeInto(&merged)
	if m.cfg.ExtraMetrics != nil {
		m.cfg.ExtraMetrics(&merged)
	}
	return merged.Snapshot()
}

// avgJobSeconds is the measured mean job duration from the
// serve.job.seconds histogram, defaulting to one second before any job
// has completed. It feeds the Retry-After estimates: a daemon running
// minutes-long grids should not tell a shed client to come back in 5s.
func (m *Manager) avgJobSeconds() float64 {
	m.statsMu.Lock()
	defer m.statsMu.Unlock()
	h := m.stats.Hist("serve.job.seconds")
	if h == nil || h.Count() == 0 {
		return 1
	}
	return h.Sum() / float64(h.Count())
}

// clampRetry bounds a Retry-After estimate to something a client can
// act on: at least a second, at most 15 minutes.
func clampRetry(d time.Duration) time.Duration {
	if d < time.Second {
		return time.Second
	}
	if d > 15*time.Minute {
		return 15 * time.Minute
	}
	return d
}

// queueRetryAfter estimates when a queue slot frees: the queued backlog
// divided over the session pool, paced by the measured job duration.
func (m *Manager) queueRetryAfter() time.Duration {
	backlog := float64(len(m.queue)) / float64(m.cfg.Sessions)
	secs := m.avgJobSeconds() * (1 + backlog)
	return clampRetry(time.Duration(secs * float64(time.Second)))
}

// DrainRetryAfter estimates when the draining daemon's replacement can
// take traffic: the drain deadline's remaining time when one was set,
// otherwise the in-flight and queued work paced by the measured job
// duration. The HTTP layer sends it on 503s (readyz and shed submits).
func (m *Manager) DrainRetryAfter() time.Duration {
	m.mu.Lock()
	deadline := m.drainDeadline
	queued := len(m.queue)
	m.mu.Unlock()
	if !deadline.IsZero() {
		return clampRetry(time.Until(deadline))
	}
	work := float64(m.running.Load()) + float64(queued)
	batches := 1 + work/float64(m.cfg.Sessions)
	return clampRetry(time.Duration(batches * m.avgJobSeconds() * float64(time.Second)))
}

// Ready reports whether the daemon accepts new jobs (false once
// draining). Liveness is the process itself: /healthz answers 200 as
// long as the HTTP loop runs.
func (m *Manager) Ready() bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	return !m.draining
}

// newJob constructs a live job — contexts, cancel cause, telemetry
// scope (tracer + SSE hub, plus an obs recorder when the request opted
// into event streaming), lifecycle spans. Shared by Submit (fresh
// tracer, restarts 0) and recovery (preserved id/trace, bumped
// restarts).
func (m *Manager) newJob(id, client string, req JobRequest, restarts int, submitted time.Time, tracer *telemetry.Tracer) *Job {
	jctx, cancel := context.WithCancelCause(m.baseCtx)
	job := &Job{
		ID:        id,
		Client:    client,
		Request:   req,
		Restarts:  restarts,
		state:     StateQueued,
		submitted: submitted,
		cancel:    cancel,
		done:      make(chan struct{}),
		store:     m.store,
	}
	job.runCtx = jctx

	// Every job carries a telemetry scope: a tracer (the trace id goes
	// back in the submit response) and a hub for its SSE stream. The obs
	// recorder is attached only when the request opted into raw event
	// streaming — it would disable the simulator's unobserved fast path.
	job.scope = &telemetry.Scope{Tracer: tracer, Hub: telemetry.NewHub()}
	if req.Events != "" {
		rec := obs.NewRecorder(job.scope.Hub.ObsSink())
		if kinds, err := obs.ParseKinds(req.Events); err == nil && len(kinds) > 0 {
			rec.SetKinds(kinds...)
		}
		rec.SetJob(job.ID)
		job.scope.Observer = rec
	}
	sctx := telemetry.NewContext(context.Background(), job.scope)
	sctx, job.jobSpan = telemetry.StartSpan(sctx, "job")
	job.jobSpan.SetAttrs(
		telemetry.String("job", job.ID),
		telemetry.String("experiment", req.Experiment),
		telemetry.String("client", client),
	)
	if restarts > 0 {
		job.jobSpan.SetAttrs(telemetry.Int("restarts", int64(restarts)))
	}
	_, job.queuedSpan = telemetry.StartSpan(sctx, "queued")
	return job
}

// Submit validates, admission-checks and enqueues a job. The typed
// errors map to HTTP: ErrDraining -> 503, *OverloadError -> 429 +
// Retry-After, anything else -> 400. Order matters: draining and
// queue-full are checked before the rate limiter spends a token, so a
// shed submission never also burns the client's budget — previously a
// client hitting a full queue was double-penalized (429 now and a
// poorer bucket on retry).
func (m *Manager) Submit(client string, req JobRequest) (*Job, error) {
	if !harness.ValidExperiment(req.Experiment) {
		m.count("serve.jobs.rejected.invalid")
		return nil, fmt.Errorf("serve: unknown experiment %q (want one of %v)",
			req.Experiment, harness.ExperimentIDs())
	}
	if req.Timeout < 0 {
		m.count("serve.jobs.rejected.invalid")
		return nil, fmt.Errorf("serve: negative timeout %v", time.Duration(req.Timeout))
	}
	if _, err := obs.ParseKinds(req.Events); err != nil {
		m.count("serve.jobs.rejected.invalid")
		return nil, fmt.Errorf("serve: bad events filter: %w", err)
	}

	m.mu.Lock()
	if m.draining {
		m.mu.Unlock()
		m.count("serve.jobs.rejected.draining")
		return nil, ErrDraining
	}
	// New submissions are bounded by the configured depth, not channel
	// capacity (recovery may have over-provisioned the channel for
	// resumed jobs). Checked under m.mu — only Submit adds, so the bound
	// cannot be raced past.
	if len(m.queue) >= m.cfg.QueueDepth {
		m.mu.Unlock()
		m.count("serve.jobs.rejected.queue")
		// Estimate the wait from the queue's measured drain rate: the
		// backlog spread over the session pool, paced by the mean job
		// duration observed so far — not a constant that undershoots by
		// orders of magnitude once real grids (minutes each) arrive.
		return nil, &OverloadError{Reason: "queue full", RetryAfter: m.queueRetryAfter()}
	}
	if ok, retry := m.limiter.allow(client); !ok {
		m.mu.Unlock()
		m.count("serve.jobs.rejected.rate")
		return nil, &OverloadError{Reason: "client rate limit", RetryAfter: retry}
	}
	m.sweepRetentionLocked(false)
	job := m.newJob(fmt.Sprintf("job-%d", m.nextID.Add(1)), client, req, 0, time.Now(), telemetry.NewTracer())
	select {
	case m.queue <- job:
	default:
		// Unreachable while the depth check above holds (capacity is
		// never below QueueDepth); kept as a fail-safe so a future
		// regression sheds instead of deadlocking under m.mu.
		m.mu.Unlock()
		job.cancel(errors.New("serve: queue full"))
		m.count("serve.jobs.rejected.queue")
		return nil, &OverloadError{Reason: "queue full", RetryAfter: m.queueRetryAfter()}
	}
	m.jobs[job.ID] = job
	m.mu.Unlock()
	job.persist()
	m.count("serve.jobs.submitted")
	m.log.Info("job submitted",
		"job", job.ID, "trace", job.TraceID(), "client", client,
		"experiment", req.Experiment, "horizon", req.Horizon)
	m.publishState(job)
	return job, nil
}

// publishState pushes the job's current view onto its hub as a "state"
// record, so SSE subscribers see lifecycle transitions alongside
// progress. Free when nobody is subscribed.
func (m *Manager) publishState(job *Job) {
	if job.scope != nil {
		job.scope.Hub.Publish("state", job.View())
	}
}

// Get returns the job by id.
func (m *Manager) Get(id string) (*Job, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	job, ok := m.jobs[id]
	if !ok {
		return nil, ErrUnknownJob
	}
	return job, nil
}

// Cancel tears the job down: a queued job is marked cancelled before a
// session ever picks it up; a running job has its context cancelled and
// the simulation unwinds at its next cancellation point.
func (m *Manager) Cancel(id string) (*Job, error) {
	job, err := m.Get(id)
	if err != nil {
		return nil, err
	}
	cause := errors.New("serve: cancelled by client")
	job.cancel(cause)
	// Pre-run (queued) jobs transition here; running jobs transition in
	// the session once the simulation unwinds, keeping state truthful —
	// "cancelled" means the machine is actually torn down.
	job.mu.Lock()
	queued := job.state == StateQueued
	job.mu.Unlock()
	if queued {
		m.finish(job, StateCancelled, "", cause, "serve.jobs.cancelled", slog.LevelInfo, "job cancelled while queued")
	}
	return job, nil
}

// finish is every terminal transition. It moves job to state — done
// with table, otherwise failed or cancelled by cause — which ends the
// job's spans, freezes its trace and journals the terminal record before
// Done fires; then it cancels the job's context with errJobFinished (an
// earlier cause wins), so the base context no longer holds the job,
// bumps counter, removes its checkpoint (a terminal job never resumes,
// so its per-cell state is dead weight), logs msg at level and
// publishes the final state. A job already terminal is left as it is.
func (m *Manager) finish(job *Job, state JobState, table string, cause error, counter string, level slog.Level, msg string, attrs ...any) {
	if !job.end(state, table, cause) {
		return
	}
	job.cancel(errJobFinished)
	m.count(counter)
	if m.store != nil {
		m.store.RemoveCheckpoint(job.ID)
	}
	m.log.Log(context.Background(), level, msg, append([]any{"job", job.ID, "trace", job.TraceID()}, attrs...)...)
	m.publishState(job)
}

// Jobs lists every known job, newest first bounded by max (0 = all).
func (m *Manager) Jobs(max int) []JobView {
	m.mu.Lock()
	views := make([]JobView, 0, len(m.jobs))
	for _, j := range m.jobs {
		views = append(views, j.View())
	}
	m.mu.Unlock()
	// Newest first by submission time, id as the tie-break so replayed
	// histories (whole restarts share coarse timestamps) list stably.
	// O(n log n): with the store replaying full histories at startup
	// this path must not be quadratic in the journal size.
	sort.Slice(views, func(i, j int) bool {
		if !views[i].Submitted.Equal(views[j].Submitted) {
			return views[i].Submitted.After(views[j].Submitted)
		}
		return views[i].ID > views[j].ID
	})
	if max > 0 && len(views) > max {
		views = views[:max]
	}
	return views
}

// Recovered reports what NewManager rebuilt from the store: terminal
// jobs replayed into the registry and orphans resubmitted for resume.
func (m *Manager) Recovered() (replayed, resumed int) {
	return m.replayed, m.resumed
}

// retentionSweepEvery is the cadence of the opportunistic retention
// sweep run on the submission path.
const retentionSweepEvery = time.Minute

// sweepRetentionLocked evicts terminal jobs per the retention policy:
// first everything finished longer than RetentionAge ago, then the
// oldest-finished beyond RetentionMax. Live (queued/running) jobs are
// untouchable. Caller holds m.mu. Unless forced, the sweep runs at most
// once per retentionSweepEvery — eviction is O(registry) and rides the
// submission path.
func (m *Manager) sweepRetentionLocked(force bool) {
	if m.cfg.RetentionAge <= 0 && m.cfg.RetentionMax <= 0 {
		return
	}
	now := m.now()
	if !force && now.Sub(m.lastSweep) < retentionSweepEvery {
		return
	}
	m.lastSweep = now
	type aged struct {
		id       string
		finished time.Time
	}
	var terminal []aged
	for id, j := range m.jobs {
		v := j.View()
		if !v.State.Terminal() || v.Finished == nil {
			continue
		}
		if m.cfg.RetentionAge > 0 && now.Sub(*v.Finished) > m.cfg.RetentionAge {
			m.evictLocked(id)
			continue
		}
		terminal = append(terminal, aged{id, *v.Finished})
	}
	if m.cfg.RetentionMax > 0 && len(terminal) > m.cfg.RetentionMax {
		sort.Slice(terminal, func(a, b int) bool {
			return terminal[a].finished.Before(terminal[b].finished)
		})
		for _, t := range terminal[:len(terminal)-m.cfg.RetentionMax] {
			m.evictLocked(t.id)
		}
	}
}

// evictLocked removes one terminal job from the registry. Its
// checkpoint went when it finished, and its journal line goes at the
// next start's compaction. Caller holds m.mu.
func (m *Manager) evictLocked(id string) {
	delete(m.jobs, id)
	m.evicted++
}

// Drain stops admission and waits for in-flight jobs. Queued jobs still
// run — they were accepted, and accepted work completes. If ctx expires
// first, running simulations are cooperatively cancelled (they unwind
// at the next cancellation point, auditor-consistent) and Drain returns
// an error once they have.
func (m *Manager) Drain(ctx context.Context) error {
	m.mu.Lock()
	if !m.draining {
		m.draining = true
		close(m.queue)
	}
	if dl, ok := ctx.Deadline(); ok && m.drainDeadline.IsZero() {
		// Remembered for Retry-After: by this time the jobs have either
		// finished or been cancelled, so a shed client retrying then
		// meets whatever replaces this process.
		m.drainDeadline = dl
	}
	queued := len(m.queue)
	m.mu.Unlock()
	m.log.Info("drain started", "running", m.running.Load(), "queued", queued)

	done := make(chan struct{})
	go func() {
		m.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		m.log.Info("drain complete")
		return nil
	case <-ctx.Done():
		m.baseCancel(fmt.Errorf("serve: drain deadline: %w", context.Cause(ctx)))
		<-done
		m.log.Warn("drain deadline exceeded, in-flight jobs cancelled")
		return fmt.Errorf("serve: drain deadline exceeded, in-flight jobs cancelled")
	}
}

// session is one pool worker: it pops jobs until the queue closes
// (drain), running each with panic isolation so a crashing simulation
// takes down its job, not the daemon. Once the base context dies (hard
// shutdown) no popped job starts: each still queued ends cancelled, and
// the session returns when the queue is empty.
func (m *Manager) session(id int) {
	defer m.wg.Done()
	for {
		var job *Job
		ok := false
		select {
		case <-m.baseCtx.Done():
			select {
			case job, ok = <-m.queue:
			default:
			}
		case job, ok = <-m.queue:
		}
		if !ok {
			return
		}
		if m.baseCtx.Err() != nil {
			m.finish(job, StateCancelled, "", errShutdown, "serve.jobs.cancelled", slog.LevelInfo, "job cancelled at shutdown")
			continue
		}
		m.runJob(id, job)
	}
}

// runJob executes one job end to end on this session.
func (m *Manager) runJob(session int, job *Job) {
	if job.State().Terminal() {
		return // cancelled while queued
	}
	ctx := job.runCtx
	timeout := m.cfg.JobTimeout
	if t := time.Duration(job.Request.Timeout); t > 0 && (timeout == 0 || t < timeout) {
		timeout = t
	}
	if timeout > 0 {
		var cancelT context.CancelFunc
		ctx, cancelT = context.WithTimeout(ctx, timeout)
		defer cancelT()
	}

	// Injected faults: pre-run latency and a mid-run cancellation timer.
	if faults := m.cfg.Faults; faults != nil {
		lat, fired := faults.Roll("latency")
		if fired {
			t := time.NewTimer(lat.Dur)
			select {
			case <-t.C:
			case <-ctx.Done():
				t.Stop()
			}
		}
		if _, fired := faults.Roll("cancel"); fired {
			t := time.AfterFunc(lat.Dur/2+time.Millisecond, func() {
				job.cancel(errInjectedCancel)
			})
			defer t.Stop()
		}
	}

	ctx, ok := job.start(ctx, session)
	if !ok {
		return
	}
	job.persist()

	// Each job runs its grids under its own harness Run, so concurrent
	// sessions share no settings: the harness warns in the daemon's log,
	// and durable jobs get a per-job checkpoint. Completed grid cells are
	// journaled under the job's id, so if this process dies mid-run the
	// restarted daemon resumes the job from its last completed cells
	// instead of recomputing the grid. A checkpoint that cannot be opened
	// degrades to a non-resumable run rather than failing the job.
	run := harness.Run{
		Policy: harness.Policy{SlowCellWarn: harness.DefaultSlowCellWarn},
		Logger: m.cfg.Logger,
	}
	if m.store != nil {
		if ck, err := harness.OpenCheckpoint(m.store.CheckpointPath(job.ID)); err != nil {
			m.log.Warn("job checkpoint unavailable, run will not be resumable",
				"job", job.ID, "err", err)
		} else {
			if job.Restarts > 0 && ck.Loaded() > 0 {
				m.log.Info("job resuming from checkpoint",
					"job", job.ID, "trace", job.TraceID(), "cells", ck.Loaded())
			}
			run.Checkpoint = ck
			defer func() {
				if cerr := ck.Close(); cerr != nil {
					m.log.Warn("job checkpoint close failed", "job", job.ID, "err", cerr)
				}
			}()
		}
	}
	ctx = harness.WithRun(ctx, run)
	m.log.Info("job running",
		"job", job.ID, "trace", job.TraceID(), "session", session,
		"experiment", job.Request.Experiment, "restarts", job.Restarts)
	m.publishState(job)

	m.running.Add(1)
	start := time.Now()
	table, err, panicked := m.attempt(ctx, job)
	m.running.Add(-1)
	elapsed := time.Since(start)
	m.statsMu.Lock()
	m.stats.Observe("serve.job.seconds", elapsed.Seconds())
	m.statsMu.Unlock()

	switch {
	case panicked:
		m.finish(job, StateFailed, "", err, "serve.jobs.panicked", slog.LevelError, "job session panicked",
			"session", session, "err", err)
	case err != nil && (ctx.Err() != nil || errors.Is(err, context.Canceled) || errors.Is(err, context.DeadlineExceeded)):
		m.finish(job, StateCancelled, "", err, "serve.jobs.cancelled", slog.LevelInfo, "job cancelled",
			"session", session, "elapsed", elapsed, "cause", err)
	case err != nil:
		m.finish(job, StateFailed, "", err, "serve.jobs.failed", slog.LevelWarn, "job failed",
			"session", session, "elapsed", elapsed, "err", err)
	default:
		m.finish(job, StateDone, table, nil, "serve.jobs.done", slog.LevelInfo, "job done",
			"session", session, "elapsed", elapsed)
	}
}

// attempt runs the job's simulation with panic isolation: a panic — a
// simulator bug or injected chaos — is contained into an error on this
// job and the session keeps serving.
func (m *Manager) attempt(ctx context.Context, job *Job) (table string, err error, panicked bool) {
	defer func() {
		if r := recover(); r != nil {
			panicked = true
			err = fmt.Errorf("serve: session panic: %v", r)
		}
	}()
	if _, fired := m.cfg.Faults.Roll("panic"); fired {
		panic("serve: injected session panic (serve.panic)")
	}
	table, err = m.cfg.Run(ctx, job.Request)
	return table, err, false
}
