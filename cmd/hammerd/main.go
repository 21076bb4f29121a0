// Command hammerd serves the experiment harness over HTTP: submit an
// experiment (e1..e10), poll its status, fetch the rendered table,
// cancel it mid-simulation. The daemon is built for long-running
// operation on shared hardware:
//
//   - a bounded session pool (-sessions) caps concurrent simulations;
//   - a bounded queue (-queue) plus per-client token buckets (-rate,
//     -burst) shed load with 429 + Retry-After instead of queueing
//     without bound; Retry-After is derived from the measured queue
//     drain rate (or the drain deadline), not a constant;
//   - per-job deadlines (-job-timeout, or "timeout" per request) and
//     client cancellation (DELETE) tear a running simulation down via
//     the cooperative cancellation threaded through the simulator's
//     hot loops — the machine unwinds at its next cancellation point,
//     auditor-consistent, not abandoned;
//   - a panicking simulation fails its own job and the session keeps
//     serving (per-session panic isolation);
//   - SIGINT/SIGTERM drains gracefully: /readyz flips to 503, running
//     and queued jobs finish (bounded by -drain-timeout, after which
//     they are cooperatively cancelled), then the daemon exits 0;
//   - -state-dir makes jobs durable: every accepted job is journaled
//     and running jobs checkpoint completed grid cells, so a crashed
//     (even SIGKILL'd) daemon restarts with finished jobs' tables
//     intact and interrupted jobs resumed — same job id, same trace id,
//     byte-identical table; -job-retention and -job-retention-count
//     bound the retained history;
//   - -faults (or $HAMMERTIME_FAULTS) and -fault-seed arm the fault
//     injection the CI soaks use, e.g. "serve.panic:0.1,rpc.drop:0.1"
//     (DESIGN.md lists every fault and which processes run it);
//   - every job carries a telemetry trace (trace_id in the submit
//     response): GET /v1/jobs/{id}/events streams live progress over
//     SSE, GET /v1/jobs/{id}/trace returns the span tree as a Chrome
//     trace, and GET /metrics serves Prometheus text exposition when
//     asked for text/plain; -log-format/-log-level shape the
//     structured request/job logs on stderr.
//
// Beyond the standalone default, hammerd runs as a cluster:
//
//   - -coordinator accepts jobs as usual but shards each experiment's
//     grids cell-by-cell across registered workers, merging the partial
//     results byte-identically to a serial run. Straggler and dead-worker
//     cells are stolen and re-dispatched (or computed locally), so a
//     worker crash never loses a run. A content-addressed result cache
//     (-cache-bytes, -cache-spill) short-circuits cells already computed
//     under the same determinism epoch, seed and grid config;
//   - -worker http://coordinator:8077 turns the process into a stateless
//     cell executor: it registers with the coordinator (heartbeats double
//     as liveness), computes assigned cells with the same simulator, and
//     returns exact result JSON plus its span trace, which the
//     coordinator grafts into the job's trace.
//
// Quickstart:
//
//	hammerd -addr localhost:8077 &
//	curl -s -XPOST localhost:8077/v1/jobs -d '{"experiment":"e1","horizon":400000}'
//	curl -s localhost:8077/v1/jobs/job-1
//	curl -sN localhost:8077/v1/jobs/job-1/events   # live SSE progress
//	curl -s localhost:8077/v1/jobs/job-1/result
//	curl -s localhost:8077/v1/jobs/job-1/trace > trace.json  # open in Perfetto
//	curl -s -XDELETE localhost:8077/v1/jobs/job-1
//	curl -s localhost:8077/healthz
//	curl -s localhost:8077/metrics                         # JSON
//	curl -s -H 'Accept: text/plain' localhost:8077/metrics # Prometheus
//
// Cluster quickstart (one coordinator, two workers):
//
//	hammerd -coordinator -addr localhost:8077 &
//	hammerd -worker http://localhost:8077 -addr localhost:8078 &
//	hammerd -worker http://localhost:8077 -addr localhost:8079 &
//	curl -s localhost:8077/v1/cluster/workers
//	curl -s -XPOST localhost:8077/v1/jobs -d '{"experiment":"e1","horizon":400000}'
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"hammertime/internal/cliutil"
	"hammertime/internal/cluster"
	"hammertime/internal/cluster/resilience"
	"hammertime/internal/fault"
	"hammertime/internal/harness"
	"hammertime/internal/serve"
)

// options collects every flag; which subset applies depends on the mode
// (standalone, -coordinator, -worker).
type options struct {
	addr         string
	sessions     int
	queue        int
	rate         float64
	burst        int
	jobTimeout   time.Duration
	drainTimeout time.Duration
	faults       cliutil.FaultFlags
	trustClient  bool

	stateDir       string
	retentionAge   time.Duration
	retentionCount int

	coordinator     bool
	workerOf        string
	workerName      string
	advertise       string
	cacheBytes      int64
	cacheSpill      string
	dispatchTimeout time.Duration
	workerTTL       time.Duration
	batchCells      int

	rpcRetries       int
	breakerThreshold int
	breakerCooldown  time.Duration
	auditFraction    float64
	auditSeed        uint64
	quarantineFor    time.Duration
}

func main() {
	var o options
	flag.StringVar(&o.addr, "addr", "localhost:8077", "HTTP listen address")
	flag.IntVar(&o.sessions, "sessions", 2, "session pool size: max concurrent simulations")
	flag.IntVar(&o.queue, "queue", 8, "max queued jobs; beyond this submissions are shed with 429")
	flag.Float64Var(&o.rate, "rate", 5, "per-client submissions per second (<0 disables rate limiting)")
	flag.IntVar(&o.burst, "burst", 10, "per-client token-bucket burst")
	flag.DurationVar(&o.jobTimeout, "job-timeout", 0, "per-job running deadline (0 = none); requests may tighten it")
	flag.DurationVar(&o.drainTimeout, "drain-timeout", 2*time.Minute, "graceful-drain bound on SIGTERM; running jobs are cancelled after it")
	o.faults.Register(os.Getenv(cliutil.FaultsEnv))
	flag.BoolVar(&o.trustClient, "trust-client-header", false, "key rate limiting by the unauthenticated X-Hammertime-Client header; enable only behind a proxy that strips or validates it")
	flag.StringVar(&o.stateDir, "state-dir", "", "persist jobs (journal + per-job checkpoints) under this directory; on restart, finished jobs reappear and interrupted ones resume from their last completed cells (empty = in-memory only)")
	flag.DurationVar(&o.retentionAge, "job-retention", 6*time.Hour, "evict finished jobs from the registry (and, at the next start, the state dir journal) this long after completion (<0 disables the age bound)")
	flag.IntVar(&o.retentionCount, "job-retention-count", 4096, "max finished jobs retained; the oldest beyond this are evicted (<0 disables the count bound)")
	flag.BoolVar(&o.coordinator, "coordinator", false, "shard experiment grids across registered workers (see -worker)")
	flag.StringVar(&o.workerOf, "worker", "", "run as a cell worker for the coordinator at this URL (e.g. http://host:8077)")
	flag.StringVar(&o.workerName, "worker-name", "", "worker identity in the coordinator's registry (default hostname-pid)")
	flag.StringVar(&o.advertise, "advertise", "", "URL the coordinator should dial this worker on (default http://<listen addr>)")
	flag.Int64Var(&o.cacheBytes, "cache-bytes", 64<<20, "coordinator result-cache budget in bytes (in-memory LRU)")
	flag.StringVar(&o.cacheSpill, "cache-spill", "", "JSONL file persisting cache entries across restarts (empty = memory only)")
	flag.DurationVar(&o.dispatchTimeout, "dispatch-timeout", 2*time.Minute, "per-batch worker deadline, counted from the send; overrun batches are stolen and re-dispatched")
	flag.DurationVar(&o.workerTTL, "worker-ttl", 15*time.Second, "silence after which a worker leaves the live set; heartbeats run at a third of this")
	flag.IntVar(&o.batchCells, "batch-cells", 4, "max cells per dispatch batch")
	flag.IntVar(&o.rpcRetries, "rpc-retries", 2, "extra attempts per batch RPC against the same worker before the batch is stolen (<0 disables)")
	flag.IntVar(&o.breakerThreshold, "breaker-threshold", 3, "consecutive batch failures that open a worker's circuit breaker")
	flag.DurationVar(&o.breakerCooldown, "breaker-cooldown", 10*time.Second, "open-breaker cooldown before the worker half-opens for a probe batch")
	flag.Float64Var(&o.auditFraction, "audit-fraction", 0.05, "fraction of remotely computed cells re-executed locally and byte-compared; a mismatch quarantines the worker (0 disables)")
	flag.Uint64Var(&o.auditSeed, "audit-seed", 1, "seed selecting which cells the byte audit samples")
	flag.DurationVar(&o.quarantineFor, "quarantine-for", 10*time.Minute, "penalty window of a worker caught returning corrupt bytes; its heartbeats are ignored until it ends")
	logFormat := flag.String("log-format", "text", "structured log format: text or json")
	logLevel := flag.String("log-level", "info", "log level: debug, info, warn, error")
	flag.Parse()

	logger, err := buildLogger(*logFormat, *logLevel)
	if err != nil {
		fmt.Fprintln(os.Stderr, "hammerd:", err)
		os.Exit(1)
	}
	if o.coordinator && o.workerOf != "" {
		fmt.Fprintln(os.Stderr, "hammerd: -coordinator and -worker are mutually exclusive")
		os.Exit(1)
	}
	if o.workerOf != "" {
		err = runWorker(logger, o)
	} else {
		err = run(logger, o)
	}
	if err != nil {
		fmt.Fprintln(os.Stderr, "hammerd:", err)
		os.Exit(1)
	}
}

// buildLogger constructs the daemon's structured logger on stderr. The
// handler choice only shapes the log records; the few fixed lifecycle
// lines ("listening", "drained, exiting") stay plain so operational
// scripts keep grepping them.
func buildLogger(format, level string) (*slog.Logger, error) {
	var lvl slog.Level
	if err := lvl.UnmarshalText([]byte(level)); err != nil {
		return nil, fmt.Errorf("log-level: %w", err)
	}
	opts := &slog.HandlerOptions{Level: lvl}
	switch format {
	case "text":
		return slog.New(slog.NewTextHandler(os.Stderr, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(os.Stderr, opts)), nil
	default:
		return nil, fmt.Errorf("log-format: unknown format %q (want text or json)", format)
	}
}

// buildDispatcher assembles the coordinator's cache, fault transport
// (for the armed rpc fault site, if any) and dispatcher.
func buildDispatcher(logger *slog.Logger, o options, rpc *fault.Site) (*cluster.Dispatcher, error) {
	cache := cluster.NewResultCache(o.cacheBytes)
	if o.cacheSpill != "" {
		if err := cache.OpenSpill(o.cacheSpill); err != nil {
			return nil, fmt.Errorf("cache-spill: %w", err)
		}
		logger.Info("cache spill open", "path", o.cacheSpill, "entries", cache.Spilled())
	}
	breaker := resilience.BreakerConfig{Threshold: o.breakerThreshold, Cooldown: o.breakerCooldown}
	cfg := cluster.DispatcherConfig{
		Cache: cache,
		Registry: cluster.NewRegistryConfig(cluster.RegistryConfig{
			TTL:     o.workerTTL,
			Breaker: breaker,
		}),
		DispatchTimeout: o.dispatchTimeout,
		BatchSize:       o.batchCells,
		RPCRetries:      o.rpcRetries,
		Breaker:         breaker,
		AuditFraction:   o.auditFraction,
		AuditSeed:       o.auditSeed,
		QuarantineFor:   o.quarantineFor,
		Log:             logger,
	}
	if rpc != nil {
		cfg.Client = &http.Client{Transport: resilience.NewTransport(nil, rpc)}
		cfg.Faults = rpc
	}
	return cluster.NewDispatcher(cfg), nil
}

func run(logger *slog.Logger, o options) error {
	sites := []string{"serve", "cell"}
	if o.coordinator {
		sites = append(sites, "rpc")
	}
	spec, err := o.faults.Parse(sites...)
	if err != nil {
		return err
	}
	cfg := serve.Config{
		Sessions:          o.sessions,
		QueueDepth:        o.queue,
		RatePerSec:        o.rate,
		Burst:             o.burst,
		JobTimeout:        o.jobTimeout,
		Faults:            spec.Arm("serve", o.faults.Seed),
		Logger:            logger,
		TrustClientHeader: o.trustClient,
		RetentionAge:      o.retentionAge,
		RetentionMax:      o.retentionCount,
	}
	if o.stateDir != "" {
		store, err := serve.OpenStore(o.stateDir)
		if err != nil {
			return fmt.Errorf("state-dir: %w", err)
		}
		defer store.Close()
		cfg.Store = store
	}

	var disp *cluster.Dispatcher
	if o.coordinator {
		if disp, err = buildDispatcher(logger, o, spec.Arm("rpc", o.faults.Seed)); err != nil {
			return err
		}
		defer disp.Cache().Close()
		defer disp.Close()
		// Cache hit/miss/steal counters and worker gauges join /metrics.
		cfg.ExtraMetrics = disp.MergeInto
	}
	// Each job's grids carry the cell faults, and on a coordinator run
	// through the dispatcher when the request is distributable; the
	// delegate shards cells across live workers and the job falls back to
	// local execution when none are registered.
	cfg.Run = func(ctx context.Context, req serve.JobRequest) (string, error) {
		if spec != nil {
			r := harness.RunFrom(ctx)
			r.Faults = spec
			ctx = harness.WithRun(ctx, r)
		}
		opts := harness.AttackOpts{}
		if disp != nil {
			if del := disp.ForJob(req.Experiment, req.Horizon, opts); del != nil {
				ctx = harness.WithGridDelegate(ctx, del)
			}
		}
		tb, err := harness.Experiment(ctx, req.Experiment, req.Horizon, opts)
		if err != nil {
			return "", err
		}
		return tb.String(), nil
	}
	mgr := serve.NewManager(cfg)
	if cfg.Store != nil {
		replayed, resumed := mgr.Recovered()
		logger.Info("job store open", "dir", o.stateDir, "replayed", replayed, "resumed", resumed)
		if resumed > 0 {
			// A fixed plain line like "listening": restart tooling greps it.
			fmt.Fprintf(os.Stderr, "hammerd: resuming %d interrupted job(s) from %s\n", resumed, o.stateDir)
		}
	}

	handler := serve.NewHandler(mgr)
	if disp != nil {
		mux := http.NewServeMux()
		disp.Mount(mux)
		mux.Handle("/", handler)
		handler = mux
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	srv := &http.Server{Handler: handler}
	mode := "standalone"
	if o.coordinator {
		mode = "coordinator"
	}
	fmt.Fprintf(os.Stderr, "hammerd: listening on http://%s (%s sessions=%d queue=%d rate=%g/s faults=%s)\n",
		ln.Addr(), mode, o.sessions, o.queue, o.rate, spec)

	// Serve until the first SIGINT/SIGTERM, then drain: stop admitting
	// (readyz 503, submits 503), let in-flight jobs finish bounded by
	// drainTimeout, and exit 0. A drain overrun cancels the remaining
	// simulations cooperatively and still exits cleanly — the bound
	// exists so an orchestrator's SIGKILL grace window is never hit
	// with the daemon mid-write.
	sigCtx, stop := cliutil.ShutdownContext()
	defer stop()

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()

	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case <-sigCtx.Done():
	}
	fmt.Fprintln(os.Stderr, "hammerd: signal received, draining")

	drainCtx, cancel := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancel()
	if err := mgr.Drain(drainCtx); err != nil {
		fmt.Fprintln(os.Stderr, "hammerd:", err)
	}
	// The pool is drained; now close the listener and let in-flight
	// HTTP responses (status polls racing the drain) finish.
	httpCtx, cancelHTTP := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancelHTTP()
	if err := srv.Shutdown(httpCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	<-errCh // Serve has returned ErrServerClosed
	fmt.Fprintln(os.Stderr, "hammerd: drained, exiting")
	return nil
}

// runWorker serves the stateless cell-executor surface and heartbeats
// against the coordinator until signalled. Shutdown is bounded by
// -drain-timeout: in-flight cell batches get that long to finish (the
// coordinator steals them anyway if they don't).
func runWorker(logger *slog.Logger, o options) error {
	spec, err := o.faults.Parse("worker", "cell")
	if err != nil {
		return err
	}
	name := o.workerName
	if name == "" {
		host, err := os.Hostname()
		if err != nil || host == "" {
			host = "worker"
		}
		name = fmt.Sprintf("%s-%d", host, os.Getpid())
	}

	ln, err := net.Listen("tcp", o.addr)
	if err != nil {
		return err
	}
	advertise := o.advertise
	if advertise == "" {
		advertise = "http://" + ln.Addr().String()
	}
	node := &cluster.WorkerNode{Name: name, Log: logger}
	handler := node.Handler()
	if site := spec.Arm("worker", o.faults.Seed); site != nil {
		// Byzantine-worker fault injection for soaks: correct shape and
		// keys, wrong bytes — only the coordinator's audit catches it.
		handler = resilience.CorruptCellResults(handler, site)
	}
	// Every request's context carries the cell faults to the worker's grids.
	base := harness.WithRun(context.Background(), harness.Run{Faults: spec})
	srv := &http.Server{Handler: handler, BaseContext: func(net.Listener) context.Context { return base }}
	fmt.Fprintf(os.Stderr, "hammerd: worker %s listening on http://%s (coordinator %s, advertised as %s, faults=%s)\n",
		name, ln.Addr(), o.workerOf, advertise, spec)

	sigCtx, stop := cliutil.ShutdownContext()
	defer stop()
	go cluster.Heartbeat(sigCtx, nil, o.workerOf, name, advertise, o.workerTTL/3, logger)

	errCh := make(chan error, 1)
	go func() { errCh <- srv.Serve(ln) }()
	select {
	case err := <-errCh:
		return fmt.Errorf("serve: %w", err)
	case <-sigCtx.Done():
	}
	// Graceful drain: refuse new batches (503 + Retry-After — the
	// coordinator's retry machinery reroutes them), tell the coordinator
	// goodbye so it stops dispatching here immediately instead of waiting
	// out the TTL, finish in-flight batches bounded by -drain-timeout,
	// then close the server.
	fmt.Fprintln(os.Stderr, "hammerd: worker signal received, draining")
	node.StartDrain()
	drainCtx, cancelDrain := context.WithTimeout(context.Background(), o.drainTimeout)
	defer cancelDrain()
	if err := cluster.Deregister(drainCtx, nil, o.workerOf, name); err != nil {
		logger.Warn("deregister failed; coordinator will age this worker out", "err", err)
	}
	if err := node.WaitIdle(drainCtx); err != nil {
		// The coordinator steals overrun batches anyway; exit on schedule.
		logger.Warn("drain bound hit with batches still in flight", "err", err)
	}
	if err := srv.Shutdown(drainCtx); err != nil && !errors.Is(err, http.ErrServerClosed) {
		return fmt.Errorf("shutdown: %w", err)
	}
	<-errCh
	fmt.Fprintln(os.Stderr, "hammerd: worker exiting")
	return nil
}
