// Package cliutil holds the observability and robustness surface shared
// by the CLI tools: event-trace flags (-trace-events/-trace-format),
// machine-readable metrics output (-metrics-out), opt-in pprof profiling
// (-pprof-cpu/-pprof-http), the online invariant auditor (-check), the
// fail-soft/resume flags (-fail-soft/-retries/-cell-timeout/-resume) and
// fault injection (-faults, and -fault-seed where a site is seeded).
package cliutil

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	_ "net/http/pprof" // registers /debug/pprof handlers on -pprof-http
	"os"
	"os/signal"
	"runtime/pprof"
	"syscall"
	"time"

	"hammertime/internal/core"
	"hammertime/internal/fault"
	"hammertime/internal/harness"
	"hammertime/internal/obs"
	"hammertime/internal/telemetry"
)

// ObsFlags collects the observability command-line options.
type ObsFlags struct {
	TraceEvents string
	TraceFormat string
	MetricsOut  string
	PprofCPU    string
	PprofHTTP   string
}

// Register installs the flags on the default flag set.
func (f *ObsFlags) Register() {
	flag.StringVar(&f.TraceEvents, "trace-events", "", "write the simulator event stream to this file (see -trace-format)")
	flag.StringVar(&f.TraceFormat, "trace-format", "jsonl", "event trace format: jsonl, or chrome (open in Perfetto / chrome://tracing)")
	flag.StringVar(&f.MetricsOut, "metrics-out", "", "write machine-readable metrics JSON to this file")
	flag.StringVar(&f.PprofCPU, "pprof-cpu", "", "write a CPU profile of the run to this file")
	flag.StringVar(&f.PprofHTTP, "pprof-http", "", "serve net/http/pprof on this address (e.g. localhost:6060)")
}

// FaultsEnv names the environment variable -faults defaults to.
const FaultsEnv = "HAMMERTIME_FAULTS"

const faultsUsage = "fault injection, e.g. serve.latency=20ms:0.5,rpc.drop:0.1,cell.error=e7/3 (default $" + FaultsEnv + "); see DESIGN.md for every site and fault"

// FaultFlags is the one fault-injection surface of the CLIs: a fault
// spec (see package fault) and the seed every armed site draws from.
type FaultFlags struct {
	Spec string
	Seed uint64
}

// Register installs -faults (defaulting to def) and -fault-seed.
func (f *FaultFlags) Register(def string) {
	flag.StringVar(&f.Spec, "faults", def, faultsUsage)
	flag.Uint64Var(&f.Seed, "fault-seed", 1, "seed of the fault sites' RNGs; a schedule is a pure function of the seed and the draw sequence")
}

// Parse parses the spec, which may name only the sites the process runs.
func (f FaultFlags) Parse(sites ...string) (fault.Spec, error) {
	spec, err := fault.Parse(f.Spec)
	if err == nil {
		err = spec.Check(sites...)
	}
	return spec, err
}

// RobustFlags collects the fail-soft/resume/correctness command-line
// options, plus the fault spec, whose cell faults the run injects. Cell
// faults draw no random numbers, so there is no -fault-seed here.
type RobustFlags struct {
	FailSoft    bool
	Retries     int
	Backoff     time.Duration
	CellTimeout time.Duration
	Resume      string
	Check       bool
	SlowCell    time.Duration
	Faults      string
}

// Register installs the flags; -faults defaults to faultsDef.
func (f *RobustFlags) Register(faultsDef string) {
	flag.StringVar(&f.Faults, "faults", faultsDef, faultsUsage)
	flag.BoolVar(&f.FailSoft, "fail-soft", false, "record per-cell failures and finish the run; failed cells render as ERR(reason)")
	flag.IntVar(&f.Retries, "retries", 0, "re-run a failed experiment cell up to this many extra times")
	flag.DurationVar(&f.Backoff, "retry-backoff", 50*time.Millisecond, "base delay before a cell retry; doubles per attempt with deterministic jitter (0 = retry immediately)")
	flag.DurationVar(&f.CellTimeout, "cell-timeout", 0, "per-cell wall-clock deadline, e.g. 30s (0 = none)")
	flag.StringVar(&f.Resume, "resume", "", "checkpoint file: completed cells are appended there and restored on rerun")
	flag.BoolVar(&f.Check, "check", false, "enable the online invariant auditor: every machine verifies row-buffer/refresh/charge invariants as it runs (observer-only; a violation fails the cell)")
	flag.DurationVar(&f.SlowCell, "slow-cell", harness.DefaultSlowCellWarn, "warn on stderr when a grid cell runs longer than this without finishing (0 = off)")
}

// Apply validates the flags, switches the online invariant auditor on
// or off, and opens the -resume checkpoint. It returns the Run the CLI
// wraps its context with (harness.WithRun): the policy, the cell-event
// recorder rec, a warning logger on stderr, the cell faults and the
// checkpoint. A spec naming any site but cell is an error. The
// caller must close run.Checkpoint when done and pass its error on to
// the exit code — a silently truncated checkpoint would resume wrong.
func (f *RobustFlags) Apply(rec *obs.Recorder) (harness.Run, error) {
	if f.Retries < 0 {
		return harness.Run{}, fmt.Errorf("retries: must be >= 0 (got %d)", f.Retries)
	}
	if f.Backoff < 0 {
		return harness.Run{}, fmt.Errorf("retry-backoff: must be >= 0 (got %v)", f.Backoff)
	}
	if f.CellTimeout < 0 {
		return harness.Run{}, fmt.Errorf("cell-timeout: must be >= 0 (got %v)", f.CellTimeout)
	}
	faults, err := FaultFlags{Spec: f.Faults}.Parse("cell")
	if err != nil {
		return harness.Run{}, err
	}
	core.SetChecking(f.Check)
	run := harness.Run{
		Policy: harness.Policy{
			FailSoft:     f.FailSoft,
			Retries:      f.Retries,
			Backoff:      f.Backoff,
			CellTimeout:  f.CellTimeout,
			SlowCellWarn: f.SlowCell,
		},
		Events: rec,
		// The harness's warnings (slow-cell watchdog, failed cells under
		// fail-soft) go to stderr; tables and results own stdout.
		Logger: slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelWarn})),
		Faults: faults,
	}
	if f.Resume != "" {
		ck, err := harness.OpenCheckpoint(f.Resume)
		if err != nil {
			return harness.Run{}, fmt.Errorf("resume: %w", err)
		}
		run.Checkpoint = ck
		if n := ck.Loaded(); n > 0 {
			fmt.Fprintf(os.Stderr, "resume: restored %d completed cells from %s\n", n, f.Resume)
		}
	}
	return run, nil
}

// ShutdownContext returns a context cancelled on SIGINT/SIGTERM, for
// threading into experiment grids and machine runs: the first signal
// cancels the context so in-flight simulations tear down at their next
// cancellation point (core.ErrCancelled) and the CLI's deferred teardown
// — trace flush, checkpoint close, metrics write — still runs before the
// process exits nonzero. A second signal falls back to the Go runtime's
// default handling (immediate kill), so a hung run stays interruptible.
func ShutdownContext() (context.Context, context.CancelFunc) {
	return signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
}

// Session is the started observability state. Close flushes and releases
// everything; it is safe to call on a zero Session.
type Session struct {
	// Recorder is non-nil iff -trace-events was given. Attach it to the
	// machines under test (e.g. via AttackOpts.Observer).
	Recorder *obs.Recorder

	// scope carries the CLI run's tracer, and with -metrics-out a hub
	// counting simulated events; spans started by the harness (grid,
	// cells) and the core (machine.run/drain) land in the trace file
	// next to the simulator events at Close.
	scope      *telemetry.Scope
	chromeSink *obs.ChromeTrace
	jsonlSink  *obs.JSONL

	traceFile   *os.File
	profFile    *os.File
	metricsPath string
	synced      bool
}

// Context threads the session's telemetry scope into ctx: with
// -trace-events or -metrics-out set, experiment grids and machine runs
// started under the returned context record spans. Without a scope it
// returns ctx unchanged.
func (s *Session) Context(ctx context.Context) context.Context {
	return telemetry.NewContext(ctx, s.scope)
}

// Start opens files, builds the event recorder, and begins profiling
// according to the flags. syncSinks wraps the trace sink in a mutex —
// required when the recorder will be shared across parallel harness
// cells.
func (f *ObsFlags) Start(syncSinks bool) (*Session, error) {
	s := &Session{metricsPath: f.MetricsOut, synced: syncSinks}
	if f.TraceEvents != "" {
		file, err := os.Create(f.TraceEvents)
		if err != nil {
			return nil, fmt.Errorf("trace-events: %w", err)
		}
		var sink obs.Sink
		switch f.TraceFormat {
		case "jsonl":
			j := obs.NewJSONL(file)
			s.jsonlSink = j
			sink = j
		case "chrome":
			ct := obs.NewChromeTrace(file)
			s.chromeSink = ct
			sink = ct
		default:
			file.Close()
			return nil, fmt.Errorf("trace-format: unknown format %q (want jsonl or chrome)", f.TraceFormat)
		}
		if syncSinks {
			sink = obs.NewSyncSink(sink)
		}
		s.traceFile = file
		s.Recorder = obs.NewRecorder(sink)
	}
	// Spans go into the trace file next to the simulator events, and
	// hammerbench reads its -metrics-out report from them and from the
	// hub's simulated-event counter.
	if f.TraceEvents != "" || f.MetricsOut != "" {
		s.scope = &telemetry.Scope{Tracer: telemetry.NewTracer()}
		if f.MetricsOut != "" {
			s.scope.Hub = telemetry.NewHub()
		}
	}
	if f.PprofCPU != "" {
		file, err := os.Create(f.PprofCPU)
		if err != nil {
			s.Close()
			return nil, fmt.Errorf("pprof-cpu: %w", err)
		}
		if err := pprof.StartCPUProfile(file); err != nil {
			file.Close()
			s.Close()
			return nil, fmt.Errorf("pprof-cpu: %w", err)
		}
		s.profFile = file
	}
	if f.PprofHTTP != "" {
		addr := f.PprofHTTP
		go func() {
			if err := http.ListenAndServe(addr, nil); err != nil {
				fmt.Fprintln(os.Stderr, "pprof-http:", err)
			}
		}()
	}
	return s, nil
}

// WriteMetrics serializes v (a sim.StatsSnapshot, hammerbench's
// performance report, or any other JSON-ready report) to the
// -metrics-out file. No-op when the flag was not given.
func (s *Session) WriteMetrics(v interface{}) error {
	if s.metricsPath == "" {
		return nil
	}
	file, err := os.Create(s.metricsPath)
	if err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	enc := json.NewEncoder(file)
	enc.SetIndent("", "  ")
	err = enc.Encode(v)
	if cerr := file.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("metrics-out: %w", err)
	}
	return nil
}

// Close exports the run's spans into the trace, flushes it, and stops
// CPU profiling.
func (s *Session) Close() error {
	var first error
	// Span export happens after the run, single-threaded, so it writes
	// the underlying sink directly even when the recorder was synced.
	if s.scope != nil && s.scope.Tracer != nil {
		if spans := s.scope.Tracer.Snapshot(); len(spans) > 0 {
			switch {
			case s.chromeSink != nil:
				telemetry.ExportChrome(s.chromeSink, spans)
			case s.jsonlSink != nil:
				telemetry.ExportJSONL(s.jsonlSink, spans)
			}
		}
		s.scope = nil
	}
	if s.Recorder != nil {
		if err := s.Recorder.Flush(); err != nil {
			first = err
		}
	}
	if s.traceFile != nil {
		if err := s.traceFile.Close(); err != nil && first == nil {
			first = err
		}
		s.traceFile = nil
	}
	if s.profFile != nil {
		pprof.StopCPUProfile()
		if err := s.profFile.Close(); err != nil && first == nil {
			first = err
		}
		s.profFile = nil
	}
	return first
}
