// Package telemetry is the live-introspection layer over the simulator:
// span-based tracing (a trace ID plus parent/child spans carrying
// wall-clock, simulation cycles and attributes) propagated through
// context.Context along the whole run path — a hammerd job, the
// experiment grid, each grid cell, the machine phases inside a cell —
// plus a publish/subscribe Hub for streaming progress and simulator
// events to live clients (the SSE endpoint of hammerd), and Prometheus
// text exposition for sim.Stats snapshots.
//
// Everything here is observer-only and nil-tolerant: a context without a
// Scope yields nil spans and a nil hub, and every method on those is a
// no-op costing one branch — the same contract obs.Recorder establishes
// for the event bus. Simulation results are byte-identical with
// telemetry on or off, and the disabled path allocates nothing
// (BenchmarkTelemetryDisabled pins this).
package telemetry

import (
	"context"
	"log/slog"
	"math/rand/v2"
	"strconv"
	"sync"
	"time"

	"hammertime/internal/obs"
)

// TraceID identifies one trace — all spans of one job or one CLI run.
// It is random per tracer, not derived from simulation seeds: telemetry
// is wall-clock-side and never feeds back into the simulation.
type TraceID uint64

// String renders the id as 16 lowercase hex digits (the wire format
// returned in hammerd job views).
func (t TraceID) String() string { return hex16(uint64(t)) }

// SpanID identifies one span within its trace. IDs are small sequential
// integers assigned by the tracer; 0 means "no span" (a root's parent).
type SpanID uint64

func hex16(v uint64) string {
	const digits = "0123456789abcdef"
	var b [16]byte
	for i := 15; i >= 0; i-- {
		b[i] = digits[v&0xf]
		v >>= 4
	}
	return string(b[:])
}

// Attr is one key/value attribute on a span. Values are strings — span
// attributes are for humans and JSON, not for hot-path aggregation
// (that is sim.Stats' job).
type Attr struct {
	Key string
	Val string
}

// String builds a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Val: v} }

// Int builds an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Val: strconv.FormatInt(v, 10)} }

// Uint builds an unsigned integer attribute.
func Uint(k string, v uint64) Attr { return Attr{Key: k, Val: strconv.FormatUint(v, 10)} }

// Tracer collects the spans of one trace. It is safe for concurrent use:
// parallel grid cells start and end spans on pool workers. The zero
// value is not usable; construct with NewTracer.
//
// A finished trace is frozen (Freeze): its leading ended spans move into
// one compact pointer-free encoding, and only the spans after them stay
// live *Span objects.
type Tracer struct {
	id TraceID

	mu      sync.Mutex
	frozen  []byte  // frozen spans, encoded (freeze.go); they precede spans
	spans   []*Span // live spans, in start order
	next    SpanID
	seq     uint64 // monotonic start/end order, for export sorting
	nFrozen int    // spans held by frozen
}

// NewTracer returns a tracer with a random trace ID.
func NewTracer() *Tracer { return NewTracerWithID(TraceID(rand.Uint64() | 1)) }

// NewTracerWithID returns a tracer with a fixed trace ID (tests, and
// callers that correlate with an external system).
func NewTracerWithID(id TraceID) *Tracer { return &Tracer{id: id} }

// ID returns the trace ID.
func (t *Tracer) ID() TraceID {
	if t == nil {
		return 0
	}
	return t.id
}

// start registers a new span. lane 0 means "inherit parent's lane".
func (t *Tracer) start(name string, parent *Span, newLane bool) *Span {
	s := &Span{tracer: t, name: name, start: time.Now()}
	t.mu.Lock()
	t.next++
	s.id = t.next
	t.seq++
	s.startSeq = t.seq
	if parent != nil {
		s.parent = parent.id
		s.lane = parent.lane
	}
	if newLane || parent == nil {
		s.lane = s.id
	}
	t.spans = append(t.spans, s)
	t.mu.Unlock()
	return s
}

// Span is one timed operation within a trace. All methods are safe on a
// nil receiver (the disabled path) and safe for use from the goroutine
// that started the span; a span must be ended exactly once, before its
// parent.
type Span struct {
	tracer   *Tracer
	id       SpanID
	parent   SpanID
	lane     SpanID
	name     string
	start    time.Time
	startSeq uint64

	mu         sync.Mutex
	end        time.Time
	endSeq     uint64
	startCycle uint64
	endCycle   uint64
	hasCycles  bool
	attrs      []Attr
	errMsg     string
}

// ID returns the span's id (0 on nil).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttrs appends attributes to the span. No-op on nil.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// SetCycles records the simulation-cycle window the span covers. No-op
// on nil.
func (s *Span) SetCycles(start, end uint64) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.startCycle, s.endCycle, s.hasCycles = start, end, true
	s.mu.Unlock()
}

// Fail records the span's failure cause without ending it. No-op on nil
// or nil err.
func (s *Span) Fail(err error) {
	if s == nil || err == nil {
		return
	}
	s.mu.Lock()
	s.errMsg = err.Error()
	s.mu.Unlock()
}

// End closes the span at the current wall clock. Ending twice keeps the
// first end. No-op on nil.
func (s *Span) End() {
	if s == nil {
		return
	}
	now := time.Now()
	s.tracer.mu.Lock()
	s.tracer.seq++
	seq := s.tracer.seq
	s.tracer.mu.Unlock()
	s.mu.Lock()
	if s.end.IsZero() {
		s.end = now
		s.endSeq = seq
	}
	s.mu.Unlock()
}

// EndErr records err (if any) and ends the span. No-op on nil.
func (s *Span) EndErr(err error) {
	s.Fail(err)
	s.End()
}

// SpanSnap is an immutable snapshot of one span, the unit the exporters
// consume. End is zero for a span still in flight at snapshot time.
type SpanSnap struct {
	Trace      TraceID
	ID         SpanID
	Parent     SpanID
	Lane       SpanID
	Name       string
	Start      time.Time
	End        time.Time
	StartSeq   uint64
	EndSeq     uint64
	StartCycle uint64
	EndCycle   uint64
	HasCycles  bool
	Attrs      []Attr
	Err        string
}

// Snapshot returns a copy of every span started so far, in start order:
// the frozen spans decoded, then the live ones. Safe to call while spans
// are still being started and ended.
func (t *Tracer) Snapshot() []SpanSnap {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	frozen, n := t.frozen, t.nFrozen
	spans := append([]*Span(nil), t.spans...)
	t.mu.Unlock()
	out := make([]SpanSnap, 0, n+len(spans))
	out = decodeSpans(out, frozen, t.id)
	for _, s := range spans {
		out = append(out, s.snapshot(t.id))
	}
	return out
}

// snapshot copies the span under its lock.
func (s *Span) snapshot(trace TraceID) SpanSnap {
	s.mu.Lock()
	defer s.mu.Unlock()
	return SpanSnap{
		Trace:      trace,
		ID:         s.id,
		Parent:     s.parent,
		Lane:       s.lane,
		Name:       s.name,
		Start:      s.start,
		End:        s.end,
		StartSeq:   s.startSeq,
		EndSeq:     s.endSeq,
		StartCycle: s.startCycle,
		EndCycle:   s.endCycle,
		HasCycles:  s.hasCycles,
		Attrs:      append([]Attr(nil), s.attrs...),
		Err:        s.errMsg,
	}
}

// Scope is the telemetry context of one job or CLI run: the tracer
// collecting its spans, the hub streaming its live records (nil when
// nobody can subscribe), and the obs recorder to attach to machines
// (nil when simulator events were not requested — keeping the
// unobserved fast-forward path intact).
type Scope struct {
	Tracer   *Tracer
	Hub      *Hub
	Observer *obs.Recorder
}

type scopeKey struct{}
type spanKey struct{}

// NewContext returns ctx carrying the scope. A nil scope returns ctx
// unchanged.
func NewContext(ctx context.Context, s *Scope) context.Context {
	if s == nil {
		return ctx
	}
	return context.WithValue(ctx, scopeKey{}, s)
}

// ScopeFrom returns the scope carried by ctx, or nil.
func ScopeFrom(ctx context.Context) *Scope {
	s, _ := ctx.Value(scopeKey{}).(*Scope)
	return s
}

// HubFrom returns the hub carried by ctx's scope, or nil.
func HubFrom(ctx context.Context) *Hub {
	if s := ScopeFrom(ctx); s != nil {
		return s.Hub
	}
	return nil
}

// ObserverFrom returns the obs recorder carried by ctx's scope, or nil.
func ObserverFrom(ctx context.Context) *obs.Recorder {
	if s := ScopeFrom(ctx); s != nil {
		return s.Observer
	}
	return nil
}

// SpanFrom returns the innermost span carried by ctx, or nil.
func SpanFrom(ctx context.Context) *Span {
	s, _ := ctx.Value(spanKey{}).(*Span)
	return s
}

// StartSpan starts a span named name as a child of ctx's current span
// (a root when there is none), on the parent's lane, and returns a
// context carrying it. Without a scope in ctx it returns (ctx, nil) —
// one Value lookup, zero allocations; all Span methods no-op on nil.
func StartSpan(ctx context.Context, name string) (context.Context, *Span) {
	return startSpan(ctx, name, false)
}

// StartLane is StartSpan on a fresh lane: the span (and its children)
// render as their own concurrent track in the Chrome trace. Grid cells
// running in parallel each get a lane; sequential phases inherit their
// parent's.
func StartLane(ctx context.Context, name string) (context.Context, *Span) {
	return startSpan(ctx, name, true)
}

// WithSpan returns ctx carrying span as the current span, so spans
// started later nest under it. Used when the parent span was started on
// a different context than the one threaded into the work (hammerd
// starts the job span at submission but runs the job on the session's
// cancellable context). A nil span returns ctx unchanged.
func WithSpan(ctx context.Context, span *Span) context.Context {
	if span == nil {
		return ctx
	}
	return context.WithValue(ctx, spanKey{}, span)
}

func startSpan(ctx context.Context, name string, newLane bool) (context.Context, *Span) {
	scope := ScopeFrom(ctx)
	if scope == nil || scope.Tracer == nil {
		return ctx, nil
	}
	span := scope.Tracer.start(name, SpanFrom(ctx), newLane)
	return context.WithValue(ctx, spanKey{}, span), span
}

// CountEvents adds n simulated events to ctx's hub counter (the
// events/sec source of progress records). Free without a hub.
func CountEvents(ctx context.Context, n uint64) {
	if h := HubFrom(ctx); h != nil {
		h.CountEvents(n)
	}
}

// nopHandler discards every record. slog.DiscardHandler exists only
// from Go 1.24; this keeps the module buildable at its declared
// language version.
type nopHandler struct{}

func (nopHandler) Enabled(context.Context, slog.Level) bool  { return false }
func (nopHandler) Handle(context.Context, slog.Record) error { return nil }
func (nopHandler) WithAttrs([]slog.Attr) slog.Handler        { return nopHandler{} }
func (nopHandler) WithGroup(string) slog.Handler             { return nopHandler{} }

var nopLogger = slog.New(nopHandler{})

// NopLogger returns a logger that discards everything — the default
// wherever a *slog.Logger is optional.
func NopLogger() *slog.Logger { return nopLogger }

// OrNop returns l, or the nop logger when l is nil.
func OrNop(l *slog.Logger) *slog.Logger {
	if l == nil {
		return nopLogger
	}
	return l
}
