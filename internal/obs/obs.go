// Package obs is the simulator-wide observability layer: a typed event
// bus that components (DRAM module, memory controller, cache, host OS,
// defenses) emit structured events into, and pluggable sinks that consume
// them — a bounded ring buffer for tests, a JSON-lines stream for offline
// analysis, and a Chrome trace-event stream that opens directly in
// Perfetto / chrome://tracing.
//
// Recording is strictly observer-only: no simulated component ever reads
// recorder state, so enabling any sink preserves byte-identical simulation
// results. With no recorder attached (the nil *Recorder fast path) the
// cost per emission site is one nil check and zero allocations —
// TestEmitDisabledAllocates and BenchmarkRecorderDisabled pin this.
package obs

import (
	"fmt"
	"strings"
)

// Kind identifies what happened. Events are flat value structs with a
// kind-specific Arg; Kind tells sinks how to label and route them.
type Kind uint8

const (
	// KindACT is a row activation (Bank, Row, Domain; Domain -1 for
	// mitigation-internal activations).
	KindACT Kind = iota
	// KindPRE is a bank precharge (Bank).
	KindPRE
	// KindREF is a periodic refresh command (rank-wide; Bank is -1).
	KindREF
	// KindTargetedRefresh is a single-row targeted refresh (Bank, Row) —
	// the §4.3 refresh instruction's DRAM-side effect, or PARA/Graphene.
	KindTargetedRefresh
	// KindRefNeighbors is a REF_NEIGHBORS command (Bank, Row, Arg=radius).
	KindRefNeighbors
	// KindRowHit is a request served from the open row (Bank, Row, Domain).
	KindRowHit
	// KindRowEmpty is a request that activated an idle bank.
	KindRowEmpty
	// KindRowConflict is a request that closed one row to open another.
	KindRowConflict
	// KindTRRCure is an in-DRAM TRR mitigation curing an aggressor's
	// neighbors (Bank, Row=cured aggressor).
	KindTRRCure
	// KindGrapheneTrigger is the in-MC Misra-Gries tracker crossing its
	// threshold (Bank, Row=hot aggressor).
	KindGrapheneTrigger
	// KindThrottle is a BlockHammer-style admission delay
	// (Bank, Row, Domain, Arg=delay cycles).
	KindThrottle
	// KindACTInterrupt is an ACT-counter overflow interrupt delivery
	// (Bank, Row, Domain, Line — address fields valid in precise mode).
	KindACTInterrupt
	// KindBitFlip is a Rowhammer bit flip (Bank, Row=victim,
	// Domain=aggressor domain or -1, Arg=bit offset within the line).
	KindBitFlip
	// KindPageMigration is a wear-leveling page move
	// (Domain, Line=new frame, Arg=old frame).
	KindPageMigration
	// KindLineLock is a cache line pinned into the LLC (Line).
	KindLineLock
	// KindLineUnlock is a locked line released (Line).
	KindLineUnlock
	// KindDefenseTrigger is a software defense's detector flagging a
	// probable aggressor row (Bank, Row, Domain) — the decision point
	// between interrupt delivery and response.
	KindDefenseTrigger
	// KindCellRetry is an experiment-grid cell failing one attempt and
	// being handed back to the pool (Line=cell index, Arg=failed attempt
	// number). Cycle is 0: harness events are wall-clock, not simulated.
	KindCellRetry
	// KindCellFail is an experiment-grid cell exhausting its attempts and
	// being recorded as failed (Line=cell index, Arg=attempts made).
	KindCellFail
	// KindSeedDisturb is a direct (test/experiment) injection of
	// disturbance into a row, bypassing the ACT path (Bank, Row,
	// Arg=math.Float64bits of the new disturbance level). Emitted so
	// shadow models — the invariant auditor in internal/check — stay in
	// sync with the module.
	KindSeedDisturb

	numKinds
)

var kindNames = [numKinds]string{
	KindACT:             "act",
	KindPRE:             "pre",
	KindREF:             "ref",
	KindTargetedRefresh: "targeted-refresh",
	KindRefNeighbors:    "ref-neighbors",
	KindRowHit:          "row-hit",
	KindRowEmpty:        "row-empty",
	KindRowConflict:     "row-conflict",
	KindTRRCure:         "trr-cure",
	KindGrapheneTrigger: "graphene-trigger",
	KindThrottle:        "throttle",
	KindACTInterrupt:    "act-interrupt",
	KindBitFlip:         "bit-flip",
	KindPageMigration:   "page-migration",
	KindLineLock:        "line-lock",
	KindLineUnlock:      "line-unlock",
	KindDefenseTrigger:  "defense-trigger",
	KindCellRetry:       "cell-retry",
	KindCellFail:        "cell-fail",
	KindSeedDisturb:     "seed-disturb",
}

// String returns the event kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return "unknown"
}

// Kinds returns every defined kind, in declaration order.
func Kinds() []Kind {
	out := make([]Kind, numKinds)
	for i := range out {
		out[i] = Kind(i)
	}
	return out
}

// ParseKinds parses a comma-separated list of kind names ("act,bit-flip")
// into kinds. The empty string and "all" both mean every kind (nil,
// which SetKinds treats as "restore all"). Unknown names are an error
// listing the valid names.
func ParseKinds(csv string) ([]Kind, error) {
	csv = strings.TrimSpace(csv)
	if csv == "" || csv == "all" {
		return nil, nil
	}
	var kinds []Kind
	for _, name := range strings.Split(csv, ",") {
		name = strings.TrimSpace(name)
		if name == "" {
			continue
		}
		found := false
		for k, kn := range kindNames {
			if kn == name {
				kinds = append(kinds, Kind(k))
				found = true
				break
			}
		}
		if !found {
			return nil, fmt.Errorf("unknown event kind %q (valid: %s)", name, strings.Join(kindNames[:], ","))
		}
	}
	return kinds, nil
}

// Event is one simulator event. It is a flat value type — no pointers, no
// strings — so emitting one allocates nothing. Fields that do not apply to
// a kind hold their sentinel (-1 for Bank/Row/Domain, 0 for Line/Arg); see
// the Kind constants for which fields each kind populates.
type Event struct {
	Kind   Kind
	Cycle  uint64
	Bank   int
	Row    int
	Domain int
	Line   uint64
	// Arg is kind-specific: bit offset (bit-flip), delay cycles
	// (throttle), radius (ref-neighbors), old frame (page-migration).
	Arg uint64
}

// Sink consumes recorded events. Sinks are invoked synchronously from the
// simulation thread; implementations must not call back into the
// simulator. Flush finalizes any buffered output (closing a JSON array,
// flushing a bufio layer) and reports the first write error encountered.
type Sink interface {
	Record(Event)
	Flush() error
}

// Recorder fans events out to its sinks, filtered by an enabled-kind mask.
// The zero value and the nil pointer both mean "disabled": every component
// holds a *Recorder that is usually nil, and Emit on a nil receiver is a
// single branch — the zero-cost disabled path.
//
// Recorder is not safe for concurrent use by itself; when one recorder is
// shared across parallel harness cells, wrap each sink in NewSyncSink.
type Recorder struct {
	mask  uint64
	sinks []Sink
}

// NewRecorder returns a recorder emitting every event kind to the sinks.
func NewRecorder(sinks ...Sink) *Recorder {
	r := &Recorder{sinks: sinks}
	r.mask = (uint64(1) << numKinds) - 1
	return r
}

// SetKinds restricts the recorder to the given kinds (empty restores all).
func (r *Recorder) SetKinds(kinds ...Kind) {
	if len(kinds) == 0 {
		r.mask = (uint64(1) << numKinds) - 1
		return
	}
	r.mask = 0
	for _, k := range kinds {
		r.mask |= uint64(1) << k
	}
}

// Wants reports whether events of kind k would be recorded. Emission sites
// that must compute derived fields (address decoding, ownership lookups)
// guard on Wants first; plain sites just call Emit.
func (r *Recorder) Wants(k Kind) bool {
	return r != nil && r.mask&(uint64(1)<<k) != 0
}

// Emit records one event. Safe (and free) on a nil receiver: the nil and
// mask check inlines into the emitting site, and only a wanted event
// pays the call into the sink loop.
func (r *Recorder) Emit(ev Event) {
	if r != nil && r.mask>>ev.Kind&1 != 0 {
		r.record(&ev)
	}
}

// record hands ev to every sink. It must stay out of line: inlined, its
// sink loop would push Emit past the inlining budget.
//
//go:noinline
func (r *Recorder) record(ev *Event) {
	for _, s := range r.sinks {
		s.Record(*ev)
	}
}

// JobTagger is the optional sink interface for job attribution. Sinks
// that implement it label subsequent events with the owning hammerd job
// ID — once, on the sink, not per event, so the Emit path stays
// allocation-free.
type JobTagger interface {
	SetJob(id string)
}

// SetJob tags every sink implementing JobTagger with the job ID, so
// events from concurrent sessions stay distinguishable in merged sinks.
// Safe on a nil receiver.
func (r *Recorder) SetJob(id string) {
	if r == nil {
		return
	}
	for _, s := range r.sinks {
		if t, ok := s.(JobTagger); ok {
			t.SetJob(id)
		}
	}
}

// Flush flushes every sink, returning the first error.
func (r *Recorder) Flush() error {
	if r == nil {
		return nil
	}
	var first error
	for _, s := range r.sinks {
		if err := s.Flush(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Forward returns a sink that re-emits every event into r, honoring r's
// own kind mask. It lets one recorder be chained behind another — e.g.
// the invariant auditor sits first and forwards to the user's recorder.
// Flush is a no-op: the forwarded-to recorder's owner flushes it.
func Forward(r *Recorder) Sink { return forwardSink{r} }

type forwardSink struct{ r *Recorder }

func (f forwardSink) Record(ev Event) { f.r.Emit(ev) }
func (f forwardSink) Flush() error    { return nil }
