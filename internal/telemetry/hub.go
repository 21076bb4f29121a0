package telemetry

import (
	"encoding/json"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"hammertime/internal/obs"
)

// Msg is one record fanned out to subscribers: an SSE event type plus a
// marshalled JSON payload (marshalled once per publish, shared by every
// subscriber).
type Msg struct {
	Type string
	Data []byte
}

// Progress is the periodic grid-progress record streamed over SSE.
type Progress struct {
	Grid         string  `json:"grid"`
	Done         int     `json:"done"`
	Total        int     `json:"total"`
	Restored     int     `json:"restored,omitempty"`
	Failed       int     `json:"failed,omitempty"`
	EventsPerSec float64 `json:"events_per_sec"`
	ETASeconds   float64 `json:"eta_seconds"`
}

// CellDone is the per-cell completion record streamed over SSE.
type CellDone struct {
	Grid     string  `json:"grid"`
	Index    int     `json:"index"`
	WallMS   float64 `json:"wall_ms"`
	Attempts int     `json:"attempts,omitempty"`
	Restored bool    `json:"restored,omitempty"`
	Err      string  `json:"err,omitempty"`
}

// ObsRecord is the wire form of one simulator event on the SSE stream.
type ObsRecord struct {
	Kind   string `json:"kind"`
	Cycle  uint64 `json:"cycle"`
	Bank   int    `json:"bank,omitempty"`
	Row    int    `json:"row,omitempty"`
	Domain int    `json:"domain,omitempty"`
	Line   uint64 `json:"line,omitempty"`
	Arg    uint64 `json:"arg,omitempty"`
}

// Hub fans live records out to bounded per-subscriber rings. Publishing
// never blocks and never waits on a subscriber: a slow client overflows
// its own ring (oldest records dropped and counted) while the
// simulation runs at full speed. With zero subscribers Publish skips
// marshalling entirely — one atomic load.
type Hub struct {
	nsubs  atomic.Int32
	events atomic.Uint64 // simulated events counted via CountEvents
	start  time.Time

	mu   sync.Mutex
	subs []*Subscriber
}

// NewHub returns an empty hub; the events/sec clock starts now.
func NewHub() *Hub { return &Hub{start: time.Now()} }

// CountEvents adds n simulated events to the throughput counter. Safe
// on a nil receiver.
func (h *Hub) CountEvents(n uint64) {
	if h == nil {
		return
	}
	h.events.Add(n)
}

// Events returns the lifetime simulated-event count.
func (h *Hub) Events() uint64 {
	if h == nil {
		return 0
	}
	return h.events.Load()
}

// EventsPerSec returns the average simulated-event throughput since the
// hub was created.
func (h *Hub) EventsPerSec() float64 {
	if h == nil {
		return 0
	}
	sec := time.Since(h.start).Seconds()
	if sec <= 0 {
		return 0
	}
	return float64(h.events.Load()) / sec
}

// Publish marshals v once and offers it to every subscriber,
// non-blocking. Free (one atomic load) when nobody is subscribed; a
// marshal failure drops the record.
func (h *Hub) Publish(typ string, v any) {
	if h == nil || h.nsubs.Load() == 0 {
		return
	}
	data, err := json.Marshal(v)
	if err != nil {
		return
	}
	msg := Msg{Type: typ, Data: data}
	h.mu.Lock()
	subs := h.subs
	h.mu.Unlock()
	for _, s := range subs {
		s.offer(msg)
	}
}

// Subscribe registers a subscriber with a ring of n records (n ≥ 1).
func (h *Hub) Subscribe(n int) *Subscriber {
	if n < 1 {
		n = 1
	}
	s := &Subscriber{hub: h, ring: make([]Msg, n), notify: make(chan struct{}, 1)}
	h.mu.Lock()
	h.subs = append(h.subs, s)
	h.mu.Unlock()
	h.nsubs.Add(1)
	return s
}

// Unsubscribe removes s; its Notify channel stops firing. The list is
// rebuilt rather than shifted in place: Publish ranges over a snapshot
// of h.subs outside the lock, so the old array must not change under
// it, and a shifted array would keep s (and its ring) reachable from
// its spare capacity for as long as the hub lives.
func (h *Hub) Unsubscribe(s *Subscriber) {
	h.mu.Lock()
	for i, cur := range h.subs {
		if cur == s {
			h.subs = slices.Concat(h.subs[:i], h.subs[i+1:])
			h.nsubs.Add(-1)
			break
		}
	}
	h.mu.Unlock()
}

// Subscriber is one bounded consumer of a hub. Records beyond the
// ring's capacity evict the oldest and count as drops; the reader
// learns how many records it missed with each batch it takes.
type Subscriber struct {
	hub    *Hub
	notify chan struct{}

	mu      sync.Mutex
	ring    []Msg
	head    int // next slot to write
	size    int // occupied slots
	dropped uint64
}

// Notify returns a channel that receives (capacity-1, coalesced) after
// new records arrive. Select on it alongside the request context.
func (s *Subscriber) Notify() <-chan struct{} { return s.notify }

// offer appends msg, evicting the oldest record when full.
func (s *Subscriber) offer(msg Msg) {
	s.mu.Lock()
	s.ring[s.head] = msg
	s.head = (s.head + 1) % len(s.ring)
	if s.size == len(s.ring) {
		s.dropped++
	} else {
		s.size++
	}
	s.mu.Unlock()
	select {
	case s.notify <- struct{}{}:
	default:
	}
}

// Take drains the buffered records (oldest first) and reports how many
// records were dropped since the previous Take.
func (s *Subscriber) Take() (msgs []Msg, dropped uint64) {
	s.mu.Lock()
	if s.size > 0 {
		msgs = make([]Msg, 0, s.size)
		start := s.head - s.size
		if start < 0 {
			start += len(s.ring)
		}
		for i := 0; i < s.size; i++ {
			msgs = append(msgs, s.ring[(start+i)%len(s.ring)])
		}
		s.size = 0
	}
	dropped = s.dropped
	s.dropped = 0
	s.mu.Unlock()
	return msgs, dropped
}

// ObsSink returns an obs.Sink that publishes every recorded event as an
// "obs" record on the hub. It implements obs.JobTagger as a no-op (job
// identity is already carried by the stream the subscriber chose).
// Publishing is non-blocking, so wiring this sink into a recorder keeps
// the simulation isolated from slow clients.
func (h *Hub) ObsSink() obs.Sink { return hubSink{h} }

type hubSink struct{ h *Hub }

func (s hubSink) Record(ev obs.Event) {
	if s.h.nsubs.Load() == 0 {
		return
	}
	rec := ObsRecord{Kind: ev.Kind.String(), Cycle: ev.Cycle, Line: ev.Line, Arg: ev.Arg}
	if ev.Bank >= 0 {
		rec.Bank = ev.Bank
	}
	if ev.Row >= 0 {
		rec.Row = ev.Row
	}
	if ev.Domain >= 0 {
		rec.Domain = ev.Domain
	}
	s.h.Publish("obs", rec)
}

func (hubSink) Flush() error    { return nil }
func (hubSink) SetJob(_ string) {}
