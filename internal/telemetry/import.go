package telemetry

import (
	"sort"
	"strconv"
)

// Remote-span import: the coordinator→worker RPC hop of the distributed
// cluster carries the trace id outward (an X-Hammertime-Trace header)
// and the worker's span snapshots back in the response. ImportRemote
// grafts those snapshots into the local tracer under the dispatch span,
// so a job's trace shows the worker-side grid/cell spans nested where
// the RPC happened — one trace across processes.

// ParseTraceID parses the 16-hex-digit wire form produced by
// TraceID.String. Reports false on anything else.
func ParseTraceID(s string) (TraceID, bool) {
	if len(s) != 16 {
		return 0, false
	}
	v, err := strconv.ParseUint(s, 16, 64)
	if err != nil {
		return 0, false
	}
	return TraceID(v), true
}

// ImportRemote appends spans collected by another process (a worker's
// Tracer.Snapshot) to t, remapped onto fresh local span ids: every
// remote parent/lane link is preserved among the imported spans, and
// remote roots (parent 0, or a parent missing from the snapshot) become
// children of parent. Remote spans get start/end sequence numbers after
// everything already in t — they were collected before the import, so
// export ordering stays consistent — handed out in the order of their
// remote start and end seqs, so imported spans nest locally exactly as
// they did remotely. Spans still open in the snapshot stay open locally
// (the exporters already tag in-flight spans). No-op on a nil tracer.
func (t *Tracer) ImportRemote(parent SpanID, snaps []SpanSnap) {
	if t == nil || len(snaps) == 0 {
		return
	}
	ordered := append([]SpanSnap(nil), snaps...)
	sort.SliceStable(ordered, func(i, j int) bool { return ordered[i].StartSeq < ordered[j].StartSeq })
	// One event per span start and per span end, in remote seq order; a
	// span's end never sorts before its own start.
	type event struct {
		seq  uint64
		end  bool
		span int
	}
	events := make([]event, 0, 2*len(ordered))
	for i, snap := range ordered {
		events = append(events, event{seq: snap.StartSeq, span: i})
		if !snap.End.IsZero() {
			events = append(events, event{seq: max(snap.EndSeq, snap.StartSeq), end: true, span: i})
		}
	}
	sort.SliceStable(events, func(i, j int) bool {
		if events[i].seq != events[j].seq {
			return events[i].seq < events[j].seq
		}
		return !events[i].end && events[j].end
	})

	t.mu.Lock()
	defer t.mu.Unlock()
	ids := make(map[SpanID]SpanID, len(ordered))
	for _, snap := range ordered {
		t.next++
		ids[snap.ID] = t.next
	}
	spans := make([]*Span, len(ordered))
	for i, snap := range ordered {
		s := &Span{
			tracer: t,
			id:     ids[snap.ID],
			name:   snap.Name,
			start:  snap.Start,
			end:    snap.End,
		}
		if p, ok := ids[snap.Parent]; ok {
			s.parent = p
		} else {
			s.parent = parent
		}
		if lane, ok := ids[snap.Lane]; ok {
			s.lane = lane
		} else {
			s.lane = s.id
		}
		s.attrs = append([]Attr(nil), snap.Attrs...)
		s.errMsg = snap.Err
		s.startCycle, s.endCycle, s.hasCycles = snap.StartCycle, snap.EndCycle, snap.HasCycles
		spans[i] = s
	}
	for _, ev := range events {
		t.seq++
		if ev.end {
			spans[ev.span].endSeq = t.seq
		} else {
			spans[ev.span].startSeq = t.seq
		}
	}
	t.spans = append(t.spans, spans...)
}
