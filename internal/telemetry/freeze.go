package telemetry

import (
	"encoding/binary"
	"fmt"
	"time"
)

// Frozen traces. A finished job's trace is read rarely but kept for as
// long as the job is retained, so Freeze moves the tracer's leading
// ended spans out of their *Span objects (about 250 B each with their
// attribute slices) into one pointer-free byte slice the garbage
// collector never scans (about 21 B per span of an E1 job trace).
// Snapshot decodes it back.
//
// The encoding is a string table followed by one record per span, in
// start order:
//
//	uvarint nStrings, then nStrings × (uvarint len, bytes)
//	uvarint nSpans, then nSpans records
//
// A record is a flags byte and then varints, most of them deltas
// against the previous record or against the span's own id and start:
//
//	flags
//	id − prev id, id − parent, id − lane      (signed, wrapping)
//	name                                      (string index)
//	startSeq − prev startSeq, endSeq − startSeq (signed, wrapping)
//	[start zone offset]                       (fZone)
//	start: ns − prev ns, or [sec, nsec]       (fWideStart)
//	[end zone offset]                         (fEndZone)
//	end: End.Sub(Start), or [sec, nsec]       (fWideEnd)
//	[startCycle, endCycle − startCycle]       (fCycleVals)
//	nAttrs, nAttrs × (key, val)               (string indexes)
//	[err]                                     (fErr, string index)
//
// What round-trips exactly: every id, seq, cycle, attribute and error;
// each time's instant and zone offset; and each span's duration as
// End.Sub(Start) computed it. Decoded times carry no monotonic clock
// reading, so the end instant is the start plus that duration: a wall
// clock step while the span was open moves its decoded end, nothing
// else does.
const (
	fCycles    = 1 << iota // HasCycles
	fCycleVals             // cycle bounds follow
	fErr                   // error string index follows
	fZone                  // start zone offset follows (else the previous span's)
	fWideStart             // start is absolute seconds + nanoseconds
	fEndZone               // end zone offset follows (else the start's zone rules)
	fWideEnd               // end is absolute seconds + nanoseconds, not a duration
)

// maxNanoSec bounds the Unix seconds whose instant fits an int64
// nanosecond count; times outside it are encoded wide.
const maxNanoSec = 9_000_000_000

// Freeze packs the tracer's longest prefix of ended spans into the
// frozen encoding and drops their *Span objects; spans still open, and
// every span after the first open one, stay live. It returns how many
// spans the encoding holds and its size in bytes. A frozen span is
// immutable: attributes set on it afterwards are lost. Freezing again
// re-encodes the frozen spans together with the newly ended prefix.
// Nil-safe.
func (t *Tracer) Freeze() (spans, bytes int) {
	if t == nil {
		return 0, 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	k := 0
	for k < len(t.spans) && t.spans[k].ended() {
		k++
	}
	if k > 0 {
		snaps := decodeSpans(make([]SpanSnap, 0, t.nFrozen+k), t.frozen, t.id)
		for _, s := range t.spans[:k] {
			snaps = append(snaps, s.snapshot(t.id))
		}
		t.frozen = encodeSpans(snaps)
		t.nFrozen = len(snaps)
		// A fresh tail array, so the dropped spans are unreachable.
		t.spans = append([]*Span(nil), t.spans[k:]...)
	}
	return t.nFrozen, len(t.frozen)
}

func (s *Span) ended() bool {
	s.mu.Lock()
	defer s.mu.Unlock()
	return !s.end.IsZero()
}

// zones maps zone offsets to locations for one encode or decode pass.
type zones map[int]*time.Location

// in returns t in a location with the given offset: t itself when its
// own location (Local, for a freshly decoded instant) already gives
// that offset at t, else a fixed zone.
func (z zones) in(t time.Time, off int) time.Time {
	if _, o := t.Zone(); o == off {
		return t
	}
	loc, ok := z[off]
	if !ok {
		loc = time.FixedZone("", off)
		z[off] = loc
	}
	return t.In(loc)
}

func offset(t time.Time) int {
	_, off := t.Zone()
	return off
}

// unixNano returns t's instant as Unix nanoseconds, if it fits.
func unixNano(t time.Time) (int64, bool) {
	sec := t.Unix()
	if sec < -maxNanoSec || sec > maxNanoSec {
		return 0, false
	}
	return sec*1e9 + int64(t.Nanosecond()), true
}

// encodeSpans encodes snaps (whose Trace is implied by the tracer).
func encodeSpans(snaps []SpanSnap) []byte {
	index := make(map[string]uint64)
	var table []string
	str := func(s string) uint64 {
		i, ok := index[s]
		if !ok {
			i = uint64(len(table))
			index[s] = i
			table = append(table, s)
		}
		return i
	}
	z := zones{}
	var rec []byte
	var prevID SpanID
	var prevSeq uint64
	var prevNS int64
	prevOff := 0
	for _, s := range snaps {
		at := len(rec)
		rec = append(rec, 0)
		var flags byte
		rec = binary.AppendVarint(rec, int64(s.ID-prevID))
		rec = binary.AppendVarint(rec, int64(s.ID-s.Parent))
		rec = binary.AppendVarint(rec, int64(s.ID-s.Lane))
		rec = binary.AppendUvarint(rec, str(s.Name))
		rec = binary.AppendVarint(rec, int64(s.StartSeq-prevSeq))
		rec = binary.AppendVarint(rec, int64(s.EndSeq-s.StartSeq))
		prevID, prevSeq = s.ID, s.StartSeq

		var start time.Time
		if off := offset(s.Start); off != prevOff {
			flags |= fZone
			rec = binary.AppendVarint(rec, int64(off))
			prevOff = off
		}
		if ns, ok := unixNano(s.Start); ok {
			rec = binary.AppendVarint(rec, int64(uint64(ns)-uint64(prevNS)))
			prevNS = ns
			start = time.Unix(0, ns)
		} else {
			flags |= fWideStart
			rec = binary.AppendVarint(rec, s.Start.Unix())
			rec = binary.AppendUvarint(rec, uint64(s.Start.Nanosecond()))
			start = time.Unix(s.Start.Unix(), int64(s.Start.Nanosecond()))
		}
		start = z.in(start, prevOff)

		d := s.End.Sub(s.Start)
		// A saturated Sub cannot carry the end; store it absolute.
		wide := d == time.Duration(1<<63-1) || d == time.Duration(-1<<63)
		var end time.Time
		if wide {
			flags |= fWideEnd
			end = time.Unix(s.End.Unix(), int64(s.End.Nanosecond()))
		} else {
			end = start.Add(d)
		}
		if off := offset(s.End); off != offset(end) {
			flags |= fEndZone
			rec = binary.AppendVarint(rec, int64(off))
		}
		if wide {
			rec = binary.AppendVarint(rec, s.End.Unix())
			rec = binary.AppendUvarint(rec, uint64(s.End.Nanosecond()))
		} else {
			rec = binary.AppendVarint(rec, int64(d))
		}

		if s.HasCycles {
			flags |= fCycles
		}
		if s.HasCycles || s.StartCycle != 0 || s.EndCycle != 0 {
			flags |= fCycleVals
			rec = binary.AppendUvarint(rec, s.StartCycle)
			rec = binary.AppendVarint(rec, int64(s.EndCycle-s.StartCycle))
		}
		rec = binary.AppendUvarint(rec, uint64(len(s.Attrs)))
		for _, a := range s.Attrs {
			rec = binary.AppendUvarint(rec, str(a.Key))
			rec = binary.AppendUvarint(rec, str(a.Val))
		}
		if s.Err != "" {
			flags |= fErr
			rec = binary.AppendUvarint(rec, str(s.Err))
		}
		rec[at] = flags
	}

	hdr := binary.AppendUvarint(nil, uint64(len(table)))
	for _, s := range table {
		hdr = binary.AppendUvarint(hdr, uint64(len(s)))
		hdr = append(hdr, s...)
	}
	hdr = binary.AppendUvarint(hdr, uint64(len(snaps)))
	out := make([]byte, 0, len(hdr)+len(rec))
	return append(append(out, hdr...), rec...)
}

// decoder reads one encoding. The bytes come from encodeSpans in this
// process, so a malformed encoding is a bug and panics.
type decoder struct {
	b []byte
}

func (d *decoder) uvarint() uint64 {
	v, n := binary.Uvarint(d.b)
	if n <= 0 {
		panic(fmt.Sprintf("telemetry: corrupt frozen trace (%d bytes left)", len(d.b)))
	}
	d.b = d.b[n:]
	return v
}

func (d *decoder) varint() int64 {
	v, n := binary.Varint(d.b)
	if n <= 0 {
		panic(fmt.Sprintf("telemetry: corrupt frozen trace (%d bytes left)", len(d.b)))
	}
	d.b = d.b[n:]
	return v
}

// decodeSpans appends the spans of enc, tagged with trace, to out.
func decodeSpans(out []SpanSnap, enc []byte, trace TraceID) []SpanSnap {
	if len(enc) == 0 {
		return out
	}
	d := decoder{b: enc}
	table := make([]string, d.uvarint())
	for i := range table {
		n := d.uvarint()
		table[i] = string(d.b[:n])
		d.b = d.b[n:]
	}
	z := zones{}
	var prevID SpanID
	var prevSeq uint64
	var prevNS int64
	prevOff := 0
	for n := d.uvarint(); n > 0; n-- {
		flags := d.b[0]
		d.b = d.b[1:]
		s := SpanSnap{Trace: trace}
		s.ID = prevID + SpanID(d.varint())
		s.Parent = s.ID - SpanID(d.varint())
		s.Lane = s.ID - SpanID(d.varint())
		s.Name = table[d.uvarint()]
		s.StartSeq = prevSeq + uint64(d.varint())
		s.EndSeq = s.StartSeq + uint64(d.varint())
		prevID, prevSeq = s.ID, s.StartSeq

		if flags&fZone != 0 {
			prevOff = int(d.varint())
		}
		if flags&fWideStart != 0 {
			sec := d.varint()
			s.Start = time.Unix(sec, int64(d.uvarint()))
		} else {
			prevNS = int64(uint64(prevNS) + uint64(d.varint()))
			s.Start = time.Unix(0, prevNS)
		}
		s.Start = z.in(s.Start, prevOff)

		endOff, endZone := 0, flags&fEndZone != 0
		if endZone {
			endOff = int(d.varint())
		}
		if flags&fWideEnd != 0 {
			sec := d.varint()
			s.End = time.Unix(sec, int64(d.uvarint()))
		} else {
			s.End = s.Start.Add(time.Duration(d.varint()))
		}
		if endZone {
			s.End = z.in(s.End, endOff)
		}

		s.HasCycles = flags&fCycles != 0
		if flags&fCycleVals != 0 {
			s.StartCycle = d.uvarint()
			s.EndCycle = s.StartCycle + uint64(d.varint())
		}
		if na := d.uvarint(); na > 0 {
			s.Attrs = make([]Attr, na)
			for i := range s.Attrs {
				s.Attrs[i].Key = table[d.uvarint()]
				s.Attrs[i].Val = table[d.uvarint()]
			}
		}
		if flags&fErr != 0 {
			s.Err = table[d.uvarint()]
		}
		out = append(out, s)
	}
	return out
}
