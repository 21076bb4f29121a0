package telemetry

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"errors"
	"reflect"
	"testing"
	"time"

	"hammertime/internal/obs"
)

// exports renders spans through both exporters.
func exports(t testing.TB, spans []SpanSnap) (chrome, jsonl []byte) {
	t.Helper()
	var cb, jb bytes.Buffer
	ct := obs.NewChromeTrace(&cb)
	ct.SetJob("job-1")
	ExportChrome(ct, spans)
	j := obs.NewJSONL(&jb)
	ExportJSONL(j, spans)
	if err := ct.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	return cb.Bytes(), jb.Bytes()
}

// sameSpans fails unless got and want agree field by field, times by
// instant and zone offset.
func sameSpans(t testing.TB, got, want []SpanSnap) {
	t.Helper()
	if len(got) != len(want) {
		t.Fatalf("got %d spans, want %d", len(got), len(want))
	}
	for i := range want {
		g, w := got[i], want[i]
		for _, tt := range [][2]time.Time{{g.Start, w.Start}, {g.End, w.End}} {
			if !tt[0].Equal(tt[1]) || offset(tt[0]) != offset(tt[1]) {
				t.Fatalf("span %d: time %v, want %v", i, tt[0], tt[1])
			}
		}
		if g.End.Sub(g.Start) != w.End.Sub(w.Start) {
			t.Fatalf("span %d: duration %v, want %v", i, g.End.Sub(g.Start), w.End.Sub(w.Start))
		}
		g.Start, g.End, w.Start, w.End = time.Time{}, time.Time{}, time.Time{}, time.Time{}
		if len(g.Attrs) == 0 && len(w.Attrs) == 0 {
			g.Attrs, w.Attrs = nil, nil
		}
		if !reflect.DeepEqual(g, w) {
			t.Fatalf("span %d:\n got %+v\nwant %+v", i, g, w)
		}
	}
}

// TestFrozenTraceExportsIdentical builds a trace with local lanes, an
// import from a worker in another zone, attributes, cycles, a failed span
// and a span still in flight, all on wall-clock-only timestamps: both
// exports must be byte-identical before and after Freeze, and the
// in-flight span must stay live.
func TestFrozenTraceExportsIdentical(t *testing.T) {
	base := time.Date(2026, 3, 29, 0, 59, 59, 123456789, time.Local)
	clock := 0
	tick := func() time.Time { clock++; return base.Add(time.Duration(clock) * 1733 * time.Microsecond) }
	// Strip the monotonic readings StartSpan/End take.
	wall := func(s *Span) {
		s.mu.Lock()
		s.start = tick()
		if !s.end.IsZero() {
			s.end = s.start.Add(time.Duration(clock) * 917 * time.Microsecond)
		}
		s.mu.Unlock()
	}

	tr := NewTracerWithID(0xabc)
	ctx := NewContext(context.Background(), &Scope{Tracer: tr})
	jctx, job := StartSpan(ctx, "job")
	job.SetAttrs(String("experiment", "e1"), Int("horizon", 100000))
	var spans []*Span
	for i := 0; i < 3; i++ {
		cctx, cell := StartLane(jctx, "cell")
		cell.SetAttrs(String("grid", "e1"), Int("cell", int64(i)))
		_, run := StartSpan(cctx, "machine.run")
		run.SetCycles(0, 100000+uint64(i))
		run.End()
		if i == 1 {
			cell.EndErr(errors.New("cell 1 failed"))
		} else {
			cell.End()
		}
		spans = append(spans, cell, run)
	}
	_, disp := StartSpan(jctx, "dispatch:w1")

	worker := time.FixedZone("", -(7*3600 + 30*60))
	rs := base.In(worker).Add(2 * time.Millisecond)
	tr.ImportRemote(disp.ID(), []SpanSnap{
		{ID: 1, Lane: 1, Name: "grid:e1", Start: rs, End: rs.Add(9 * time.Millisecond),
			StartSeq: 1, EndSeq: 4, Attrs: []Attr{String("grid", "e1")}},
		{ID: 2, Parent: 1, Lane: 2, Name: "cell", Start: rs.Add(time.Millisecond),
			End: rs.Add(8 * time.Millisecond), StartSeq: 2, EndSeq: 3,
			StartCycle: 7, EndCycle: 5, HasCycles: true, Err: "boom"},
	})
	disp.End()
	_, open := StartSpan(jctx, "queued") // still in flight at freeze
	job.End()
	for _, s := range append(spans, job, disp, open) {
		wall(s)
	}

	before := tr.Snapshot()
	chromeBefore, jsonlBefore := exports(t, before)
	n, size := tr.Freeze()
	if n != len(before)-1 {
		t.Fatalf("froze %d spans, want all %d but the open one", n, len(before)-1)
	}
	if size == 0 || len(tr.spans) != 1 || tr.spans[0] != open {
		t.Fatalf("after freeze: %d bytes, live %d spans", size, len(tr.spans))
	}
	after := tr.Snapshot()
	sameSpans(t, after, before)
	chromeAfter, jsonlAfter := exports(t, after)
	if !bytes.Equal(chromeAfter, chromeBefore) {
		t.Fatalf("chrome export changed by freezing:\n%s\nvs\n%s", chromeAfter, chromeBefore)
	}
	if !bytes.Equal(jsonlAfter, jsonlBefore) {
		t.Fatalf("jsonl export changed by freezing:\n%s\nvs\n%s", jsonlAfter, jsonlBefore)
	}

	// A late span — an import or a start after Freeze — stays live and
	// exports after the frozen spans, in start order.
	open.End()
	tr.ImportRemote(disp.ID(), []SpanSnap{{ID: 9, Lane: 9, Name: "late", Start: rs, End: rs, StartSeq: 1, EndSeq: 2}})
	late := tr.Snapshot()
	if len(late) != len(before)+1 || late[len(late)-1].Name != "late" || late[len(late)-2].Name != "queued" {
		t.Fatalf("late spans not appended in start order: %+v", late[len(before)-1:])
	}
	if late[len(late)-1].Parent != disp.ID() {
		t.Fatalf("late import parent %d, want dispatch %d", late[len(late)-1].Parent, disp.ID())
	}
	if n, _ := tr.Freeze(); n != len(late) {
		t.Fatalf("second freeze holds %d spans, want %d", n, len(late))
	}
	sameSpans(t, tr.Snapshot(), late)
}

func TestFreezeNilAndEmpty(t *testing.T) {
	var nilTr *Tracer
	if n, b := nilTr.Freeze(); n != 0 || b != 0 {
		t.Fatal("nil tracer froze something")
	}
	tr := NewTracer()
	if n, b := tr.Freeze(); n != 0 || b != 0 || len(tr.Snapshot()) != 0 {
		t.Fatal("empty tracer froze something")
	}
}

// FuzzFrozenTrace round-trips fuzzer-built spans — arbitrary ids, seqs,
// cycles, zones and instants, including ones outside the int64
// nanosecond range and ends before starts — through Freeze: the
// snapshot and both exports must be unchanged.
func FuzzFrozenTrace(f *testing.F) {
	f.Add([]byte("seed"))
	f.Add(bytes.Repeat([]byte{0x80, 0x7f, 0x01, 0xff, 0x00}, 40))
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() uint64 {
			var b [8]byte
			n := copy(b[:], data)
			data = data[n:]
			return binary.LittleEndian.Uint64(b[:])
		}
		strs := []string{"", "cell", "grid:e1", "é\x00", "k"}
		var snaps []SpanSnap
		for len(data) > 0 && len(snaps) < 64 {
			r := next()
			loc := time.Local
			if r&1 != 0 {
				loc = time.FixedZone("", int(int16(r>>8))*60)
			}
			sec := int64(r>>24)%(1<<36) - 1<<35
			if r&2 != 0 {
				sec = 1_700_000_000 + int64(r>>40)%1000
			}
			start := time.Unix(sec, int64(next()%1e9)).In(loc)
			end := start.Add(time.Duration(int64(next())))
			if r&4 != 0 {
				end = time.Time{}
			}
			s := SpanSnap{
				ID: SpanID(next()), Parent: SpanID(next() % 4), Lane: SpanID(next() % 8),
				Name: strs[r>>16%5], Start: start, End: end,
				StartSeq: next(), EndSeq: next(),
				StartCycle: next(), EndCycle: next(), HasCycles: r&8 != 0,
				Err: strs[r>>20%5],
			}
			for k := 0; k < int(r>>28%3); k++ {
				s.Attrs = append(s.Attrs, Attr{Key: strs[k], Val: strs[(uint64(k)+r>>32)%5]})
			}
			snaps = append(snaps, s)
		}
		decoded, err := DecodeSpans(EncodeSpans(snaps), 0)
		if err != nil {
			t.Fatal(err)
		}
		sameSpans(t, decoded, snaps)
		tr := NewTracerWithID(7)
		tr.ImportRemote(0, snaps)
		before := tr.Snapshot()
		chromeBefore, jsonlBefore := exports(t, before)
		tr.Freeze()
		after := tr.Snapshot()
		sameSpans(t, after, before)
		chromeAfter, jsonlAfter := exports(t, after)
		if !bytes.Equal(chromeAfter, chromeBefore) || !bytes.Equal(jsonlAfter, jsonlBefore) {
			t.Fatal("exports changed by freezing")
		}
	})
}

// TestOpenSpanRoundTripsOpen checks that a span still in flight when a
// worker encodes its spans decodes as open, and stays open once a
// coordinator imports it: it gets no end seq, and the exporters
// synthesize its end as they do for a live in-flight span.
func TestOpenSpanRoundTripsOpen(t *testing.T) {
	tr := NewTracer()
	ctx := NewContext(context.Background(), &Scope{Tracer: tr})
	ctx, _ = StartSpan(ctx, "grid:e1") // still in flight when encoded
	_, cell := StartSpan(ctx, "cell")
	cell.End()
	snaps := tr.Snapshot()
	decoded, err := DecodeSpans(EncodeSpans(snaps), tr.ID())
	if err != nil {
		t.Fatal(err)
	}
	if len(decoded) != 2 || decoded[0].Name != "grid:e1" || decoded[1].Name != "cell" {
		t.Fatalf("decoded %+v", decoded)
	}
	if !decoded[0].End.IsZero() || decoded[1].End.IsZero() {
		t.Fatalf("decoded ends %v, %v: want the grid open, the cell ended", decoded[0].End, decoded[1].End)
	}

	coord := NewTracer()
	_, disp := StartSpan(NewContext(context.Background(), &Scope{Tracer: coord}), "dispatch:w1")
	coord.ImportRemote(disp.ID(), decoded)
	disp.End()
	var imported []SpanSnap
	for _, s := range coord.Snapshot() {
		if s.Name == "grid:e1" {
			imported = append(imported, s)
		}
	}
	if len(imported) != 1 || !imported[0].End.IsZero() || imported[0].EndSeq != 0 {
		t.Fatalf("imported grid span %+v, want one span still open", imported)
	}
	_, jsonl := exports(t, coord.Snapshot())
	if !bytes.Contains(jsonl, []byte(`"name":"grid:e1"`)) {
		t.Fatalf("open imported span missing from the export:\n%s", jsonl)
	}
}

// FuzzDecodeSpans feeds arbitrary bytes to the span decoder, which reads
// what cluster workers send: it must return an error or spans, never
// panic, and never hold more spans than the input has room for. Spans
// it accepts must round-trip through EncodeSpans.
func FuzzDecodeSpans(f *testing.F) {
	base := time.Date(2026, 3, 29, 0, 0, 0, 0, time.FixedZone("", 3600))
	enc := EncodeSpans([]SpanSnap{
		{ID: 1, Lane: 1, Name: "grid:e1", Start: base, End: base.Add(time.Second), StartSeq: 1, EndSeq: 4,
			Attrs: []Attr{String("grid", "e1")}},
		{ID: 2, Parent: 1, Lane: 2, Name: "cell", Start: base.Add(time.Millisecond), StartSeq: 2,
			StartCycle: 7, EndCycle: 9, HasCycles: true, Err: "boom"},
	})
	f.Add(enc)
	for _, n := range []int{0, 1, len(enc) / 2, len(enc) - 1} {
		f.Add(enc[:n])
	}
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0x0f})             // a huge string count
	f.Add([]byte{0x00, 0xff, 0xff, 0xff, 0xff, 0xff, 0x01}) // a huge span count
	f.Fuzz(func(t *testing.T, data []byte) {
		spans, err := DecodeSpans(data, 3)
		if err != nil {
			return
		}
		if len(spans) > len(data)/minRecord {
			t.Fatalf("%d spans from %d bytes", len(spans), len(data))
		}
		again, err := DecodeSpans(EncodeSpans(spans), 3)
		if err != nil {
			t.Fatalf("re-encoded spans do not decode: %v", err)
		}
		sameSpans(t, again, spans)
	})
}

// TestSpanWireMatchesJSON checks that a coordinator grafting a worker's
// spans sees the same trace whether they crossed the wire in the frozen
// encoding or, as they used to, as a JSON array of snapshots: same
// names, parent and lane links, seq order, attributes, errors, cycles
// and times, so both exports are byte-identical.
func TestSpanWireMatchesJSON(t *testing.T) {
	base := time.Date(2026, 3, 29, 0, 59, 59, 123456789, time.FixedZone("", -(7*3600+30*60)))
	snaps := []SpanSnap{
		{ID: 1, Lane: 1, Name: "grid:e1", Start: base, End: base.Add(9 * time.Millisecond),
			StartSeq: 1, EndSeq: 8, Attrs: []Attr{String("grid", "e1"), Int("cells", 2)}},
		{ID: 2, Parent: 1, Lane: 2, Name: "cell", Start: base.Add(time.Millisecond),
			End: base.Add(4 * time.Millisecond), StartSeq: 2, EndSeq: 5},
		{ID: 3, Parent: 2, Lane: 2, Name: "machine.run", Start: base.Add(2 * time.Millisecond),
			End: base.Add(3 * time.Millisecond), StartSeq: 3, EndSeq: 4,
			StartCycle: 0, EndCycle: 100000, HasCycles: true},
		{ID: 4, Parent: 1, Lane: 4, Name: "cell", Start: base.Add(5 * time.Millisecond),
			End: base.Add(8 * time.Millisecond), StartSeq: 6, EndSeq: 7, Err: "cell 1 failed"},
		{ID: 5, Parent: 1, Lane: 5, Name: "flush", Start: base.Add(8 * time.Millisecond), StartSeq: 9},
	}
	raw, err := json.Marshal(snaps)
	if err != nil {
		t.Fatal(err)
	}
	var viaJSON []SpanSnap
	if err := json.Unmarshal(raw, &viaJSON); err != nil {
		t.Fatal(err)
	}
	viaFrozen, err := DecodeSpans(EncodeSpans(snaps), 0)
	if err != nil {
		t.Fatal(err)
	}
	graft := func(spans []SpanSnap) []SpanSnap {
		tr := NewTracerWithID(0xabc)
		_, disp := StartSpan(NewContext(context.Background(), &Scope{Tracer: tr}), "dispatch:w1")
		tr.ImportRemote(disp.ID(), spans)
		out := tr.Snapshot()
		return out[1:] // the dispatch span's own times are the test's wall clock
	}
	a, b := graft(viaJSON), graft(viaFrozen)
	sameSpans(t, b, a)
	chromeA, jsonlA := exports(t, a)
	chromeB, jsonlB := exports(t, b)
	if !bytes.Equal(chromeA, chromeB) || !bytes.Equal(jsonlA, jsonlB) {
		t.Fatalf("exports differ:\n%s\nvs\n%s", jsonlB, jsonlA)
	}
}
