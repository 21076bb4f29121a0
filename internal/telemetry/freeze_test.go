package telemetry

import (
	"bytes"
	"context"
	"encoding/binary"
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
		sameSpans(t, decodeSpans(nil, encodeSpans(snaps), 0), snaps)
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
