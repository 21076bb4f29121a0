package trace

import (
	"bytes"
	"slices"
	"strings"
	"testing"
	"testing/quick"

	"hammertime/internal/addr"
	"hammertime/internal/cpu"
	"hammertime/internal/dram"
)

func progFromAccesses(accs []cpu.Access) cpu.Program {
	i := 0
	return cpu.ProgramFunc(func() (cpu.Access, bool) {
		if i >= len(accs) {
			return cpu.Access{}, false
		}
		a := accs[i]
		i++
		return a, true
	})
}

// next takes one access from p.
func next(p cpu.Program) (cpu.Access, bool) {
	var one [1]cpu.Access
	if p.Fill(one[:]) == 0 {
		return cpu.Access{}, false
	}
	return one[0], true
}

// TestRecordReplayRoundTrip is the core property: for any access stream,
// record-then-replay reproduces the stream exactly.
func TestRecordReplayRoundTrip(t *testing.T) {
	f := func(lines []uint16, flags []bool) bool {
		var accs []cpu.Access
		for i, l := range lines {
			a := cpu.Access{Line: uint64(l), Think: uint64(l % 7)}
			if i < len(flags) {
				a.Write = flags[i]
				a.Flush = !flags[i]
			}
			accs = append(accs, a)
		}
		var buf bytes.Buffer
		w := NewWriter(&buf)
		rec := Record(progFromAccesses(accs), w)
		for {
			if _, ok := next(rec); !ok {
				break
			}
		}
		if w.Count() != uint64(len(accs)) {
			return false
		}
		events, err := Read(&buf)
		if err != nil {
			return false
		}
		// Replay fills in batches; any batch size yields the stream.
		rep := Replay(events)
		batch := make([]cpu.Access, 1+len(lines)%5)
		var got []cpu.Access
		for n := rep.Fill(batch); n > 0; n = rep.Fill(batch) {
			got = append(got, batch[:n]...)
		}
		return slices.Equal(got, accs)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("{\"seq\":0}\nnot json\n")); err == nil {
		t.Fatal("malformed trace accepted")
	}
}

func TestReadSkipsBlankLines(t *testing.T) {
	events, err := Read(strings.NewReader("{\"seq\":0,\"line\":5}\n\n{\"seq\":1,\"line\":6}\n"))
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 2 || events[1].Line != 6 {
		t.Fatalf("events = %+v", events)
	}
}

func TestReadTruncatedMidLine(t *testing.T) {
	// The second event's line was cut off mid-object — a half-copied file.
	_, err := Read(strings.NewReader("{\"seq\":0,\"line\":5}\n{\"seq\":1,\"li"))
	if err == nil {
		t.Fatal("truncated trace accepted")
	}
	if !strings.Contains(err.Error(), "trace: truncated at event 1") {
		t.Fatalf("err = %v, want truncated-at-event-1", err)
	}
}

func TestReadTruncatedSeqGap(t *testing.T) {
	// Lost middle lines leave a jump in the seq numbering.
	_, err := Read(strings.NewReader("{\"seq\":0,\"line\":5}\n{\"seq\":3,\"line\":6}\n"))
	if err == nil {
		t.Fatal("seq gap accepted")
	}
	if !strings.Contains(err.Error(), "trace: truncated at event 1") {
		t.Fatalf("err = %v, want truncated-at-event-1", err)
	}
}

func TestSummarizeHottestFirst(t *testing.T) {
	m := addr.NewLineInterleave(dram.DefaultGeometry())
	g := dram.DefaultGeometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	var events []Event
	// Row 1 of bank 0 hit 5 times, row 0 of bank 0 twice.
	for i := 0; i < 5; i++ {
		events = append(events, Event{Line: stripe})
	}
	events = append(events, Event{Line: 0}, Event{Line: 0})
	stats := Summarize(events, m)
	if len(stats) != 2 {
		t.Fatalf("stats = %+v", stats)
	}
	if stats[0].Row != 1 || stats[0].Accesses != 5 {
		t.Fatalf("hottest = %+v", stats[0])
	}
	if stats[1].Row != 0 || stats[1].Accesses != 2 {
		t.Fatalf("second = %+v", stats[1])
	}
}

func TestRecordSinkFailureEndsProgram(t *testing.T) {
	w := NewWriter(failingWriter{})
	rec := Record(progFromAccesses([]cpu.Access{{Line: 1}, {Line: 2}}), w)
	if _, ok := next(rec); ok {
		t.Fatal("program continued past a failing trace sink")
	}
}

// TestRecordWritesOnlyConsumed checks that Record asks its program for
// one access per access consumed, even when the consumer offers a large
// buffer, so the trace ends where the consumer stopped.
func TestRecordWritesOnlyConsumed(t *testing.T) {
	accs := make([]cpu.Access, 100)
	for i := range accs {
		accs[i].Line = uint64(i)
	}
	var buf bytes.Buffer
	w := NewWriter(&buf)
	rec := Record(Replay(eventsOf(accs)), w)
	var batch [cpu.BatchLen]cpu.Access
	for i := 0; i < 5; i++ {
		if n := rec.Fill(batch[:]); n != 1 || batch[0].Line != uint64(i) {
			t.Fatalf("fill %d: %d accesses, line %d", i, n, batch[0].Line)
		}
	}
	if w.Count() != 5 {
		t.Fatalf("recorded %d events after consuming 5", w.Count())
	}
}

func eventsOf(accs []cpu.Access) []Event {
	evs := make([]Event, len(accs))
	for i, a := range accs {
		evs[i] = Event{Seq: uint64(i), Line: a.Line, Write: a.Write, Flush: a.Flush, Think: a.Think}
	}
	return evs
}

type failingWriter struct{}

func (failingWriter) Write([]byte) (int, error) {
	return 0, &writeErr{}
}

type writeErr struct{}

func (*writeErr) Error() string { return "sink failed" }
