// Package trace records and replays memory-access traces as JSON lines,
// so workloads can be captured once (from a generator, a probe run, or a
// hand-written scenario) and replayed deterministically against different
// machine configurations — the standard methodology for comparing
// defenses on identical access streams.
package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"hammertime/internal/addr"
	"hammertime/internal/cpu"
)

// Event is one recorded access at cache-line granularity.
type Event struct {
	// Seq is the 0-based position in the stream.
	Seq uint64 `json:"seq"`
	// Line is the physical line index.
	Line  uint64 `json:"line"`
	Write bool   `json:"write,omitempty"`
	Flush bool   `json:"flush,omitempty"`
	Think uint64 `json:"think,omitempty"`
}

// Writer streams events as JSON lines.
type Writer struct {
	enc *json.Encoder
	seq uint64
}

// NewWriter returns a Writer emitting to w.
func NewWriter(w io.Writer) *Writer {
	return &Writer{enc: json.NewEncoder(w)}
}

// Write appends one event (Seq is assigned automatically).
func (w *Writer) Write(ev Event) error {
	ev.Seq = w.seq
	w.seq++
	if err := w.enc.Encode(ev); err != nil {
		return fmt.Errorf("trace: write event %d: %w", ev.Seq, err)
	}
	return nil
}

// Count returns how many events have been written.
func (w *Writer) Count() uint64 { return w.seq }

// Record wraps a program so every access it yields is also written to w.
// It takes one access from p per call, so only accesses the consumer
// asks for are written.
func Record(p cpu.Program, w *Writer) cpu.Program {
	failed := false
	var one [1]cpu.Access
	return cpu.ProgramFunc(func() (cpu.Access, bool) {
		if failed || p.Fill(one[:]) == 0 {
			return cpu.Access{}, false
		}
		acc := one[0]
		if err := w.Write(Event{Line: acc.Line, Write: acc.Write, Flush: acc.Flush, Think: acc.Think}); err != nil {
			// A broken trace sink ends the program rather than silently
			// recording a partial stream.
			failed = true
			return cpu.Access{}, false
		}
		return acc, true
	})
}

// Read parses a complete JSON-lines trace. A stream cut off mid-event —
// an unparsable final line, or a jump in the seq numbering where lost
// lines would leave a gap — is reported as a "trace: truncated at event
// N" error rather than silently yielding the surviving prefix, so
// replaying a half-copied trace fails loudly instead of comparing
// defenses on different access streams.
func Read(r io.Reader) ([]Event, error) {
	var events []Event
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var ev Event
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			if !sc.Scan() {
				// The unparsable line is the last one: the stream was cut
				// off mid-event.
				return nil, fmt.Errorf("trace: truncated at event %d: %w", len(events), err)
			}
			return nil, fmt.Errorf("trace: line %d: %w", lineNo, err)
		}
		if ev.Seq != uint64(len(events)) {
			return nil, fmt.Errorf("trace: truncated at event %d: line %d has seq %d",
				len(events), lineNo, ev.Seq)
		}
		events = append(events, ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: read: %w", err)
	}
	return events, nil
}

// Replay turns a recorded trace back into a program.
func Replay(events []Event) cpu.Program { return &replay{events: events} }

type replay struct{ events []Event }

// Fill implements cpu.Program.
func (r *replay) Fill(buf []cpu.Access) int {
	n := min(len(buf), len(r.events))
	for i, ev := range r.events[:n] {
		buf[i] = cpu.Access{Line: ev.Line, Write: ev.Write, Flush: ev.Flush, Think: ev.Think}
	}
	r.events = r.events[n:]
	return n
}

// RowStats summarizes a trace against an address mapping: accesses per
// (bank, row), sorted hottest-first — the offline view of what an ACT
// counter sees, useful for sizing detector thresholds.
type RowStats struct {
	Bank, Row int
	Accesses  uint64
}

// Summarize aggregates per-row access counts.
func Summarize(events []Event, m addr.Mapper) []RowStats {
	counts := make(map[[2]int]uint64)
	for _, ev := range events {
		d := m.Map(ev.Line)
		counts[[2]int{d.Bank, d.Row}]++
	}
	out := make([]RowStats, 0, len(counts))
	for k, n := range counts {
		out = append(out, RowStats{Bank: k[0], Row: k[1], Accesses: n})
	}
	// Hottest first; deterministic tie-break by (bank, row).
	for i := 1; i < len(out); i++ {
		for j := i; j > 0; j-- {
			a, b := out[j-1], out[j]
			if b.Accesses > a.Accesses ||
				(b.Accesses == a.Accesses && (b.Bank < a.Bank || (b.Bank == a.Bank && b.Row < a.Row))) {
				out[j-1], out[j] = out[j], out[j-1]
			} else {
				break
			}
		}
	}
	return out
}
