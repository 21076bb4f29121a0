package telemetry

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"strings"
	"sync"
	"testing"

	"hammertime/internal/obs"
	"hammertime/internal/sim"
)

func TestNilScopeIsInert(t *testing.T) {
	ctx := context.Background()
	ctx2, span := StartSpan(ctx, "root")
	if span != nil {
		t.Fatalf("StartSpan without scope returned %v, want nil", span)
	}
	if ctx2 != ctx {
		t.Fatal("StartSpan without scope should return ctx unchanged")
	}
	// Every method must be a no-op on nil.
	span.SetAttrs(String("k", "v"))
	span.SetCycles(1, 2)
	span.Fail(errors.New("x"))
	span.EndErr(errors.New("y"))
	span.End()
	if span.ID() != 0 {
		t.Fatal("nil span ID should be 0")
	}
	if ScopeFrom(ctx) != nil || SpanFrom(ctx) != nil || HubFrom(ctx) != nil || ObserverFrom(ctx) != nil {
		t.Fatal("empty context should yield nil scope/span/hub/observer")
	}
	CountEvents(ctx, 10) // must not panic
	var tr *Tracer
	if tr.ID() != 0 || tr.Snapshot() != nil {
		t.Fatal("nil tracer should be inert")
	}
}

func TestSpanHierarchyAndLanes(t *testing.T) {
	tr := NewTracerWithID(0xabc)
	ctx := NewContext(context.Background(), &Scope{Tracer: tr})

	ctx, job := StartSpan(ctx, "job")
	job.SetAttrs(String("id", "job-1"))

	cctx1, cell1 := StartLane(ctx, "cell")
	_, phase := StartSpan(cctx1, "machine.run")
	phase.SetCycles(0, 500)
	phase.End()
	cell1.End()

	_, cell2 := StartLane(ctx, "cell")
	cell2.EndErr(errors.New("boom"))
	job.End()

	snaps := tr.Snapshot()
	if len(snaps) != 4 {
		t.Fatalf("got %d spans, want 4", len(snaps))
	}
	byName := map[string][]SpanSnap{}
	for _, s := range snaps {
		if s.Trace != 0xabc {
			t.Fatalf("span %s trace %v, want 0xabc", s.Name, s.Trace)
		}
		byName[s.Name] = append(byName[s.Name], s)
	}
	j := byName["job"][0]
	if j.Parent != 0 {
		t.Fatalf("job parent %d, want 0 (root)", j.Parent)
	}
	if j.Lane != j.ID {
		t.Fatal("root span should own its lane")
	}
	c1, c2 := byName["cell"][0], byName["cell"][1]
	if c1.Parent != j.ID || c2.Parent != j.ID {
		t.Fatal("cells should be children of job")
	}
	if c1.Lane == j.Lane || c2.Lane == j.Lane || c1.Lane == c2.Lane {
		t.Fatalf("StartLane cells must each get fresh lanes: job=%d c1=%d c2=%d", j.Lane, c1.Lane, c2.Lane)
	}
	p := byName["machine.run"][0]
	if p.Parent != c1.ID {
		t.Fatal("phase should be child of first cell")
	}
	if p.Lane != c1.Lane {
		t.Fatal("StartSpan child should inherit parent's lane")
	}
	if !p.HasCycles || p.StartCycle != 0 || p.EndCycle != 500 {
		t.Fatalf("phase cycles = %d..%d (has=%v), want 0..500", p.StartCycle, p.EndCycle, p.HasCycles)
	}
	if c2.Err != "boom" {
		t.Fatalf("cell2 err %q, want boom", c2.Err)
	}
	for _, s := range []SpanSnap{j, c1, c2, p} {
		if s.End.IsZero() || s.EndSeq == 0 {
			t.Fatalf("span %s not ended", s.Name)
		}
		if s.End.Before(s.Start) {
			t.Fatalf("span %s ends before it starts", s.Name)
		}
	}
	// Seq ordering: ends happen after starts, parent job ends last.
	if !(j.StartSeq < c1.StartSeq && c1.StartSeq < p.StartSeq) {
		t.Fatal("start seq order broken")
	}
	if j.EndSeq < c2.EndSeq {
		t.Fatal("job should end after cell2")
	}
}

func TestSpanDoubleEndKeepsFirst(t *testing.T) {
	tr := NewTracerWithID(1)
	ctx := NewContext(context.Background(), &Scope{Tracer: tr})
	_, s := StartSpan(ctx, "x")
	s.End()
	first := tr.Snapshot()[0].End
	s.End()
	if got := tr.Snapshot()[0].End; !got.Equal(first) {
		t.Fatal("second End moved the end time")
	}
}

func TestTracerConcurrentSpans(t *testing.T) {
	tr := NewTracer()
	ctx := NewContext(context.Background(), &Scope{Tracer: tr})
	ctx, root := StartSpan(ctx, "root")
	var wg sync.WaitGroup
	for i := 0; i < 32; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			cctx, cell := StartLane(ctx, "cell")
			_, ph := StartSpan(cctx, "phase")
			ph.End()
			cell.End()
		}()
	}
	wg.Wait()
	root.End()
	snaps := tr.Snapshot()
	if len(snaps) != 65 {
		t.Fatalf("got %d spans, want 65", len(snaps))
	}
	ids := map[SpanID]bool{}
	for _, s := range snaps {
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d", s.ID)
		}
		ids[s.ID] = true
	}
}

func TestHubPubSubAndDrops(t *testing.T) {
	h := NewHub()
	// No subscribers: Publish must be cheap and harmless.
	h.Publish("progress", Progress{Grid: "e1"})

	sub := h.Subscribe(4)
	for i := 0; i < 3; i++ {
		h.Publish("cell", CellDone{Grid: "e1", Index: i})
	}
	msgs, dropped := sub.Take()
	if dropped != 0 || len(msgs) != 3 {
		t.Fatalf("got %d msgs %d dropped, want 3/0", len(msgs), dropped)
	}
	var cd CellDone
	if err := json.Unmarshal(msgs[2].Data, &cd); err != nil || cd.Index != 2 {
		t.Fatalf("bad payload %s: %v", msgs[2].Data, err)
	}
	if msgs[0].Type != "cell" {
		t.Fatalf("type %q, want cell", msgs[0].Type)
	}

	// Overflow: ring of 4, publish 10 → keep newest 4, drop 6.
	for i := 0; i < 10; i++ {
		h.Publish("cell", CellDone{Index: i})
	}
	msgs, dropped = sub.Take()
	if len(msgs) != 4 || dropped != 6 {
		t.Fatalf("got %d msgs %d dropped, want 4/6", len(msgs), dropped)
	}
	json.Unmarshal(msgs[0].Data, &cd)
	if cd.Index != 6 {
		t.Fatalf("oldest kept index %d, want 6 (drop-oldest)", cd.Index)
	}

	// Drop counter resets per Take.
	if _, d := sub.Take(); d != 0 {
		t.Fatalf("drops not reset: %d", d)
	}

	h.Unsubscribe(sub)
	h.Publish("cell", CellDone{Index: 99})
	if msgs, _ := sub.Take(); len(msgs) != 0 {
		t.Fatal("unsubscribed subscriber still receives")
	}

	// Nil hub is inert.
	var nh *Hub
	nh.CountEvents(5)
	nh.Publish("x", 1)
	if nh.EventsPerSec() != 0 || nh.Events() != 0 {
		t.Fatal("nil hub should be inert")
	}
}

func TestHubNotify(t *testing.T) {
	h := NewHub()
	sub := h.Subscribe(8)
	select {
	case <-sub.Notify():
		t.Fatal("notified before any publish")
	default:
	}
	h.Publish("progress", Progress{})
	select {
	case <-sub.Notify():
	default:
		t.Fatal("no notification after publish")
	}
}

func TestHubConcurrentPublishSubscribe(t *testing.T) {
	h := NewHub()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			sub := h.Subscribe(16)
			for j := 0; j < 50; j++ {
				h.Publish("cell", CellDone{Index: j})
				sub.Take()
			}
			h.Unsubscribe(sub)
		}()
	}
	wg.Wait()
}

// TestHubUnsubscribeDropsReference checks that an unsubscribed
// subscriber — and with it its ring — is no longer reachable from the
// hub, not even from the spare capacity of its subscriber list.
func TestHubUnsubscribeDropsReference(t *testing.T) {
	for _, victim := range []int{0, 1, 2} { // first, middle, last
		h := NewHub()
		subs := []*Subscriber{h.Subscribe(4), h.Subscribe(4), h.Subscribe(4)}
		h.Unsubscribe(subs[victim])
		if len(h.subs) != 2 {
			t.Fatalf("victim %d: %d subscribers left, want 2", victim, len(h.subs))
		}
		for i, s := range h.subs[:cap(h.subs)] {
			if s == subs[victim] {
				t.Fatalf("victim %d: removed subscriber still held at slot %d", victim, i)
			}
		}
		h.Unsubscribe(subs[victim]) // a second call is a no-op
		if len(h.subs) != 2 || h.nsubs.Load() != 2 {
			t.Fatalf("victim %d: repeat unsubscribe changed the hub: %d subs, nsubs %d",
				victim, len(h.subs), h.nsubs.Load())
		}
	}
	h := NewHub()
	s := h.Subscribe(4)
	h.Unsubscribe(s)
	for _, cur := range h.subs[:cap(h.subs)] {
		if cur == s {
			t.Fatal("sole subscriber still held after unsubscribe")
		}
	}
}

// TestHubPublishDuringUnsubscribe runs publishers against subscribers
// that come and go; under -race it checks that Publish's snapshot of
// the subscriber list is never written while it is being read, and a
// long-lived subscriber keeps receiving throughout.
func TestHubPublishDuringUnsubscribe(t *testing.T) {
	h := NewHub()
	stay := h.Subscribe(1 << 12)
	var pubs, churn sync.WaitGroup
	stop := make(chan struct{})
	for i := 0; i < 4; i++ {
		pubs.Add(1)
		go func() {
			defer pubs.Done()
			for j := 0; j < 200; j++ {
				h.Publish("cell", CellDone{Index: j})
			}
		}()
	}
	for i := 0; i < 4; i++ {
		churn.Add(1)
		go func() {
			defer churn.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				s := h.Subscribe(2)
				s.Take()
				h.Unsubscribe(s)
			}
		}()
	}
	pubs.Wait()
	close(stop)
	churn.Wait()
	if msgs, dropped := stay.Take(); uint64(len(msgs))+dropped != 800 {
		t.Fatalf("long-lived subscriber saw %d records + %d dropped, want 800", len(msgs), dropped)
	}
	if len(h.subs) != 1 || h.nsubs.Load() != 1 {
		t.Fatalf("%d subscribers left (nsubs %d), want 1", len(h.subs), h.nsubs.Load())
	}
}

func TestHubObsSink(t *testing.T) {
	h := NewHub()
	rec := obs.NewRecorder(h.ObsSink())
	sub := h.Subscribe(8)
	rec.Emit(obs.Event{Kind: obs.KindBitFlip, Cycle: 42, Bank: 1, Row: 7, Domain: -1, Arg: 3})
	msgs, _ := sub.Take()
	if len(msgs) != 1 || msgs[0].Type != "obs" {
		t.Fatalf("got %d msgs, want one obs record", len(msgs))
	}
	var r ObsRecord
	if err := json.Unmarshal(msgs[0].Data, &r); err != nil {
		t.Fatal(err)
	}
	if r.Kind != "bit-flip" || r.Cycle != 42 || r.Bank != 1 || r.Row != 7 || r.Arg != 3 || r.Domain != 0 {
		t.Fatalf("bad record %+v", r)
	}
}

func TestExportChromeNestedSpans(t *testing.T) {
	tr := NewTracerWithID(0xdeadbeef)
	ctx := NewContext(context.Background(), &Scope{Tracer: tr})
	ctx, job := StartSpan(ctx, "job")
	cctx, cell := StartLane(ctx, "cell")
	_, ph := StartSpan(cctx, "machine.run")
	ph.End()
	cell.End()
	_, open := StartLane(ctx, "inflight-cell")
	_ = open // deliberately left in flight
	job.End()

	var buf bytes.Buffer
	ct := obs.NewChromeTrace(&buf)
	ExportChrome(ct, tr.Snapshot())
	if err := ct.Flush(); err != nil {
		t.Fatal(err)
	}

	var doc struct {
		TraceEvents []struct {
			Name string            `json:"name"`
			Ph   string            `json:"ph"`
			Cat  string            `json:"cat"`
			ID   uint64            `json:"id"`
			Pid  int               `json:"pid"`
			Ts   float64           `json:"ts"`
			Args map[string]string `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("chrome trace is not valid JSON: %v\n%s", err, buf.String())
	}
	begins, ends := 0, 0
	open2 := map[uint64]int{}
	var jobTrace string
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "b" {
			begins++
			open2[ev.ID]++
			if ev.Pid != 3 || ev.Cat != "span" {
				t.Fatalf("span on pid %d cat %q", ev.Pid, ev.Cat)
			}
			if ev.Name == "job" {
				jobTrace = ev.Args["trace"]
			}
		}
		if ev.Ph == "e" {
			ends++
			if open2[ev.ID] <= 0 {
				t.Fatalf("end before begin for lane %d", ev.ID)
			}
			open2[ev.ID]--
		}
	}
	if begins != 4 || ends != 4 {
		t.Fatalf("got %d begins %d ends, want 4/4 (in-flight span closed at export)", begins, ends)
	}
	for id, n := range open2 {
		if n != 0 {
			t.Fatalf("lane %d left %d spans open", id, n)
		}
	}
	if jobTrace != TraceID(0xdeadbeef).String() {
		t.Fatalf("job trace arg %q, want %q", jobTrace, TraceID(0xdeadbeef).String())
	}
	// The in-flight span must be flagged.
	found := false
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "e" && ev.Name == "inflight-cell" && ev.Args["inflight"] == "true" {
			found = true
		}
	}
	if !found {
		t.Fatal("in-flight span not tagged inflight on its synthesized end")
	}
}

func TestExportJSONL(t *testing.T) {
	tr := NewTracerWithID(7)
	ctx := NewContext(context.Background(), &Scope{Tracer: tr})
	_, s := StartSpan(ctx, "run")
	s.SetAttrs(String("grid", "e1"), Int("cells", 12))
	s.SetCycles(100, 900)
	s.End()

	var buf bytes.Buffer
	j := obs.NewJSONL(&buf)
	ExportJSONL(j, tr.Snapshot())
	if err := j.Flush(); err != nil {
		t.Fatal(err)
	}
	var w map[string]any
	if err := json.Unmarshal(buf.Bytes(), &w); err != nil {
		t.Fatalf("span line is not valid JSON: %v\n%s", err, buf.String())
	}
	if w["type"] != "span" || w["name"] != "run" || w["trace"] != TraceID(7).String() {
		t.Fatalf("bad span line: %v", w)
	}
	attrs := w["attrs"].(map[string]any)
	if attrs["grid"] != "e1" || attrs["cells"] != "12" {
		t.Fatalf("bad attrs: %v", attrs)
	}
	if w["start_cycle"].(float64) != 100 || w["end_cycle"].(float64) != 900 {
		t.Fatalf("bad cycles: %v", w)
	}
	if _, ok := w["end"]; !ok {
		t.Fatal("ended span missing end")
	}
}

func TestWritePrometheus(t *testing.T) {
	var st sim.Stats
	st.Add("serve.jobs.submitted", 42)
	st.SetGauge("serve.sessions", 3)
	st.AddVec("dram.bank.acts", 0, 10)
	st.AddVec("dram.bank.acts", 2, 5)
	h := st.NewHistogram("serve.http.seconds;route=GET /metrics;code=200", sim.ExpBuckets(0.001, 10, 3))
	h.Observe(0.0005) // below first bound
	h.Observe(0.005)
	h.Observe(7) // above last bound (0.1)
	var buf bytes.Buffer
	if err := WritePrometheus(&buf, st.Snapshot()); err != nil {
		t.Fatal(err)
	}
	out := buf.String()
	for _, want := range []string{
		"# TYPE serve_jobs_submitted counter\nserve_jobs_submitted 42\n",
		"# TYPE serve_sessions gauge\nserve_sessions 3\n",
		`dram_bank_acts{idx="0"} 10`,
		`dram_bank_acts{idx="1"} 0`,
		`dram_bank_acts{idx="2"} 5`,
		"# TYPE serve_http_seconds histogram",
		`serve_http_seconds_bucket{route="GET /metrics",code="200",le="0.001"} 1`,
		`serve_http_seconds_bucket{route="GET /metrics",code="200",le="0.01"} 2`,
		`serve_http_seconds_bucket{route="GET /metrics",code="200",le="0.1"} 2`,
		`serve_http_seconds_bucket{route="GET /metrics",code="200",le="+Inf"} 3`,
		`serve_http_seconds_sum{route="GET /metrics",code="200"} 7.0055`,
		`serve_http_seconds_count{route="GET /metrics",code="200"} 3`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("exposition missing %q\n---\n%s", want, out)
		}
	}
	if err := checkExposition(out); err != nil {
		t.Fatalf("exposition does not parse: %v\n%s", err, out)
	}
}

func TestPromNameMangling(t *testing.T) {
	cases := []struct {
		in, name string
		nlabels  int
	}{
		{"plain", "plain", 0},
		{"dots.and-dashes", "dots_and_dashes", 0},
		{"a;k=v", "a", 1},
		{"serve.http.seconds;route=GET /v1/jobs", "serve_http_seconds", 1},
	}
	for _, c := range cases {
		name, labels := promName(c.in)
		if name != c.name || len(labels) != c.nlabels {
			t.Errorf("promName(%q) = %q/%d, want %q/%d", c.in, name, len(labels), c.name, c.nlabels)
		}
	}
	if escapeLabel(`a"b\c`+"\n") != `a\"b\\c\n` {
		t.Errorf("escapeLabel broken: %q", escapeLabel(`a"b\c`+"\n"))
	}
}

func TestParseTraceID(t *testing.T) {
	id := TraceID(0xdeadbeefcafe0123)
	got, ok := ParseTraceID(id.String())
	if !ok || got != id {
		t.Fatalf("ParseTraceID(%q) = %v/%v, want %v/true", id.String(), got, ok, id)
	}
	for _, bad := range []string{"", "xyz", "deadbeef", "00000000000000000", "g000000000000000"} {
		if _, ok := ParseTraceID(bad); ok {
			t.Errorf("ParseTraceID(%q) accepted", bad)
		}
	}
}

func TestImportRemote(t *testing.T) {
	// Worker side: a grid span with two cell lanes, one failed, one open.
	remote := NewTracerWithID(0x1111)
	rctx := NewContext(context.Background(), &Scope{Tracer: remote})
	rctx, grid := StartSpan(rctx, "grid:e1")
	grid.SetAttrs(String("mode", "worker"))
	cctx, cell := StartLane(rctx, "cell")
	_, ph := StartSpan(cctx, "machine.run")
	ph.SetCycles(10, 20)
	ph.End()
	cell.End()
	_, cell2 := StartLane(rctx, "cell")
	cell2.EndErr(errors.New("boom"))
	grid.End()

	// Coordinator side: a job span plus a dispatch span the import hangs
	// off of.
	local := NewTracerWithID(0x2222)
	lctx := NewContext(context.Background(), &Scope{Tracer: local})
	lctx, job := StartSpan(lctx, "job")
	_, disp := StartSpan(lctx, "dispatch")
	local.ImportRemote(disp.ID(), remote.Snapshot())
	disp.End()
	job.End()

	snaps := local.Snapshot()
	if len(snaps) != 6 {
		t.Fatalf("got %d spans, want 6 (2 local + 4 imported)", len(snaps))
	}
	byName := map[string][]SpanSnap{}
	ids := map[SpanID]bool{}
	for _, s := range snaps {
		if s.Trace != 0x2222 {
			t.Fatalf("imported span %s kept remote trace id %v", s.Name, s.Trace)
		}
		if ids[s.ID] {
			t.Fatalf("duplicate span id %d after import", s.ID)
		}
		ids[s.ID] = true
		byName[s.Name] = append(byName[s.Name], s)
	}
	g := byName["grid:e1"][0]
	if g.Parent != disp.ID() {
		t.Fatalf("remote root reparented to %d, want dispatch %d", g.Parent, disp.ID())
	}
	c1, c2 := byName["cell"][0], byName["cell"][1]
	if c1.Parent != g.ID || c2.Parent != g.ID {
		t.Fatal("imported cells should stay children of imported grid")
	}
	if c1.Lane == g.Lane || c1.Lane == c2.Lane {
		t.Fatal("imported lanes must stay distinct")
	}
	p := byName["machine.run"][0]
	if p.Parent != c1.ID || p.Lane != c1.Lane {
		t.Fatal("imported child should keep remapped parent and lane")
	}
	if !p.HasCycles || p.StartCycle != 10 || p.EndCycle != 20 {
		t.Fatalf("cycles lost: %d..%d has=%v", p.StartCycle, p.EndCycle, p.HasCycles)
	}
	if c2.Err != "boom" {
		t.Fatalf("imported error lost: %q", c2.Err)
	}
	if len(g.Attrs) != 1 || g.Attrs[0].Key != "mode" {
		t.Fatalf("imported attrs lost: %+v", g.Attrs)
	}
	// Imported spans nest as they did on the worker: each child opens
	// and closes inside its parent in seq order, which is the order the
	// Chrome export writes begin/end events in.
	for _, pc := range [][2]SpanSnap{{g, c1}, {g, c2}, {c1, p}} {
		parent, child := pc[0], pc[1]
		if !(parent.StartSeq < child.StartSeq && child.StartSeq < child.EndSeq && child.EndSeq < parent.EndSeq) {
			t.Fatalf("%s [%d,%d] does not nest inside %s [%d,%d]", child.Name, child.StartSeq, child.EndSeq,
				parent.Name, parent.StartSeq, parent.EndSeq)
		}
	}
	// Imported spans sequence after everything local at import time, and
	// the chrome exporter must still accept the merged snapshot.
	jb := byName["job"][0]
	if g.StartSeq <= jb.StartSeq {
		t.Fatal("imported span sequenced before local job start")
	}
	var buf bytes.Buffer
	ct := obs.NewChromeTrace(&buf)
	ExportChrome(ct, snaps)
	if err := ct.Flush(); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatalf("merged trace does not export: %s", buf.String())
	}
}

func TestImportRemoteEmptyAndNil(t *testing.T) {
	var nilTr *Tracer
	nilTr.ImportRemote(0, []SpanSnap{{ID: 1, Name: "x"}}) // must not panic
	tr := NewTracer()
	tr.ImportRemote(0, nil)
	if got := tr.Snapshot(); len(got) != 0 {
		t.Fatalf("empty import added %d spans", len(got))
	}
}

func BenchmarkTelemetryDisabled(b *testing.B) {
	ctx := context.Background()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_, span := StartSpan(ctx, "cell")
		span.SetCycles(0, 1)
		span.End()
		CountEvents(ctx, 100)
	}
}
