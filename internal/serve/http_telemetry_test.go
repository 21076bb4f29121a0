package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hammertime/internal/harness"
	"hammertime/internal/telemetry"
)

// sseEvent is one parsed Server-Sent Event.
type sseEvent struct {
	Type string
	Data string
}

// readSSE parses an SSE stream until EOF.
func readSSE(t *testing.T, body *bufio.Scanner) []sseEvent {
	t.Helper()
	var events []sseEvent
	var typ string
	for body.Scan() {
		line := body.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			typ = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: "):
			events = append(events, sseEvent{Type: typ, Data: strings.TrimPrefix(line, "data: ")})
		}
	}
	if err := body.Err(); err != nil {
		t.Fatalf("reading SSE stream: %v", err)
	}
	return events
}

// TestTelemetryEndToEnd drives the full observability path against a
// real manager running a real harness experiment: submit a grid job,
// watch its SSE stream deliver progress and cell completions while it
// runs, then fetch the Chrome trace and verify the span tree nests
// job -> run -> grid -> cell under the trace id the submit response
// returned.
func TestTelemetryEndToEnd(t *testing.T) {
	// Gate the run on a channel so the SSE subscriber is guaranteed to
	// attach before the first cell completes.
	release := make(chan struct{})
	m := NewManager(Config{
		Sessions: 1,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			<-release
			tb, err := harness.Experiment(ctx, req.Experiment, req.Horizon, harness.AttackOpts{})
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		},
	})
	defer m.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"e1","horizon":200000}`))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit status %d", resp.StatusCode)
	}
	if view.TraceID == "" {
		t.Fatal("submit response carries no trace_id")
	}

	sse, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()
	if ct := sse.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("SSE content type %q", ct)
	}
	// Subscription is registered before the handler writes its response
	// headers, so once Get returns the stream cannot miss cell events.
	close(release)

	type done struct {
		events []sseEvent
	}
	ch := make(chan done, 1)
	go func() {
		sc := bufio.NewScanner(sse.Body)
		sc.Buffer(make([]byte, 0, 1<<16), 1<<20)
		ch <- done{events: readSSE(t, sc)}
	}()
	var events []sseEvent
	select {
	case d := <-ch:
		events = d.events
	case <-time.After(2 * time.Minute):
		t.Fatal("SSE stream did not terminate")
	}

	// The stream must deliver progress and cell completions before the
	// job's terminal state, and end on that terminal state.
	progressBefore, cellsBefore, terminal := 0, 0, false
	var lastState JobView
	for _, ev := range events {
		switch ev.Type {
		case "state":
			if err := json.Unmarshal([]byte(ev.Data), &lastState); err != nil {
				t.Fatalf("bad state event %q: %v", ev.Data, err)
			}
			terminal = terminal || lastState.State.Terminal()
		case "progress":
			if !terminal {
				progressBefore++
			}
			var p telemetry.Progress
			if err := json.Unmarshal([]byte(ev.Data), &p); err != nil {
				t.Fatalf("bad progress event %q: %v", ev.Data, err)
			}
			if p.Total == 0 {
				t.Fatalf("progress with zero total: %+v", p)
			}
		case "cell":
			if !terminal {
				cellsBefore++
			}
		}
	}
	if progressBefore == 0 || cellsBefore == 0 {
		t.Fatalf("got %d progress and %d cell events before completion, want >=1 of each (stream: %v)",
			progressBefore, cellsBefore, events)
	}
	if !terminal || lastState.State != StateDone {
		t.Fatalf("stream ended in state %q (terminal seen: %v), want done", lastState.State, terminal)
	}

	// The Chrome trace nests job -> run -> grid -> cell under the trace
	// id the submit response returned.
	tr, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/trace")
	if err != nil {
		t.Fatal(err)
	}
	defer tr.Body.Close()
	var trace struct {
		TraceEvents []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Pid  int            `json:"pid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.NewDecoder(tr.Body).Decode(&trace); err != nil {
		t.Fatalf("trace is not valid JSON: %v", err)
	}
	str := func(args map[string]any, key string) string {
		s, _ := args[key].(string)
		return s
	}
	names := map[string]string{}   // span id -> name
	parents := map[string]string{} // span id -> parent span id
	var cellSpans []string
	for _, ev := range trace.TraceEvents {
		if ev.Ph != "b" {
			continue
		}
		if got := str(ev.Args, "trace"); got != view.TraceID {
			t.Fatalf("span %q carries trace %q, want %q", ev.Name, got, view.TraceID)
		}
		id := str(ev.Args, "span")
		names[id] = ev.Name
		parents[id] = str(ev.Args, "parent")
		if ev.Name == "cell" {
			cellSpans = append(cellSpans, id)
		}
	}
	if len(cellSpans) == 0 {
		t.Fatalf("no cell spans in trace (%d begins)", len(names))
	}
	// Walk one cell up to the root; the chain must pass through the job
	// span.
	chain := []string{}
	for id := cellSpans[0]; id != ""; id = parents[id] {
		chain = append(chain, names[id])
		if len(chain) > 16 {
			t.Fatalf("span parent chain does not terminate: %v", chain)
		}
	}
	if chain[len(chain)-1] != "job" {
		t.Fatalf("cell span chain %v does not root at the job span", chain)
	}
	found := false
	for _, n := range chain {
		if strings.HasPrefix(n, "grid:") {
			found = true
		}
	}
	if !found {
		t.Fatalf("cell span chain %v skips the grid span", chain)
	}

	// JSONL form serves too.
	jl, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Body.Close()
	sc := bufio.NewScanner(jl.Body)
	lines := 0
	for sc.Scan() {
		var span struct {
			Type  string `json:"type"`
			Trace string `json:"trace"`
		}
		if err := json.Unmarshal(sc.Bytes(), &span); err != nil {
			t.Fatalf("bad JSONL span line %q: %v", sc.Text(), err)
		}
		if span.Type != "span" || span.Trace != view.TraceID {
			t.Fatalf("JSONL span line %q: wrong type or trace", sc.Text())
		}
		lines++
	}
	if lines != len(names) {
		t.Fatalf("JSONL has %d spans, Chrome trace has %d", lines, len(names))
	}
}

// TestMetricsNegotiationAndRouteInstrumentation checks that /metrics
// stays JSON by default, switches to Prometheus text exposition on
// Accept, and that the middleware feeds per-route histograms, request
// counters and access logs.
func TestMetricsNegotiationAndRouteInstrumentation(t *testing.T) {
	var logBuf bytes.Buffer
	m := NewManager(Config{
		Logger: slog.New(slog.NewTextHandler(&logBuf, nil)),
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			return "table", nil
		},
	})
	defer m.Drain(context.Background())
	h := NewHandler(m)

	// Default stays JSON (existing tooling depends on it).
	rr := httptest.NewRecorder()
	h.ServeHTTP(rr, httptest.NewRequest("GET", "/metrics", nil))
	if ct := rr.Header().Get("Content-Type"); !strings.Contains(ct, "application/json") {
		t.Fatalf("default /metrics content type %q", ct)
	}
	var js map[string]any
	if err := json.Unmarshal(rr.Body.Bytes(), &js); err != nil {
		t.Fatalf("default /metrics is not JSON: %v", err)
	}

	// Generate some route traffic, including a 404.
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/healthz", nil))
	h.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/jobs/nope", nil))

	req := httptest.NewRequest("GET", "/metrics", nil)
	req.Header.Set("Accept", "text/plain")
	rr = httptest.NewRecorder()
	h.ServeHTTP(rr, req)
	if ct := rr.Header().Get("Content-Type"); ct != telemetry.PromContentType {
		t.Fatalf("prom /metrics content type %q", ct)
	}
	body := rr.Body.String()
	for _, want := range []string{
		`serve_http_seconds_bucket{route="GET /healthz",le="+Inf"}`,
		`serve_http_requests{route="GET /healthz",code="200"}`,
		`serve_http_requests{route="GET /v1/jobs/{id}",code="404"}`,
		"serve_sessions",
		"# TYPE serve_http_seconds histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("prom exposition missing %q:\n%s", want, body)
		}
	}

	logs := logBuf.String()
	if !strings.Contains(logs, "route=/healthz") && !strings.Contains(logs, `route="GET /healthz"`) {
		t.Fatalf("access log missing /healthz route:\n%s", logs)
	}
	if !strings.Contains(logs, "status=404") {
		t.Fatalf("access log missing 404 line:\n%s", logs)
	}
}

// TestSSEKeepaliveAndCancel covers the stream's idle and teardown
// paths: a queued job's stream sends keepalive comments, and cancelling
// the job ends the stream with a terminal state event.
func TestSSEKeepaliveAndCancel(t *testing.T) {
	old := sseKeepalive
	sseKeepalive = 20 * time.Millisecond
	defer func() { sseKeepalive = old }()

	block := make(chan struct{})
	defer close(block)
	m := NewManager(Config{
		Sessions: 1,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return "", ctx.Err()
		},
	})
	defer m.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"e1"}`))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()

	sse, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer sse.Body.Close()

	raw := make(chan string, 1)
	go func() {
		var buf bytes.Buffer
		sc := bufio.NewScanner(sse.Body)
		for sc.Scan() {
			fmt.Fprintln(&buf, sc.Text())
		}
		raw <- buf.String()
	}()

	// Let at least one keepalive tick pass, then cancel the job.
	time.Sleep(80 * time.Millisecond)
	req, _ := http.NewRequest("DELETE", srv.URL+"/v1/jobs/"+view.ID, nil)
	if _, err := http.DefaultClient.Do(req); err != nil {
		t.Fatal(err)
	}

	var stream string
	select {
	case stream = <-raw:
	case <-time.After(10 * time.Second):
		t.Fatal("SSE stream did not end after cancel")
	}
	if !strings.Contains(stream, ": keepalive") {
		t.Fatalf("no keepalive comment in stream:\n%s", stream)
	}
	if !strings.Contains(stream, `"state":"cancelled"`) {
		t.Fatalf("stream missing terminal cancelled state:\n%s", stream)
	}
}

// TestTraceKeepsSpansImportedAfterTerminal covers a losing hedged batch:
// its RPC returns, and its worker spans are grafted into the job's trace,
// only after the job reached its terminal state and its trace was
// frozen. GET /v1/jobs/{id}/trace must still serve them, nested under
// their dispatch span, after the frozen spans.
func TestTraceKeepsSpansImportedAfterTerminal(t *testing.T) {
	type late struct {
		tracer *telemetry.Tracer
		disp   *telemetry.Span
	}
	started := make(chan late, 1)
	m := NewManager(Config{
		Sessions: 1,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			_, disp := telemetry.StartSpan(ctx, "dispatch:slow")
			started <- late{tracer: telemetry.ScopeFrom(ctx).Tracer, disp: disp}
			return "table", nil // the hedged copy won; this batch is still in flight
		},
	})
	defer m.Drain(context.Background())
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/jobs", "application/json", strings.NewReader(`{"experiment":"e7"}`))
	if err != nil {
		t.Fatal(err)
	}
	var view JobView
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	lt := <-started
	job, err := m.Get(view.ID)
	if err != nil {
		t.Fatal(err)
	}
	select {
	case <-job.done:
	case <-time.After(time.Minute):
		t.Fatal("job never reached a terminal state")
	}

	// The terminal transition froze job, queued and run; the open
	// dispatch span stayed live (freezing again changes nothing).
	if n, _ := lt.tracer.Freeze(); n != 3 {
		t.Fatalf("terminal job froze %d spans, want job, queued and run", n)
	}

	// The slow batch returns now, from another goroutine, as the
	// dispatcher's would.
	imported := make(chan struct{})
	go func() {
		defer close(imported)
		now := time.Now()
		lt.tracer.ImportRemote(lt.disp.ID(), []telemetry.SpanSnap{
			{ID: 1, Lane: 1, Name: "grid:e7", Start: now, End: now.Add(time.Millisecond), StartSeq: 1, EndSeq: 4},
			{ID: 2, Parent: 1, Lane: 2, Name: "cell", Start: now, End: now.Add(time.Millisecond), StartSeq: 2, EndSeq: 3},
		})
		lt.disp.End()
	}()
	<-imported

	jl, err := http.Get(srv.URL + "/v1/jobs/" + view.ID + "/trace?format=jsonl")
	if err != nil {
		t.Fatal(err)
	}
	defer jl.Body.Close()
	type wireSpan struct {
		Span   uint64 `json:"span"`
		Parent uint64 `json:"parent"`
		Name   string `json:"name"`
	}
	var spans []wireSpan
	sc := bufio.NewScanner(jl.Body)
	for sc.Scan() {
		var s wireSpan
		if err := json.Unmarshal(sc.Bytes(), &s); err != nil {
			t.Fatalf("bad JSONL span line %q: %v", sc.Text(), err)
		}
		spans = append(spans, s)
	}
	byID := map[uint64]wireSpan{}
	var cell wireSpan
	for _, s := range spans {
		byID[s.Span] = s
		if s.Name == "cell" {
			cell = s
		}
	}
	if len(spans) == 0 || spans[0].Name != "job" || cell.Name == "" {
		t.Fatalf("trace lacks the job or the late cell span: %+v", spans)
	}
	var chain []string
	for id := cell.Span; id != 0; id = byID[id].Parent {
		chain = append(chain, byID[id].Name)
		if len(chain) > 8 {
			t.Fatalf("parent chain does not terminate: %v", chain)
		}
	}
	want := []string{"cell", "grid:e7", "dispatch:slow", "run", "job"}
	if strings.Join(chain, ">") != strings.Join(want, ">") {
		t.Fatalf("late cell's parent chain %v, want %v", chain, want)
	}
}
