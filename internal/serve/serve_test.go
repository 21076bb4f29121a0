package serve

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hammertime/internal/fault"
	"hammertime/internal/sim"
)

// fakeRun builds a RunFunc that simulates `dur` of work, polling its
// context like a real harness run does.
func fakeRun(dur time.Duration) RunFunc {
	return func(ctx context.Context, req JobRequest) (string, error) {
		select {
		case <-ctx.Done():
			return "", context.Cause(ctx)
		case <-time.After(dur):
			return "table for " + req.Experiment + "\n", nil
		}
	}
}

func waitTerminal(t *testing.T, job *Job) JobView {
	t.Helper()
	select {
	case <-job.Done():
	case <-time.After(10 * time.Second):
		t.Fatalf("job %s never reached a terminal state (state %s)", job.ID, job.State())
	}
	return job.View()
}

func TestSubmitRunsJob(t *testing.T) {
	m := NewManager(Config{Sessions: 1, Run: fakeRun(5 * time.Millisecond)})
	defer m.Drain(context.Background())
	job, err := m.Submit("c1", JobRequest{Experiment: "e1", Horizon: 1000})
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, job)
	if v.State != StateDone {
		t.Fatalf("want done, got %s (%s)", v.State, v.Error)
	}
	table, ok := job.Result()
	if !ok || table != "table for e1\n" {
		t.Fatalf("bad result %q ok=%v", table, ok)
	}
	if v.Started == nil || v.Finished == nil {
		t.Fatalf("timestamps missing: %+v", v)
	}
}

func TestSubmitValidatesExperiment(t *testing.T) {
	m := NewManager(Config{Run: fakeRun(0)})
	defer m.Drain(context.Background())
	if _, err := m.Submit("c1", JobRequest{Experiment: "e99"}); err == nil {
		t.Fatal("unknown experiment must be rejected")
	}
}

func TestQueueFullSheds(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{})
	var once sync.Once
	m := NewManager(Config{
		Sessions: 1, QueueDepth: 2, RatePerSec: -1,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			once.Do(func() { close(started) })
			select {
			case <-block:
			case <-ctx.Done():
			}
			return "ok", nil
		},
	})
	defer func() { close(block); m.Drain(context.Background()) }()

	// One running (wait for the session to pick it up) + two queued fit;
	// the fourth must shed.
	if _, err := m.Submit("c1", JobRequest{Experiment: "e1"}); err != nil {
		t.Fatal(err)
	}
	<-started
	var last error
	accepted := 1
	for i := 0; i < 3; i++ {
		if _, err := m.Submit("c1", JobRequest{Experiment: "e1"}); err != nil {
			last = err
		} else {
			accepted++
		}
	}
	if accepted != 3 {
		t.Fatalf("want 3 accepted (1 running + 2 queued), got %d", accepted)
	}
	var over *OverloadError
	if !errors.As(last, &over) || over.Reason != "queue full" || over.RetryAfter <= 0 {
		t.Fatalf("want queue-full OverloadError with Retry-After, got %v", last)
	}
}

func TestRateLimitPerClient(t *testing.T) {
	m := NewManager(Config{
		Sessions: 1, QueueDepth: 100, RatePerSec: 1, Burst: 2,
		Run: fakeRun(0),
	})
	defer m.Drain(context.Background())
	for i := 0; i < 2; i++ {
		if _, err := m.Submit("greedy", JobRequest{Experiment: "e1"}); err != nil {
			t.Fatalf("burst submission %d rejected: %v", i, err)
		}
	}
	_, err := m.Submit("greedy", JobRequest{Experiment: "e1"})
	var over *OverloadError
	if !errors.As(err, &over) || over.Reason != "client rate limit" {
		t.Fatalf("want rate-limit OverloadError, got %v", err)
	}
	// A different client has its own bucket.
	if _, err := m.Submit("patient", JobRequest{Experiment: "e1"}); err != nil {
		t.Fatalf("independent client throttled by another's bucket: %v", err)
	}
}

func TestCancelQueuedJob(t *testing.T) {
	block := make(chan struct{})
	m := NewManager(Config{
		Sessions: 1, QueueDepth: 4, RatePerSec: -1,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return "ok", nil
		},
	})
	defer func() { close(block); m.Drain(context.Background()) }()
	if _, err := m.Submit("c1", JobRequest{Experiment: "e1"}); err != nil {
		t.Fatal(err)
	}
	queued, err := m.Submit("c1", JobRequest{Experiment: "e2"})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, queued)
	if v.State != StateCancelled {
		t.Fatalf("want cancelled, got %s", v.State)
	}
}

func TestCancelRunningJobUnwinds(t *testing.T) {
	started := make(chan struct{})
	m := NewManager(Config{
		Sessions: 1, RatePerSec: -1,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			close(started)
			<-ctx.Done()
			return "", context.Cause(ctx)
		},
	})
	defer m.Drain(context.Background())
	job, err := m.Submit("c1", JobRequest{Experiment: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	<-started
	if _, err := m.Cancel(job.ID); err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, job)
	if v.State != StateCancelled {
		t.Fatalf("want cancelled, got %s (%s)", v.State, v.Error)
	}
	if !strings.Contains(v.Error, "cancelled by client") {
		t.Fatalf("cancellation cause lost: %q", v.Error)
	}
}

func TestJobTimeout(t *testing.T) {
	m := NewManager(Config{
		Sessions: 1, RatePerSec: -1, JobTimeout: 20 * time.Millisecond,
		Run: fakeRun(10 * time.Second),
	})
	defer m.Drain(context.Background())
	job, err := m.Submit("c1", JobRequest{Experiment: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, job)
	if v.State != StateCancelled {
		t.Fatalf("deadline must cancel the job, got %s (%s)", v.State, v.Error)
	}
}

func TestPanicIsolation(t *testing.T) {
	var calls atomic.Int64
	m := NewManager(Config{
		Sessions: 1, RatePerSec: -1,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			if calls.Add(1) == 1 {
				panic("simulator bug")
			}
			return "recovered", nil
		},
	})
	defer m.Drain(context.Background())
	crash, err := m.Submit("c1", JobRequest{Experiment: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitTerminal(t, crash); v.State != StateFailed || !strings.Contains(v.Error, "panic") {
		t.Fatalf("want failed-with-panic, got %s (%s)", v.State, v.Error)
	}
	// The session survived the panic and serves the next job.
	next, err := m.Submit("c1", JobRequest{Experiment: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	if v := waitTerminal(t, next); v.State != StateDone {
		t.Fatalf("session did not survive the panic: %s (%s)", v.State, v.Error)
	}
}

// TestInjectedFaultsOnMetrics: serve.panic and serve.cancel at p=1 fail
// and cancel jobs, and each injection counts on /metrics as
// fault.serve.<fault>.
func TestInjectedFaultsOnMetrics(t *testing.T) {
	for _, c := range []struct {
		spec  string
		state JobState
	}{
		{"serve.panic:1", StateFailed},
		{"serve.latency=1ms:1,serve.cancel:1", StateCancelled},
	} {
		m := NewManager(Config{
			Sessions: 1, RatePerSec: -1, Run: fakeRun(time.Second),
			Faults: fault.MustParse(c.spec).Arm("serve", 1),
		})
		job, err := m.Submit("c1", JobRequest{Experiment: "e1"})
		if err != nil {
			t.Fatal(err)
		}
		if v := waitTerminal(t, job); v.State != c.state {
			t.Errorf("%s: job %s (%s), want %s", c.spec, v.State, v.Error, c.state)
		}
		m.Drain(context.Background())
		counters := map[string]int64{}
		for _, cv := range m.Metrics().Counters {
			counters[cv.Name] = cv.Value
		}
		for _, f := range fault.MustParse(c.spec) {
			if got := counters["fault.serve."+f.Kind]; got != 1 {
				t.Errorf("%s: fault.serve.%s = %d, want 1", c.spec, f.Kind, got)
			}
		}
	}
}

func TestDrainFinishesAcceptedWork(t *testing.T) {
	m := NewManager(Config{Sessions: 1, RatePerSec: -1, Run: fakeRun(30 * time.Millisecond)})
	var jobs []*Job
	for i := 0; i < 3; i++ {
		job, err := m.Submit("c1", JobRequest{Experiment: "e1"})
		if err != nil {
			t.Fatal(err)
		}
		jobs = append(jobs, job)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	for _, job := range jobs {
		if v := job.View(); v.State != StateDone {
			t.Fatalf("accepted job %s not finished by drain: %s", job.ID, v.State)
		}
	}
	if _, err := m.Submit("c1", JobRequest{Experiment: "e1"}); !errors.Is(err, ErrDraining) {
		t.Fatalf("post-drain submit: want ErrDraining, got %v", err)
	}
	if m.Ready() {
		t.Fatal("draining manager must not report ready")
	}
}

func TestDrainDeadlineCancelsRunningJobs(t *testing.T) {
	m := NewManager(Config{Sessions: 1, RatePerSec: -1, Run: fakeRun(10 * time.Second)})
	job, err := m.Submit("c1", JobRequest{Experiment: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 50*time.Millisecond)
	defer cancel()
	if err := m.Drain(ctx); err == nil {
		t.Fatal("overrun drain must report that it cancelled jobs")
	}
	if v := job.View(); v.State != StateCancelled {
		t.Fatalf("drain overrun must cancel the running job, got %s", v.State)
	}
}

func TestLimiterRefills(t *testing.T) {
	l := newLimiter(10, 1)
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }
	if ok, _ := l.allow("c"); !ok {
		t.Fatal("first token must be granted")
	}
	ok, retry := l.allow("c")
	if ok || retry <= 0 {
		t.Fatalf("empty bucket must report a wait, got ok=%v retry=%v", ok, retry)
	}
	now = now.Add(200 * time.Millisecond) // 2 tokens at 10/s, capped at burst 1
	if ok, _ := l.allow("c"); !ok {
		t.Fatal("refilled token must be granted")
	}
}

// TestLimiterEvictsIdleBuckets pins the bucket map's bound: a client
// idle long enough to have refilled to a full burst is indistinguishable
// from one never seen, so its bucket must be deleted — without the
// sweep, every address ever to hit the daemon stayed resident forever.
func TestLimiterEvictsIdleBuckets(t *testing.T) {
	l := newLimiter(1, 5) // sweep cadence = one full refill = 5s
	now := time.Unix(0, 0)
	l.now = func() time.Time { return now }
	for i := 0; i < 50; i++ {
		l.allow(fmt.Sprintf("idle-%d", i))
	}
	l.mu.Lock()
	grown := len(l.buckets)
	l.mu.Unlock()
	if grown != 50 {
		t.Fatalf("bucket map holds %d clients, want 50", grown)
	}
	// A busy client drains its whole burst late enough that it is still
	// mid-refill when the sweep fires; it must survive the eviction.
	now = now.Add(4 * time.Second)
	for i := 0; i < 5; i++ {
		l.allow("busy")
	}
	now = now.Add(time.Second) // one full idle refill since the first allow
	l.allow("trigger")
	l.mu.Lock()
	n := len(l.buckets)
	_, busyKept := l.buckets["busy"]
	_, idleKept := l.buckets["idle-0"]
	l.mu.Unlock()
	if !busyKept {
		t.Fatal("mid-refill bucket evicted; its rate-limit state was lost")
	}
	if idleKept {
		t.Fatal("idle-refilled bucket retained; the map does not shrink")
	}
	if n != 2 {
		t.Fatalf("bucket map holds %d clients after sweep, want 2 (busy + trigger)", n)
	}
	// An evicted client starts over with a full bucket — same semantics
	// as if it had been retained and refilled.
	if ok, _ := l.allow("idle-0"); !ok {
		t.Fatal("evicted client denied its post-refill token")
	}
}

// --- HTTP surface ---

func newTestServer(t *testing.T, cfg Config) (*httptest.Server, *Manager) {
	t.Helper()
	m := NewManager(cfg)
	srv := httptest.NewServer(NewHandler(m))
	t.Cleanup(func() {
		srv.Close()
		ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		m.Drain(ctx)
	})
	return srv, m
}

func doJSON(t *testing.T, method, url, body string) (int, http.Header, map[string]any) {
	t.Helper()
	req, err := http.NewRequest(method, url, strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var decoded map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&decoded); err != nil {
		decoded = nil
	}
	return resp.StatusCode, resp.Header, decoded
}

func TestHTTPLifecycle(t *testing.T) {
	srv, _ := newTestServer(t, Config{Sessions: 1, RatePerSec: -1, Run: fakeRun(5 * time.Millisecond)})

	code, _, body := doJSON(t, "POST", srv.URL+"/v1/jobs", `{"experiment":"e3","horizon":1000}`)
	if code != http.StatusAccepted {
		t.Fatalf("submit: want 202, got %d (%v)", code, body)
	}
	id, _ := body["id"].(string)
	if id == "" {
		t.Fatalf("submit response missing id: %v", body)
	}

	deadline := time.Now().Add(10 * time.Second)
	for {
		code, _, body = doJSON(t, "GET", srv.URL+"/v1/jobs/"+id, "")
		if code != http.StatusOK {
			t.Fatalf("status: want 200, got %d", code)
		}
		if body["state"] == string(StateDone) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("job never finished: %v", body)
		}
		time.Sleep(5 * time.Millisecond)
	}

	resp, err := http.Get(srv.URL + "/v1/jobs/" + id + "/result")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	buf := new(strings.Builder)
	if _, err := fmt.Fprint(buf, resp); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("result: want 200, got %d", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	srv, _ := newTestServer(t, Config{Sessions: 1, RatePerSec: -1, Run: fakeRun(time.Millisecond)})

	if code, _, _ := doJSON(t, "POST", srv.URL+"/v1/jobs", `{"experiment":"nope"}`); code != http.StatusBadRequest {
		t.Fatalf("bad experiment: want 400, got %d", code)
	}
	if code, _, _ := doJSON(t, "POST", srv.URL+"/v1/jobs", `{bad json`); code != http.StatusBadRequest {
		t.Fatalf("bad body: want 400, got %d", code)
	}
	if code, _, _ := doJSON(t, "GET", srv.URL+"/v1/jobs/job-999", ""); code != http.StatusNotFound {
		t.Fatalf("unknown job: want 404, got %d", code)
	}
	if code, _, _ := doJSON(t, "DELETE", srv.URL+"/v1/jobs/job-999", ""); code != http.StatusNotFound {
		t.Fatalf("cancel unknown: want 404, got %d", code)
	}
}

func TestHTTPQueueFullIs429WithRetryAfter(t *testing.T) {
	block := make(chan struct{})
	srv, _ := newTestServer(t, Config{
		Sessions: 1, QueueDepth: 1, RatePerSec: -1,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return "ok", nil
		},
	})
	defer close(block)
	sawShed := false
	for i := 0; i < 4; i++ {
		code, hdr, _ := doJSON(t, "POST", srv.URL+"/v1/jobs", `{"experiment":"e1"}`)
		if code == http.StatusTooManyRequests {
			sawShed = true
			if hdr.Get("Retry-After") == "" {
				t.Fatal("429 must carry Retry-After")
			}
		}
	}
	if !sawShed {
		t.Fatal("full queue never shed with 429")
	}
}

func TestHTTPRateLimit429(t *testing.T) {
	srv, _ := newTestServer(t, Config{
		Sessions: 1, QueueDepth: 100, RatePerSec: 0.5, Burst: 1, Run: fakeRun(0),
		TrustClientHeader: true,
	})
	client := func() (int, http.Header) {
		req, _ := http.NewRequest("POST", srv.URL+"/v1/jobs", strings.NewReader(`{"experiment":"e1"}`))
		req.Header.Set("X-Hammertime-Client", "hog")
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}
	if code, _ := client(); code != http.StatusAccepted {
		t.Fatalf("first: want 202, got %d", code)
	}
	code, hdr := client()
	if code != http.StatusTooManyRequests || hdr.Get("Retry-After") == "" {
		t.Fatalf("second: want 429 + Retry-After, got %d %q", code, hdr.Get("Retry-After"))
	}
}

func TestHTTPHealthReadyMetrics(t *testing.T) {
	srv, m := newTestServer(t, Config{Sessions: 1, RatePerSec: -1, Run: fakeRun(time.Millisecond)})
	if code, _, _ := doJSON(t, "GET", srv.URL+"/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz: want 200, got %d", code)
	}
	if code, _, _ := doJSON(t, "GET", srv.URL+"/readyz", ""); code != http.StatusOK {
		t.Fatalf("readyz: want 200, got %d", code)
	}
	job, err := m.Submit("c1", JobRequest{Experiment: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	code, _, body := doJSON(t, "GET", srv.URL+"/metrics", "")
	if code != http.StatusOK {
		t.Fatalf("metrics: want 200, got %d", code)
	}
	counters, _ := body["counters"].([]any)
	found := false
	for _, c := range counters {
		if entry, ok := c.(map[string]any); ok && entry["name"] == "serve.jobs.submitted" {
			found = true
		}
	}
	if !found {
		t.Fatalf("metrics missing submit counter: %v", body)
	}

	// Draining flips readyz to 503 but healthz stays green.
	go m.Drain(context.Background())
	deadline := time.Now().Add(5 * time.Second)
	for {
		code, hdr, _ := doJSON(t, "GET", srv.URL+"/readyz", "")
		if code == http.StatusServiceUnavailable {
			if hdr.Get("Retry-After") == "" {
				t.Fatal("draining readyz must carry Retry-After")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("readyz never flipped to 503 during drain")
		}
		time.Sleep(time.Millisecond)
	}
	if code, _, _ := doJSON(t, "GET", srv.URL+"/healthz", ""); code != http.StatusOK {
		t.Fatalf("healthz during drain: want 200, got %d", code)
	}
	if code, _, _ := doJSON(t, "POST", srv.URL+"/v1/jobs", `{"experiment":"e1"}`); code != http.StatusServiceUnavailable {
		t.Fatalf("submit during drain: want 503, got %d", code)
	}
}

// TestClientHeaderGating pins the identity rules: the unauthenticated
// X-Hammertime-Client header is ignored unless the daemon was started
// with TrustClientHeader — otherwise any caller could mint a fresh
// rate-limit identity per request or spend another client's budget.
func TestClientHeaderGating(t *testing.T) {
	req := httptest.NewRequest("POST", "/v1/jobs", nil)
	req.RemoteAddr = "192.0.2.7:4444"
	req.Header.Set("X-Hammertime-Client", "spoofed")

	m := NewManager(Config{Sessions: 1, Run: fakeRun(0)})
	defer m.Drain(context.Background())
	if got := m.clientKey(req); got != "192.0.2.7" {
		t.Fatalf("untrusted header used as client key: %q", got)
	}

	trusted := NewManager(Config{Sessions: 1, Run: fakeRun(0), TrustClientHeader: true})
	defer trusted.Drain(context.Background())
	if got := trusted.clientKey(req); got != "spoofed" {
		t.Fatalf("trusted header ignored: %q", got)
	}
	req.Header.Del("X-Hammertime-Client")
	if got := trusted.clientKey(req); got != "192.0.2.7" {
		t.Fatalf("missing header must fall back to the remote host, got %q", got)
	}
}

// retryAfterSecs parses a Retry-After header, failing the test if it is
// missing or not a positive integer.
func retryAfterSecs(t *testing.T, hdr http.Header) int {
	t.Helper()
	v := hdr.Get("Retry-After")
	if v == "" {
		t.Fatal("shed response missing Retry-After")
	}
	secs, err := strconv.Atoi(v)
	if err != nil || secs < 1 {
		t.Fatalf("Retry-After %q is not a positive integer of seconds", v)
	}
	return secs
}

// TestHTTPShedRetryAfterDerived walks all three shed paths — 429 queue
// full, 429 over rate, 503 draining — and pins that each carries a
// positive Retry-After derived from measured state rather than a
// hardcoded constant (the draining value must track the drain deadline).
func TestHTTPShedRetryAfterDerived(t *testing.T) {
	block := make(chan struct{})
	started := make(chan struct{}, 1)
	srv, m := newTestServer(t, Config{
		Sessions: 1, QueueDepth: 2, RatePerSec: 0.001, Burst: 2,
		TrustClientHeader: true,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			select {
			case started <- struct{}{}:
			default:
			}
			select {
			case <-block:
			case <-ctx.Done():
			}
			return "ok", nil
		},
	})
	defer close(block)
	submit := func(client string) (int, http.Header) {
		req, _ := http.NewRequest("POST", srv.URL+"/v1/jobs", strings.NewReader(`{"experiment":"e1"}`))
		req.Header.Set("X-Hammertime-Client", client)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode, resp.Header
	}

	// Client "a" spends its burst of 2 while the queue still has room;
	// its third submission is over rate, and at 0.001/s the derived wait
	// is on the order of the refill time (~1000s), never the old
	// constant's scale of seconds. (The rate path must be probed while
	// the queue has room: queue-full is checked first and sheds without
	// consulting — or charging — the limiter. So job 1 must be running,
	// out of the queue, before the next two submissions.)
	if code, _ := submit("a"); code != http.StatusAccepted {
		t.Fatalf("first: want 202, got %d", code)
	}
	<-started
	if code, _ := submit("a"); code != http.StatusAccepted {
		t.Fatalf("second: want 202, got %d", code)
	}
	code, hdr := submit("a")
	if code != http.StatusTooManyRequests {
		t.Fatalf("over-rate: want 429, got %d", code)
	}
	if secs := retryAfterSecs(t, hdr); secs < 60 {
		t.Fatalf("over-rate Retry-After %ds does not reflect the 0.001/s refill", secs)
	}

	// A fresh client tops the queue off (one running + two queued); the
	// next fresh-client submission is shed for queue depth with a
	// positive derived Retry-After.
	if code, _ := submit("b"); code != http.StatusAccepted {
		t.Fatalf("third: want 202, got %d", code)
	}
	code, hdr = submit("c")
	if code != http.StatusTooManyRequests {
		t.Fatalf("queue full: want 429, got %d", code)
	}
	retryAfterSecs(t, hdr)

	// Drain with a deadline: the 503s' Retry-After must track the
	// deadline's remaining time, not a constant.
	ctx, cancel := context.WithTimeout(context.Background(), 2*time.Minute)
	defer cancel()
	go m.Drain(ctx)
	deadline := time.Now().Add(5 * time.Second)
	for m.Ready() {
		if time.Now().After(deadline) {
			t.Fatal("manager never started draining")
		}
		time.Sleep(time.Millisecond)
	}
	code, hdr = submit("d")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("draining submit: want 503, got %d", code)
	}
	if secs := retryAfterSecs(t, hdr); secs < 30 || secs > 121 {
		t.Fatalf("draining Retry-After %ds does not track the 2m drain deadline", secs)
	}
}

// TestMetricsExtraMerge pins the ExtraMetrics hook: contributed counters
// and gauges surface in the same snapshot as the serve metrics — the
// wiring the cluster dispatcher uses to expose cache and steal counters
// on /metrics.
func TestMetricsExtraMerge(t *testing.T) {
	m := NewManager(Config{
		Sessions: 1, RatePerSec: -1, Run: fakeRun(0),
		ExtraMetrics: func(st *sim.Stats) {
			st.Add("cluster.cache.hits", 7)
			st.SetGauge("cluster.workers.live", 2)
		},
	})
	defer m.Drain(context.Background())
	job, err := m.Submit("c1", JobRequest{Experiment: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)

	snap := m.Metrics()
	counters := map[string]int64{}
	for _, c := range snap.Counters {
		counters[c.Name] = c.Value
	}
	if counters["cluster.cache.hits"] != 7 {
		t.Fatalf("extra counter missing from snapshot: %v", snap.Counters)
	}
	if counters["serve.jobs.submitted"] != 1 {
		t.Fatalf("serve counters lost in merge: %v", snap.Counters)
	}
	var live float64 = -1
	for _, g := range snap.Gauges {
		if g.Name == "cluster.workers.live" {
			live = g.Value
		}
	}
	if live != 2 {
		t.Fatalf("extra gauge missing from snapshot: %v", snap.Gauges)
	}
	// The hook must contribute to fresh scratch state each call, not
	// accumulate across snapshots.
	snap = m.Metrics()
	for _, c := range snap.Counters {
		if c.Name == "cluster.cache.hits" && c.Value != 7 {
			t.Fatalf("extra counter accumulated across snapshots: %d", c.Value)
		}
	}
}

func TestDurationJSON(t *testing.T) {
	var req JobRequest
	if err := json.Unmarshal([]byte(`{"experiment":"e1","timeout":"30s"}`), &req); err != nil {
		t.Fatal(err)
	}
	if time.Duration(req.Timeout) != 30*time.Second {
		t.Fatalf("want 30s, got %v", time.Duration(req.Timeout))
	}
	b, err := json.Marshal(JobRequest{Experiment: "e1", Timeout: Duration(time.Minute)})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(b), `"1m0s"`) {
		t.Fatalf("duration must marshal as a string: %s", b)
	}
	if err := json.Unmarshal([]byte(`{"timeout":"never"}`), &req); err == nil {
		t.Fatal("bad duration must error")
	}
}

// TestDefaultRunnerDispatches runs the real harness dispatcher through
// the pool once (the smallest experiment at a small horizon), pinning
// the serve->harness->core wiring end to end.
func TestDefaultRunnerDispatches(t *testing.T) {
	if testing.Short() {
		t.Skip("real simulation")
	}
	m := NewManager(Config{Sessions: 1, RatePerSec: -1})
	defer m.Drain(context.Background())
	job, err := m.Submit("c1", JobRequest{Experiment: "e7"})
	if err != nil {
		t.Fatal(err)
	}
	v := waitTerminal(t, job)
	if v.State != StateDone {
		t.Fatalf("e7 via pool: %s (%s)", v.State, v.Error)
	}
	table, _ := job.Result()
	if !strings.Contains(table, "E7") {
		t.Fatalf("result is not the E7 table: %q", table)
	}
}

// TestParseChaos: the session pool's faults are the spec's serve.*
// clauses. They round-trip, arm a site that hands the session the
// latency and probabilities it acts on, and an empty spec arms nothing.
func TestParseChaos(t *testing.T) {
	const good = "serve.latency=20ms:0.5,serve.panic:0.1,serve.cancel:0.2"
	spec, err := fault.Parse(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Check("serve"); err != nil {
		t.Fatal(err)
	}
	if got := spec.String(); got != good {
		t.Fatalf("round trip: %q", got)
	}
	site := spec.Arm("serve", 1)
	lat, _ := site.Fault("latency")
	p, _ := site.Fault("panic")
	c, _ := site.Fault("cancel")
	if lat.Dur != 20*time.Millisecond || lat.P != 0.5 || p.P != 0.1 || c.P != 0.2 {
		t.Fatalf("bad parse: %+v", site.Faults())
	}
	if s, err := fault.Parse(""); err != nil || s.Arm("serve", 1) != nil {
		t.Fatalf("empty spec must arm no serve site, got %v %v", s, err)
	}
	if s := fault.MustParse("rpc.drop:0.1"); s.Arm("serve", 1) != nil || s.Check("serve") == nil {
		t.Fatal("an rpc clause must neither arm nor pass the serve site")
	}
	for _, bad := range []string{"serve.latency=20ms", "serve.panic:2", "serve.warp:0.1", "serve.latency=x:0.5"} {
		if _, err := fault.Parse(bad); err == nil {
			t.Fatalf("spec %q must be rejected", bad)
		}
	}
	var off *fault.Site
	for _, kind := range []string{"latency", "panic", "cancel"} {
		if _, fired := off.Roll(kind); fired {
			t.Fatalf("nil site fired %s", kind)
		}
	}
	if off.Faults().String() != "off" {
		t.Fatal("nil site renders off")
	}
}
