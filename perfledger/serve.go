package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"hammertime/internal/attack"
	"hammertime/internal/cluster"
	"hammertime/internal/cluster/resilience"
	"hammertime/internal/harness"
	"hammertime/internal/serve"
	"hammertime/internal/sim"
	"hammertime/internal/telemetry"
)

// The serve-jobs workload: an in-process hammerd coordinator (serve
// manager + cluster dispatcher with its result cache) and one in-process
// cluster worker, both on loopback. Two HTTP clients submit e1 jobs in a
// closed loop, in step, and wait for each on its SSE stream.

const (
	serveClients = 2
	experiment   = "e1"
)

// jobSpec is one submission.
type jobSpec struct {
	Horizon uint64
	// Hit marks a repeat of an earlier request, which the result cache
	// serves; Of is the position of the repeated job (-1: the warm-up).
	Hit bool
	Of  int
}

// serveInput is the generated job sequence. The clients submit it in
// pairs, position 2m and 2m+1 together.
type serveInput struct {
	Warm uint64 // horizon of the untimed warm-up job
	Jobs []jobSpec
}

// serveJobs generates n submissions (n even) from the seed. In every
// block of five pairs, two pairs repeat fresh jobs of earlier pairs (or
// the warm-up) and three carry horizons never submitted before, drawn
// from [lo, hi] in steps of 100 cycles.
func serveJobs(seed uint64, n int, lo, hi uint64) (serveInput, error) {
	rng := sim.NewRNG(seed)
	steps := (hi-lo)/100 + 1
	seen := make(map[uint64]bool)
	draw := func() (uint64, error) {
		if uint64(len(seen)) >= steps {
			return 0, fmt.Errorf("serve-jobs: horizon range [%d, %d] exhausted", lo, hi)
		}
		for {
			h := lo + 100*rng.Uint64n(steps)
			if !seen[h] {
				seen[h] = true
				return h, nil
			}
		}
	}
	var in serveInput
	var err error
	if in.Warm, err = draw(); err != nil {
		return in, err
	}
	var fresh []int // positions of fresh jobs in completed pairs
	for len(in.Jobs) < n {
		for _, slot := range rng.Perm(5) {
			pair := len(in.Jobs)
			for k := 0; k < serveClients; k++ {
				if slot < 2 {
					j := jobSpec{Horizon: in.Warm, Hit: true, Of: -1}
					if len(fresh) > 0 {
						j.Of = fresh[rng.Intn(len(fresh))]
						j.Horizon = in.Jobs[j.Of].Horizon
					}
					in.Jobs = append(in.Jobs, j)
					continue
				}
				h, err := draw()
				if err != nil {
					return in, err
				}
				in.Jobs = append(in.Jobs, jobSpec{Horizon: h, Of: -1})
			}
			for i := pair; i < len(in.Jobs); i++ {
				if !in.Jobs[i].Hit {
					fresh = append(fresh, i)
				}
			}
		}
	}
	in.Jobs = in.Jobs[:n]
	return in, nil
}

// stack is one coordinator plus worker, started fresh for each run.
type stack struct {
	mgr        *serve.Manager
	disp       *cluster.Dispatcher
	base       string
	rpc        *rpcTimes
	coord, wrk *http.Server
	served     sync.WaitGroup
	hbCancel   context.CancelFunc
	hbDone     chan struct{}
}

// startStack starts the worker and the coordinator with hammerd's
// defaults, except that rate limiting is off so it never sheds the loop.
// With traced set the dispatcher's RPCs go through the timing transport.
func startStack(traced bool) (*stack, error) {
	s := &stack{rpc: newRPCTimes(), hbDone: make(chan struct{})}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	cln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		wln.Close()
		return nil, err
	}
	node := &cluster.WorkerNode{Name: "perfledger-worker"}
	s.wrk = &http.Server{Handler: s.rpc.handler(node.Handler())}

	breaker := resilience.BreakerConfig{Threshold: 3, Cooldown: 10 * time.Second}
	cfg := cluster.DispatcherConfig{
		Cache:           cluster.NewResultCache(64 << 20),
		Registry:        cluster.NewRegistryConfig(cluster.RegistryConfig{TTL: 15 * time.Second, Breaker: breaker}),
		DispatchTimeout: 2 * time.Minute,
		BatchSize:       4,
		RPCRetries:      2,
		Breaker:         breaker,
		HedgeRounds:     2,
		AuditFraction:   0.05,
		AuditSeed:       1,
		QuarantineFor:   10 * time.Minute,
	}
	if traced {
		cfg.Client = &http.Client{Transport: s.rpc.transport(http.DefaultTransport)}
	}
	s.disp = cluster.NewDispatcher(cfg)
	s.mgr = serve.NewManager(serve.Config{
		Sessions:     2,
		QueueDepth:   8,
		RatePerSec:   -1,
		RetentionAge: 6 * time.Hour,
		RetentionMax: 4096,
		Run: func(ctx context.Context, req serve.JobRequest) (string, error) {
			opts := harness.AttackOpts{}
			if del := s.disp.ForJob(req.Experiment, req.Horizon, opts); del != nil {
				ctx = harness.WithGridDelegate(ctx, del)
			}
			tb, err := harness.Experiment(ctx, req.Experiment, req.Horizon, opts)
			if err != nil {
				return "", err
			}
			return tb.String(), nil
		},
		ExtraMetrics: s.disp.MergeInto,
	})
	mux := http.NewServeMux()
	s.disp.Mount(mux)
	mux.Handle("/", serve.NewHandler(s.mgr))
	s.coord = &http.Server{Handler: mux}
	s.base = "http://" + cln.Addr().String()
	for _, p := range []struct {
		srv *http.Server
		ln  net.Listener
	}{{s.wrk, wln}, {s.coord, cln}} {
		p := p
		s.served.Add(1)
		go func() {
			defer s.served.Done()
			_ = p.srv.Serve(p.ln) // returns ErrServerClosed on Shutdown
		}()
	}

	hbCtx, cancel := context.WithCancel(context.Background())
	s.hbCancel = cancel
	go func() {
		defer close(s.hbDone)
		cluster.Heartbeat(hbCtx, nil, s.base, node.Name, "http://"+wln.Addr().String(), 5*time.Second, nil)
	}()
	deadline := time.Now().Add(10 * time.Second)
	for len(s.disp.Registry().Live()) == 0 {
		if time.Now().After(deadline) {
			s.close()
			return nil, errors.New("serve-jobs: worker never registered")
		}
		time.Sleep(time.Millisecond)
	}
	return s, nil
}

// close drains the manager, stops the heartbeat and both servers, and
// waits for every goroutine it started.
func (s *stack) close() error {
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err := s.mgr.Drain(ctx)
	s.hbCancel()
	<-s.hbDone
	for _, srv := range []*http.Server{s.coord, s.wrk} {
		if serr := srv.Shutdown(ctx); serr != nil && err == nil {
			err = serr
		}
	}
	s.served.Wait()
	if cerr := s.disp.Cache().Close(); cerr != nil && err == nil {
		err = cerr
	}
	http.DefaultTransport.(*http.Transport).CloseIdleConnections()
	return err
}

// jobRecord is what one client saw of one job.
type jobRecord struct {
	spec     jobSpec
	shed     bool
	err      error
	table    string
	submitMS float64 // POST /v1/jobs
	jobMS    float64 // submit to terminal state on the SSE stream
	resultMS float64 // GET /v1/jobs/{id}/result
	queueMS  float64 // JobView: started - submitted
	runMS    float64 // JobView: finished - started
}

// client submits jobs over HTTP.
type client struct {
	http *http.Client
	base string
	tr   *tracer
}

func newClient(base string, tr *tracer) *client {
	return &client{http: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: serveClients}}, base: base, tr: tr}
}

// do submits one job, follows its SSE stream to the terminal state, and
// fetches its table.
func (c *client) do(ctx context.Context, spec jobSpec, req int) jobRecord {
	rec := jobRecord{spec: spec}
	root := c.tr.begin("job", 0, req)
	defer c.tr.end(root)
	start := time.Now()
	id := c.tr.begin("serve.submit", root, req)
	body := fmt.Sprintf(`{"experiment":%q,"horizon":%d}`, experiment, spec.Horizon)
	view, status, err := c.call(ctx, http.MethodPost, "/v1/jobs", strings.NewReader(body))
	c.tr.end(id)
	rec.submitMS = ms(time.Since(start))
	switch {
	case status == http.StatusTooManyRequests || status == http.StatusServiceUnavailable:
		rec.shed = true
		rec.err = fmt.Errorf("shed with status %d", status)
		return rec
	case err != nil:
		rec.err = err
		return rec
	}
	var jv serve.JobView
	if err := json.Unmarshal(view, &jv); err != nil {
		rec.err = fmt.Errorf("submit response: %w", err)
		return rec
	}

	id = c.tr.begin("serve.events", root, req)
	final, err := c.follow(ctx, jv.ID)
	c.tr.end(id)
	rec.jobMS = ms(time.Since(start))
	if err != nil {
		rec.err = err
		return rec
	}
	if final.Started != nil && final.Finished != nil {
		rec.queueMS = ms(final.Started.Sub(final.Submitted))
		rec.runMS = ms(final.Finished.Sub(*final.Started))
	}
	if final.State != serve.StateDone {
		rec.err = fmt.Errorf("job %s ended %s: %s", jv.ID, final.State, final.Error)
		return rec
	}
	t := time.Now()
	id = c.tr.begin("serve.result", root, req)
	table, _, err := c.call(ctx, http.MethodGet, "/v1/jobs/"+jv.ID+"/result", nil)
	c.tr.end(id)
	rec.resultMS = ms(time.Since(t))
	rec.table, rec.err = string(table), err
	return rec
}

// call performs one request and returns the body and status; a status
// other than 200 or 202 is an error.
func (c *client) call(ctx context.Context, method, path string, body io.Reader) ([]byte, int, error) {
	req, err := http.NewRequestWithContext(ctx, method, c.base+path, body)
	if err != nil {
		return nil, 0, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode != http.StatusOK && resp.StatusCode != http.StatusAccepted {
		return b, resp.StatusCode, fmt.Errorf("%s %s: status %d: %s", method, path, resp.StatusCode, bytes.TrimSpace(b))
	}
	return b, resp.StatusCode, nil
}

// follow reads the job's SSE stream until the server ends it and returns
// the last state event, which must be terminal.
func (c *client) follow(ctx context.Context, id string) (serve.JobView, error) {
	var last serve.JobView
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+"/v1/jobs/"+id+"/events", nil)
	if err != nil {
		return last, err
	}
	resp, err := c.http.Do(req)
	if err != nil {
		return last, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return last, fmt.Errorf("events %s: status %d", id, resp.StatusCode)
	}
	sc := bufio.NewScanner(resp.Body)
	sc.Buffer(make([]byte, 64<<10), 4<<20)
	event := ""
	for sc.Scan() {
		line := sc.Text()
		switch {
		case strings.HasPrefix(line, "event: "):
			event = strings.TrimPrefix(line, "event: ")
		case strings.HasPrefix(line, "data: ") && event == "state":
			if err := json.Unmarshal([]byte(strings.TrimPrefix(line, "data: ")), &last); err != nil {
				return last, fmt.Errorf("events %s: %w", id, err)
			}
		}
	}
	if err := sc.Err(); err != nil {
		return last, fmt.Errorf("events %s: %w", id, err)
	}
	if !last.State.Terminal() {
		return last, fmt.Errorf("events %s: stream ended in state %q", id, last.State)
	}
	return last, nil
}

// serveLoop runs the closed loop: the clients submit the sequence a pair
// at a time, each waiting for its job, and start the next pair when both
// are done, until dur has passed and the percentiles have enough
// samples. Running in step keeps the load pattern the same in every run,
// and every repeated job has finished before its repeat is submitted.
func serveLoop(ctx context.Context, s *stack, in serveInput, dur time.Duration, tr *tracer) ([]jobRecord, time.Duration, error) {
	clients := make([]*client, serveClients)
	for k := range clients {
		clients[k] = newClient(s.base, tr)
		defer clients[k].http.CloseIdleConnections()
	}
	needJobs, needHits := samplesFor(0.9), samplesFor(0.5)
	var recs []jobRecord
	hits := 0
	start := time.Now()
	for i := 0; i+serveClients <= len(in.Jobs); i += serveClients {
		if time.Since(start) >= dur && len(recs) >= needJobs && hits >= needHits {
			break
		}
		if err := ctx.Err(); err != nil {
			return recs, time.Since(start), err
		}
		pair := make([]jobRecord, serveClients)
		var wg sync.WaitGroup
		for k, c := range clients {
			wg.Add(1)
			go func(k int, c *client) {
				defer wg.Done()
				pair[k] = c.do(ctx, in.Jobs[i+k], i+k+1)
			}(k, c)
		}
		wg.Wait()
		for _, r := range pair {
			if r.spec.Hit {
				hits++
			}
		}
		recs = append(recs, pair...)
	}
	elapsed := time.Since(start)
	if len(recs) < needJobs {
		return recs, elapsed, fmt.Errorf("serve-jobs: %d jobs in %v, need %d", len(recs), elapsed, needJobs)
	}
	return recs, elapsed, nil
}

// warmUp runs the untimed warm-up job on a fresh stack.
func warmUp(ctx context.Context, s *stack, h uint64) error {
	c := newClient(s.base, nil)
	defer c.http.CloseIdleConnections()
	return c.do(ctx, jobSpec{Horizon: h, Of: -1}, 0).err
}

// serveRef is the locally computed truth for one horizon.
type serveRef struct {
	table  string
	events uint64
}

// serveReference computes each distinct horizon's e1 table in process,
// without the dispatcher, counting the simulated events it takes.
func serveReference(ctx context.Context, recs []jobRecord) (map[uint64]serveRef, error) {
	refs := make(map[uint64]serveRef)
	for _, r := range recs {
		h := r.spec.Horizon
		if _, ok := refs[h]; ok {
			continue
		}
		hub := telemetry.NewHub()
		tb, err := harness.Experiment(telemetry.NewContext(ctx, &telemetry.Scope{Hub: hub}), experiment, h, harness.AttackOpts{})
		if err != nil {
			return nil, fmt.Errorf("reference e1 at horizon %d: %w", h, err)
		}
		refs[h] = serveRef{table: tb.String(), events: hub.Events()}
	}
	return refs, nil
}

// checkServe counts failed jobs: shed, errored, not done, or a table that
// differs from the local reference. It also checks that the result cache
// served exactly the cells of the repeated jobs.
func checkServe(recs []jobRecord, refs map[uint64]serveRef, cacheHits int64) (int, []string) {
	failed := 0
	var why []string
	fail := func(format string, args ...any) {
		failed++
		if len(why) < 5 {
			why = append(why, fmt.Sprintf(format, args...))
		}
	}
	var hitJobs int64
	for i, r := range recs {
		switch {
		case r.err != nil:
			fail("job %d (horizon %d): %v", i, r.spec.Horizon, r.err)
		case r.table != refs[r.spec.Horizon].table:
			fail("job %d (horizon %d): table differs from harness.Experiment", i, r.spec.Horizon)
		case r.spec.Hit:
			hitJobs++
		}
	}
	cellsPerJob := int64(len(harness.E1Defenses) * len(attack.Catalog(manySided)))
	if want := hitJobs * cellsPerJob; cacheHits != want {
		fail("result cache served %d cells, the %d repeated jobs need %d", cacheHits, hitJobs, want)
	}
	return failed, why
}

// clusterCounters reads the dispatcher's counters through MergeInto.
func clusterCounters(s *stack) *sim.Stats {
	var st sim.Stats
	s.disp.MergeInto(&st)
	return &st
}
