package main

import (
	"bytes"
	"encoding/json"
	"io"
	"net/http"
	"strconv"
	"sync"
	"time"

	"hammertime/internal/cluster"
	"hammertime/internal/core"
)

// span is one timed call into a layer, recorded by the benchmark around
// its own calls. Req groups the spans of one cell or job. An aggregate
// span (Count > 0) stands for Count disjoint calls whose durations sum
// to Dur, such as every Step of one agent during a run.
type span struct {
	ID, Parent, Req int
	Name            string
	Start, Dur      time.Duration
	Count           int64
}

// tracer keeps spans in memory. A nil *tracer records nothing, so the
// untraced paths pay one nil check per call.
type tracer struct {
	mu    sync.Mutex
	epoch time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span and returns its id (0 on a nil tracer).
func (t *tracer) begin(name string, parent, req int) int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name, Start: time.Since(t.epoch)})
	return len(t.spans)
}

// end closes the span opened by begin.
func (t *tracer) end(id int) {
	if t == nil || id == 0 {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	s := &t.spans[id-1]
	s.Dur = time.Since(t.epoch) - s.Start
}

// aggregate records an aggregate span under parent.
func (t *tracer) aggregate(name string, parent, req int, start time.Time, dur time.Duration, count int64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.epoch), Dur: dur, Count: count})
}

// total sums the durations of every span with the given name.
func (t *tracer) total(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d time.Duration
	for _, s := range t.spans {
		if s.Name == name {
			d += s.Dur
		}
	}
	return d
}

// timedAgent wraps a core.Agent and sums the host time of its Steps.
type timedAgent struct {
	inner core.Agent
	dur   time.Duration
	steps int64
}

func (a *timedAgent) Step(now uint64) (uint64, bool, error) {
	t := time.Now()
	next, ok, err := a.inner.Step(now)
	a.dur += time.Since(t)
	a.steps++
	return next, ok, err
}

func (a *timedAgent) Done() bool { return a.inner.Done() }

// rpcHeader pairs a coordinator-side RPC with its worker-side handling.
const rpcHeader = "X-Perfledger-Rpc"

// rpcTimes collects the client-side and worker-side time of each cell
// RPC, keyed by the id the timing transport stamps on the request.
type rpcTimes struct {
	mu     sync.Mutex
	next   int
	rpc    map[int]time.Duration
	worker map[int]time.Duration
	cells  []float64 // worker time per cell of each batch, ms
}

func newRPCTimes() *rpcTimes {
	return &rpcTimes{rpc: make(map[int]time.Duration), worker: make(map[int]time.Duration)}
}

// transport is the timing http.RoundTripper given to the dispatcher.
func (r *rpcTimes) transport(base http.RoundTripper) http.RoundTripper {
	return roundTripFunc(func(req *http.Request) (*http.Response, error) {
		r.mu.Lock()
		r.next++
		id := r.next
		r.mu.Unlock()
		req = req.Clone(req.Context())
		req.Header.Set(rpcHeader, strconv.Itoa(id))
		start := time.Now()
		resp, err := base.RoundTrip(req)
		if err != nil {
			return resp, err
		}
		// The RPC ends when the dispatcher has read the whole body.
		resp.Body = &timedBody{ReadCloser: resp.Body, done: func() {
			r.mu.Lock()
			r.rpc[id] = time.Since(start)
			r.mu.Unlock()
		}}
		return resp, nil
	})
}

// handler wraps the worker's handler, timing each cell batch it serves.
func (r *rpcTimes) handler(h http.Handler) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if req.URL.Path != "/v1/cells" {
			h.ServeHTTP(w, req)
			return
		}
		body, err := io.ReadAll(req.Body)
		if err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		var cr cluster.CellRequest
		_ = json.Unmarshal(body, &cr) // a bad body is the worker's to reject
		req.Body = io.NopCloser(bytes.NewReader(body))
		start := time.Now()
		h.ServeHTTP(w, req)
		d := time.Since(start)
		id, _ := strconv.Atoi(req.Header.Get(rpcHeader))
		r.mu.Lock()
		defer r.mu.Unlock()
		if id > 0 {
			r.worker[id] = d
		}
		if len(cr.Cells) > 0 {
			r.cells = append(r.cells, ms(d)/float64(len(cr.Cells)))
		}
	})
}

// rpcMS lists the RPC times in ms.
func (r *rpcTimes) rpcMS() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, 0, len(r.rpc))
	for _, d := range r.rpc {
		out = append(out, ms(d))
	}
	return out
}

// workerMS lists the worker handling times in ms.
func (r *rpcTimes) workerMS() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]float64, 0, len(r.worker))
	for _, d := range r.worker {
		out = append(out, ms(d))
	}
	return out
}

// wireMS lists, for each RPC seen on both sides, RPC time minus worker
// handling time in ms: encoding, loopback HTTP, and waiting for a CPU
// while the worker's other batches compute.
func (r *rpcTimes) wireMS() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []float64
	for id, d := range r.rpc {
		if w, ok := r.worker[id]; ok {
			out = append(out, ms(d-w))
		}
	}
	return out
}

// cellMS lists the worker time per cell of each batch in ms.
func (r *rpcTimes) cellMS() []float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]float64(nil), r.cells...)
}

type roundTripFunc func(*http.Request) (*http.Response, error)

func (f roundTripFunc) RoundTrip(r *http.Request) (*http.Response, error) { return f(r) }

// timedBody calls done once, when the body is first read to EOF or closed.
type timedBody struct {
	io.ReadCloser
	once sync.Once
	done func()
}

func (b *timedBody) Read(p []byte) (int, error) {
	n, err := b.ReadCloser.Read(p)
	if err == io.EOF {
		b.once.Do(b.done)
	}
	return n, err
}

func (b *timedBody) Close() error {
	b.once.Do(b.done)
	return b.ReadCloser.Close()
}
