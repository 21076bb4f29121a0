// Package resilience is the cluster's fault layer: the per-worker
// circuit breaker that replaces the old binary failure mark in the
// registry, plus the mechanisms of two fault sites of package fault —
// the rpc site's deterministic fault-injecting HTTP transport for
// chaos-soaking the coordinator ↔ worker RPC path, and the worker
// site's Byzantine wrapper that corrupts result bytes without tripping
// any transport- or key-level check (the fault only a byte audit
// catches).
//
// Everything here is reproducible on purpose. The transport draws every
// fault decision from the rpc site's seeded RNG in a fixed per-call
// order, so the fault schedule is a pure function of (seed, call index)
// — independent of goroutine interleaving, wall clock, or which host a
// call targets — and a failing chaos soak replays the identical
// schedule on the next run. The breaker is a pure state machine over
// injected timestamps.
package resilience

import (
	"bytes"
	"fmt"
	"io"
	"net/http"
	"strings"
	"sync"
	"time"

	"hammertime/internal/fault"
)

// FaultRecord is one injected fault in the transport's schedule log —
// the CI chaos job uploads these as the run's reproducibility artifact.
type FaultRecord struct {
	Call   uint64 `json:"call"`
	Host   string `json:"host"`
	Path   string `json:"path"`
	Fault  string `json:"fault"`
	Detail string `json:"detail,omitempty"`
}

// maxSchedule bounds the in-memory fault log; soaks inject far fewer.
const maxSchedule = 4096

// Transport is the deterministic fault-injecting http.RoundTripper of
// the rpc fault site. It wraps a base transport and, per call, draws a
// fixed sequence from the site's seeded RNG deciding whether to drop,
// delay, duplicate, truncate or corrupt the exchange, plus
// call-index-windowed latency spikes and host partitions. The site
// counts every injection (fault.rpc.*); the transport keeps a bounded
// fault schedule for artifacts.
type Transport struct {
	base http.RoundTripper
	site *fault.Site
	// p holds the drop, delay, dup, truncate and corrupt probabilities.
	p     [5]float64
	delay time.Duration

	mu       sync.Mutex
	schedule []FaultRecord
}

// NewTransport wraps base (nil = http.DefaultTransport) with the armed
// rpc site (fault.Spec.Arm("rpc", seed)), which must be non-nil.
func NewTransport(base http.RoundTripper, site *fault.Site) *Transport {
	if base == nil {
		base = http.DefaultTransport
	}
	t := &Transport{base: base, site: site}
	for i, kind := range [...]string{"drop", "delay", "dup", "truncate", "corrupt"} {
		f, _ := site.Fault(kind)
		t.p[i] = f.P
		if kind == "delay" {
			t.delay = f.Dur
		}
	}
	return t
}

// plan draws the call's fault decisions: five uniform rolls (drop,
// delay, dup, truncate, corrupt) and one salt per call, always, so the
// stream position (and therefore every later call's decisions) depends
// only on the seed and the call index.
func (t *Transport) plan() (call uint64, fire [5]bool, salt uint64) {
	call, rng := t.site.Draw(len(fire) + 1)
	for i := range fire {
		fire[i] = rng.Float64() < t.p[i]
	}
	return call, fire, rng.Uint64()
}

// record counts one injection of the kind and logs it under its
// schedule name (the JSONL artifact's "fault" field).
func (t *Transport) record(call uint64, req *http.Request, kind, logged, detail string) {
	t.site.Count(kind)
	t.mu.Lock()
	defer t.mu.Unlock()
	if len(t.schedule) < maxSchedule {
		t.schedule = append(t.schedule, FaultRecord{
			Call: call, Host: req.URL.Host, Path: req.URL.Path, Fault: logged, Detail: detail,
		})
	}
}

// RoundTrip injects the call's planned faults around the base transport.
func (t *Transport) RoundTrip(req *http.Request) (*http.Response, error) {
	call, fire, salt := t.plan()
	drop, delay, dup, trunc, corrupt := fire[0], fire[1], fire[2], fire[3], fire[4]

	windows := t.site.Faults()
	for _, f := range windows {
		if f.Kind == "partition" && call >= f.From && call < f.To && strings.Contains(req.URL.Host, f.Arg) {
			t.record(call, req, "partition", "partitioned", f.Arg)
			return nil, fmt.Errorf("resilience: injected partition: %s unreachable (call %d)", req.URL.Host, call)
		}
	}
	if drop {
		t.record(call, req, "drop", "dropped", "")
		return nil, fmt.Errorf("resilience: injected drop (call %d)", call)
	}
	if delay && t.delay > 0 {
		t.record(call, req, "delay", "delayed", t.delay.String())
		sleepCtx(req, t.delay)
	}
	for _, f := range windows {
		if f.Kind == "spike" && call >= f.From && call < f.To {
			t.record(call, req, "spike", "spiked", f.Dur.String())
			sleepCtx(req, f.Dur)
		}
	}
	if dup && req.GetBody != nil {
		// Deliver the request once ahead of the real exchange: the server
		// sees it twice, and only idempotent handlers survive the soak.
		if dupBody, err := req.GetBody(); err == nil {
			dupReq := req.Clone(req.Context())
			dupReq.Body = dupBody
			if resp, err := t.base.RoundTrip(dupReq); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
			t.record(call, req, "dup", "duplicated", "")
		}
	}

	resp, err := t.base.RoundTrip(req)
	if err != nil {
		return nil, err
	}
	if !trunc && !corrupt {
		return resp, nil
	}
	body, rerr := io.ReadAll(resp.Body)
	resp.Body.Close()
	if rerr != nil {
		return nil, rerr
	}
	if trunc && len(body) > 1 {
		t.record(call, req, "truncate", "truncated", fmt.Sprintf("%d->%d bytes", len(body), len(body)/2))
		body = body[:len(body)/2]
		// ContentLength stays as the header claimed: the reader sees the
		// same unexpected EOF a mid-transfer connection loss produces.
	}
	if corrupt && len(body) > 0 {
		off := int(salt % uint64(len(body)))
		t.record(call, req, "corrupt", "corrupted", fmt.Sprintf("byte %d", off))
		body[off] ^= 0x20
	}
	resp.Body = io.NopCloser(bytes.NewReader(body))
	return resp, nil
}

// sleepCtx sleeps d or until the request's context ends.
func sleepCtx(req *http.Request, d time.Duration) {
	tm := time.NewTimer(d)
	defer tm.Stop()
	select {
	case <-tm.C:
	case <-req.Context().Done():
	}
}

// Schedule returns a copy of the injected-fault log (bounded at 4096
// records).
func (t *Transport) Schedule() []FaultRecord {
	t.mu.Lock()
	defer t.mu.Unlock()
	return append([]FaultRecord(nil), t.schedule...)
}

// WriteSchedule writes the fault log as JSONL — the chaos soak's
// reproducibility artifact.
func (t *Transport) WriteSchedule(w io.Writer) error {
	for _, rec := range t.Schedule() {
		if _, err := fmt.Fprintf(w, `{"call":%d,"host":%q,"path":%q,"fault":%q,"detail":%q}`+"\n",
			rec.Call, rec.Host, rec.Path, rec.Fault, rec.Detail); err != nil {
			return err
		}
	}
	return nil
}
