package resilience

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"hammertime/internal/fault"
	"hammertime/internal/sim"
)

// countingHandler echoes a fixed JSON body and counts hits.
type countingHandler struct {
	hits int
	body string
}

func (h *countingHandler) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	h.hits++
	io.Copy(io.Discard, r.Body)
	rw.Header().Set("Content-Type", "application/json")
	fmt.Fprint(rw, h.body)
}

// rpcSite arms the spec's rpc site.
func rpcSite(spec string, seed uint64) *fault.Site {
	return fault.MustParse(spec).Arm("rpc", seed)
}

// runSchedule drives n identical calls through a fresh transport with
// the given seed and returns the fault schedule.
func runSchedule(t *testing.T, spec string, seed uint64, n int) []FaultRecord {
	t.Helper()
	h := &countingHandler{body: `{"ok":true,"n":123456}`}
	srv := httptest.NewServer(h)
	defer srv.Close()
	site := rpcSite(spec, seed)
	client := &http.Client{Transport: NewTransport(nil, site)}
	for i := 0; i < n; i++ {
		resp, err := client.Post(srv.URL+"/v1/cells", "application/json", strings.NewReader(`{"x":1}`))
		if err != nil {
			continue // injected drop/partition
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
	}
	// The site numbers draws by call: the next one is the call count.
	if got, _ := site.Draw(0); got < uint64(n) {
		t.Fatalf("transport saw %d calls, want >= %d", got, n)
	}
	return client.Transport.(*Transport).Schedule()
}

func TestTransportScheduleDeterministic(t *testing.T) {
	spec := "rpc.drop:0.2,rpc.delay=1ms:0.3,rpc.dup:0.1,rpc.truncate:0.1,rpc.corrupt:0.1,rpc.spike=1ms@5-8"
	a := runSchedule(t, spec, 42, 40)
	b := runSchedule(t, spec, 42, 40)
	if len(a) == 0 {
		t.Fatal("no faults injected at these probabilities over 40 calls")
	}
	// The schedule is a pure function of (seed, call index): two runs
	// against different servers (different hosts/ports) agree on every
	// (call, fault) pair.
	if len(a) != len(b) {
		t.Fatalf("schedule lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i].Call != b[i].Call || a[i].Fault != b[i].Fault {
			t.Fatalf("schedule diverged at %d: %+v vs %+v", i, a[i], b[i])
		}
	}
	c := runSchedule(t, spec, 43, 40)
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i].Call != c[i].Call || a[i].Fault != c[i].Fault {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("different seeds produced the identical fault schedule")
	}
}

func TestTransportPartitionWindow(t *testing.T) {
	h := &countingHandler{body: `{}`}
	srv := httptest.NewServer(h)
	defer srv.Close()
	// The host carries a port: the window parses before any ':'.
	host := strings.TrimPrefix(srv.URL, "http://")
	site := rpcSite("rpc.partition="+host+"@2-4", 1)
	client := &http.Client{Transport: NewTransport(nil, site)}
	var failures []int
	for i := 0; i < 6; i++ {
		resp, err := client.Get(srv.URL + "/x")
		if err != nil {
			failures = append(failures, i)
			continue
		}
		resp.Body.Close()
	}
	if len(failures) != 2 || failures[0] != 2 || failures[1] != 3 {
		t.Fatalf("partition hit calls %v, want [2 3]", failures)
	}
	var st sim.Stats
	site.MergeInto(&st)
	if got := st.Counter("fault.rpc.partition"); got != 2 {
		t.Fatalf("fault.rpc.partition counter %d, want 2", got)
	}
}

func TestTransportDuplicateDelivers(t *testing.T) {
	h := &countingHandler{body: `{}`}
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := &http.Client{Transport: NewTransport(nil, rpcSite("rpc.dup:1", 1))}
	resp, err := client.Post(srv.URL+"/v1/cells", "application/json", strings.NewReader(`{"x":1}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if h.hits != 2 {
		t.Fatalf("server saw %d requests, want 2 (original + duplicate)", h.hits)
	}
}

func TestTransportTruncateBreaksDecode(t *testing.T) {
	h := &countingHandler{body: `{"payload":"` + strings.Repeat("x", 256) + `"}`}
	srv := httptest.NewServer(h)
	defer srv.Close()
	client := &http.Client{Transport: NewTransport(nil, rpcSite("rpc.truncate:1", 1))}
	resp, err := client.Get(srv.URL + "/x")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var v map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&v); err == nil {
		t.Fatal("truncated body decoded cleanly")
	}
}

func TestBreakerTransitions(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: 10 * time.Second})

	// Failures below the threshold keep it closed; a success resets.
	b.Failure(t0)
	b.Failure(t0)
	if got := b.State(t0); got != Closed {
		t.Fatalf("state %v after 2 failures, want closed", got)
	}
	b.Success(t0)
	b.Failure(t0)
	b.Failure(t0)
	if got := b.State(t0); got != Closed {
		t.Fatalf("success did not reset the failure streak: %v", got)
	}

	// The third consecutive failure opens it.
	b.Failure(t0)
	if got := b.State(t0); got != Open {
		t.Fatalf("state %v at threshold, want open", got)
	}
	if got := b.State(t0.Add(9 * time.Second)); got != Open {
		t.Fatalf("state %v inside cooldown, want open", got)
	}

	// Cooldown elapses: half-open; a probe failure re-opens from now.
	t1 := t0.Add(10 * time.Second)
	if got := b.State(t1); got != HalfOpen {
		t.Fatalf("state %v after cooldown, want half-open", got)
	}
	b.Failure(t1)
	if got := b.State(t1.Add(9 * time.Second)); got != Open {
		t.Fatalf("state %v after failed probe, want open (cooldown restarted)", got)
	}

	// Second probe succeeds: closed, streak cleared.
	t2 := t1.Add(10 * time.Second)
	if got := b.State(t2); got != HalfOpen {
		t.Fatalf("state %v, want half-open again", got)
	}
	b.Success(t2)
	if got := b.State(t2); got != Closed {
		t.Fatalf("state %v after probe success, want closed", got)
	}
	b.Failure(t2)
	b.Failure(t2)
	if got := b.State(t2); got != Closed {
		t.Fatalf("failure streak not reset by probe success: %v", got)
	}
}

func TestBreakerForceOpen(t *testing.T) {
	t0 := time.Unix(1000, 0)
	b := NewBreaker(BreakerConfig{Threshold: 3, Cooldown: 10 * time.Second})
	reopen := t0.Add(5 * time.Minute)
	b.ForceOpen(reopen)
	if got := b.State(t0); got != Open {
		t.Fatalf("state %v after ForceOpen, want open", got)
	}
	if got := b.State(reopen.Add(-time.Second)); got != Open {
		t.Fatalf("state %v just before reopenAt, want open", got)
	}
	if got := b.State(reopen); got != HalfOpen {
		t.Fatalf("state %v at reopenAt, want half-open probe", got)
	}
}

func TestCorruptCellResultsKeepsShape(t *testing.T) {
	inner := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
		rw.Header().Set("Content-Type", "application/json")
		fmt.Fprint(rw, `{"worker":"w","config":"c","cells":[{"index":0,"key":"k0","result":{"v":111}},{"index":1,"key":"k1","result":{"v":222}}]}`)
	})
	srv := httptest.NewServer(CorruptCellResults(inner, fault.MustParse("worker.corrupt:1").Arm("worker", 7)))
	defer srv.Close()

	resp, err := http.Post(srv.URL+"/v1/cells", "application/json", strings.NewReader(`{}`))
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	var out struct {
		Worker string `json:"worker"`
		Config string `json:"config"`
		Cells  []struct {
			Index  int             `json:"index"`
			Key    string          `json:"key"`
			Result json.RawMessage `json:"result"`
		} `json:"cells"`
	}
	// The corruption must keep the response decodable with keys intact —
	// that is the whole point: only a byte audit can catch it.
	if err := json.Unmarshal(body, &out); err != nil {
		t.Fatalf("corrupted response no longer decodes: %v\n%s", err, body)
	}
	if out.Worker != "w" || out.Config != "c" || len(out.Cells) != 2 ||
		out.Cells[0].Key != "k0" || out.Cells[1].Key != "k1" {
		t.Fatalf("corruption damaged the envelope: %s", body)
	}
	if bytes.Contains(out.Cells[0].Result, []byte("111")) && bytes.Contains(out.Cells[1].Result, []byte("222")) {
		t.Fatalf("p=1 corruption left every result untouched: %s", body)
	}

	// Non-cell paths pass through untouched.
	resp2, err := http.Get(srv.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	resp2.Body.Close()
}

// TestParseSpecRoundTripAndErrors: the transport's faults are the spec's
// rpc.* clauses. They round-trip, the transport takes its probabilities
// and delay from the armed site, an empty spec arms nothing, and every
// malformed rpc clause is rejected.
func TestParseSpecRoundTripAndErrors(t *testing.T) {
	good := "rpc.drop:0.1,rpc.delay=20ms:0.3,rpc.dup:0.05,rpc.truncate:0.05,rpc.corrupt:0.05,rpc.spike=80ms@10-30,rpc.partition=w2@40-60"
	spec, err := fault.Parse(good)
	if err != nil {
		t.Fatal(err)
	}
	if err := spec.Check("rpc"); err != nil {
		t.Fatal(err)
	}
	if spec.String() != good {
		t.Fatalf("round trip: %q -> %q", good, spec.String())
	}
	site := spec.Arm("rpc", 1)
	if got := site.Faults().String(); got != good {
		t.Fatalf("armed rpc site holds %q, want %q", got, good)
	}
	tr := NewTransport(nil, site)
	if tr.p != [5]float64{0.1, 0.3, 0.05, 0.05, 0.05} || tr.delay != 20*time.Millisecond {
		t.Fatalf("transport p=%v delay=%v", tr.p, tr.delay)
	}
	if s, err := fault.Parse(""); err != nil || s.Arm("rpc", 1) != nil {
		t.Fatalf("empty spec: %v %v", s, err)
	}
	for _, bad := range []string{
		"rpc.drop:2",           // probability out of range
		"rpc.drop",             // missing probability
		"rpc.warp:0.5",         // unknown fault
		"rpc.delay=xx:0.5",     // bad duration
		"rpc.spike=80ms",       // missing window
		"rpc.spike=80ms@9-3",   // inverted window
		"rpc.spike=0s@1-2",     // spike of no duration
		"rpc.partition=@10-20", // empty host
		"rpc.partition=w2@a-b", // non-numeric window
	} {
		if _, err := fault.Parse(bad); err == nil {
			t.Errorf("Parse(%q) accepted", bad)
		}
	}
}
