package serve

import (
	"crypto/sha256"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"hammertime/internal/cluster/resilience"
	"hammertime/internal/fault"
)

// faultDigest is the first 16 hex digits of the SHA-256 of s.
func faultDigest(s string) string {
	return fmt.Sprintf("%x", sha256.Sum256([]byte(s)))[:16]
}

// fixedBody is an in-memory RoundTripper: every call returns the same
// JSON body, so a transport's fault schedule depends on nothing but its
// spec, its seed and the call index.
type fixedBody struct{}

func (fixedBody) RoundTrip(req *http.Request) (*http.Response, error) {
	if req.Body != nil {
		io.Copy(io.Discard, req.Body)
		req.Body.Close()
	}
	return &http.Response{
		StatusCode: http.StatusOK,
		Header:     http.Header{"Content-Type": {"application/json"}},
		Body:       io.NopCloser(strings.NewReader(`{"ok":true,"n":123456}`)),
		Request:    req,
	}, nil
}

// TestFaultSchedulesPinned pins, across changes, the fault schedules
// that a seed produces at three injection sites: the RPC transport's
// (call, fault, detail) log, the session pool's roll sequence, and the
// cells a corrupting worker rewrites. TestTransportScheduleDeterministic
// compares two runs of one build; this test compares builds.
func TestFaultSchedulesPinned(t *testing.T) {
	t.Run("rpc", func(t *testing.T) {
		spec := fault.MustParse("rpc.drop:0.2,rpc.delay=1ms:0.3,rpc.dup:0.1,rpc.truncate:0.1,rpc.corrupt:0.1,rpc.spike=1ms@5-8,rpc.partition=w2:9090@30-34")
		tr := resilience.NewTransport(fixedBody{}, spec.Arm("rpc", 42))
		for i := 0; i < 64; i++ {
			req, err := http.NewRequest(http.MethodPost, "http://w2:9090/v1/cells", strings.NewReader(`{"x":1}`))
			if err != nil {
				t.Fatal(err)
			}
			if resp, err := tr.RoundTrip(req); err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
			}
		}
		var b strings.Builder
		for _, r := range tr.Schedule() {
			fmt.Fprintf(&b, "%d %s %s\n", r.Call, r.Fault, r.Detail)
		}
		if got, want := faultDigest(b.String()), "1877cc27db877e39"; got != want {
			t.Errorf("rpc schedule digest %s, want %s:\n%s", got, want, b.String())
		}
	})

	t.Run("serve", func(t *testing.T) {
		site := fault.MustParse("serve.latency=5ms:0.4,serve.panic:0.15,serve.cancel:0.15").Arm("serve", 42)
		roll := func(kind string) bool { _, fired := site.Roll(kind); return fired }
		// One job's rolls, in the pool's order: latency, cancel, panic.
		var b strings.Builder
		for i := 0; i < 200; i++ {
			for _, fired := range []bool{roll("latency"), roll("cancel"), roll("panic")} {
				if fired {
					b.WriteByte('1')
				} else {
					b.WriteByte('0')
				}
			}
		}
		if got, want := faultDigest(b.String()), "3973317e3066cf47"; got != want {
			t.Errorf("serve roll digest %s, want %s:\n%s", got, want, b.String())
		}
	})

	t.Run("worker", func(t *testing.T) {
		var cells []string
		for i := 0; i < 16; i++ {
			cells = append(cells, fmt.Sprintf(`{"index":%d,"key":"k%d","result":{"v":%d}}`, i, i, 100+i))
		}
		body := `{"worker":"w","config":"c","cells":[` + strings.Join(cells, ",") + `]}`
		inner := http.HandlerFunc(func(rw http.ResponseWriter, r *http.Request) {
			rw.Header().Set("Content-Type", "application/json")
			io.WriteString(rw, body)
		})
		h := resilience.CorruptCellResults(inner, fault.MustParse("worker.corrupt:0.3").Arm("worker", 1))
		var b strings.Builder
		for i := 0; i < 4; i++ {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, "/v1/cells", strings.NewReader(`{}`)))
			b.WriteString(rec.Body.String())
			b.WriteByte('\n')
		}
		if got, want := faultDigest(b.String()), "32b4db4137b3e721"; got != want {
			t.Errorf("worker corruption digest %s, want %s:\n%s", got, want, b.String())
		}
	})
}
