package serve

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"hammertime/internal/fault"
)

// TestChaosSoak hammers a chaos-armed pool with concurrent mixed
// submit/poll/cancel traffic from several clients and asserts the
// service invariants the daemon is built around: /healthz stays 200
// throughout, every accepted job reaches a terminal state, rejected
// submissions are typed (429/503, never a hang), injected panics never
// escape a session, and drain completes. The default run is short so
// `go test ./...` stays fast; HAMMERTIME_SOAK=60s (any Go duration)
// scales it up for CI.
func TestChaosSoak(t *testing.T) {
	dur := 2 * time.Second
	if v := os.Getenv("HAMMERTIME_SOAK"); v != "" {
		d, err := time.ParseDuration(v)
		if err != nil {
			t.Fatalf("bad HAMMERTIME_SOAK %q: %v", v, err)
		}
		dur = d
	} else if testing.Short() {
		t.Skip("short mode")
	}

	faults := fault.MustParse("serve.latency=5ms:0.4,serve.panic:0.15,serve.cancel:0.15").Arm("serve", 42)
	// The fake run mixes quick successes, slow jobs (cancellation bait)
	// and organic failures; chaos layers latency, panics and injected
	// cancellations on top.
	var seq atomic.Uint64
	m := NewManager(Config{
		Sessions: 3, QueueDepth: 6, RatePerSec: 200, Burst: 50,
		JobTimeout:        250 * time.Millisecond,
		TrustClientHeader: true,
		Faults:            faults,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			switch seq.Add(1) % 5 {
			case 0: // slow: cancelled by timeout, DELETE, or chaos
				select {
				case <-ctx.Done():
					return "", context.Cause(ctx)
				case <-time.After(time.Second):
					return "slow table\n", nil
				}
			case 1:
				return "", fmt.Errorf("soak: organic failure")
			default:
				select {
				case <-ctx.Done():
					return "", context.Cause(ctx)
				case <-time.After(time.Millisecond):
					return "table\n", nil
				}
			}
		},
	})
	srv := httptest.NewServer(NewHandler(m))
	defer srv.Close()

	stop := make(chan struct{})
	time.AfterFunc(dur, func() { close(stop) })
	var (
		wg        sync.WaitGroup
		submitted atomic.Int64
		shed      atomic.Int64
		badStatus atomic.Int64
	)

	// Submitting clients: each submits, sometimes cancels, polls status.
	for c := 0; c < 4; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			client := fmt.Sprintf("soak-%d", c)
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				req, _ := http.NewRequest("POST", srv.URL+"/v1/jobs",
					strings.NewReader(`{"experiment":"e1","horizon":1000}`))
				req.Header.Set("X-Hammertime-Client", client)
				resp, err := http.DefaultClient.Do(req)
				if err != nil {
					badStatus.Add(1)
					continue
				}
				var body map[string]any
				json.NewDecoder(resp.Body).Decode(&body)
				resp.Body.Close()
				switch resp.StatusCode {
				case http.StatusAccepted:
					submitted.Add(1)
					if id, _ := body["id"].(string); id != "" && i%3 == 0 {
						del, _ := http.NewRequest("DELETE", srv.URL+"/v1/jobs/"+id, nil)
						if resp, err := http.DefaultClient.Do(del); err == nil {
							resp.Body.Close()
						}
					}
				case http.StatusTooManyRequests, http.StatusServiceUnavailable:
					shed.Add(1)
					time.Sleep(2 * time.Millisecond)
				default:
					badStatus.Add(1)
				}
				time.Sleep(time.Millisecond)
			}
		}(c)
	}

	// Health prober: /healthz must stay 200 for the entire soak.
	healthFail := make(chan string, 1)
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, path := range []string{"/healthz", "/metrics", "/v1/jobs?max=5"} {
				resp, err := http.Get(srv.URL + path)
				if err != nil {
					select {
					case healthFail <- fmt.Sprintf("%s: %v", path, err):
					default:
					}
					return
				}
				resp.Body.Close()
				if resp.StatusCode != http.StatusOK {
					select {
					case healthFail <- fmt.Sprintf("%s: %d", path, resp.StatusCode):
					default:
					}
					return
				}
			}
			time.Sleep(5 * time.Millisecond)
		}
	}()

	wg.Wait()
	select {
	case msg := <-healthFail:
		t.Fatalf("health probe failed mid-soak: %s", msg)
	default:
	}
	if n := badStatus.Load(); n > 0 {
		t.Fatalf("%d requests got untyped failures", n)
	}
	if submitted.Load() == 0 {
		t.Fatal("soak accepted no jobs; nothing was exercised")
	}

	// Drain must complete: every accepted job reaches a terminal state.
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := m.Drain(ctx); err != nil {
		t.Fatalf("drain after soak: %v", err)
	}
	nonTerminal := 0
	for _, v := range m.Jobs(0) {
		if !v.State.Terminal() {
			nonTerminal++
		}
	}
	if nonTerminal > 0 {
		t.Fatalf("%d jobs stuck non-terminal after drain", nonTerminal)
	}
	t.Logf("soak %v: submitted=%d shed=%d jobs=%d",
		dur, submitted.Load(), shed.Load(), len(m.Jobs(0)))
}
