package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"hammertime/internal/cliutil"
)

// TestRunRejectsBadChaosSpec pins the flag wiring: a malformed -faults
// spec, or one naming a fault site the process does not run, must fail
// startup, not silently disarm the injector.
func TestRunRejectsBadChaosSpec(t *testing.T) {
	for _, c := range []struct {
		spec        string
		coordinator bool
	}{
		{"serve.latency=nonsense:0.5", false},
		{"rpc.drop:0.1", false},    // rpc runs on a coordinator only
		{"worker.corrupt:1", true}, // worker runs on a worker only
		{"cell.error=e7", true},    // missing cell index
	} {
		err := run(nil, options{
			addr: "localhost:0", sessions: 1, queue: 1, rate: -1, burst: 1,
			drainTimeout: time.Second, coordinator: c.coordinator,
			faults: cliutil.FaultFlags{Spec: c.spec, Seed: 1},
		})
		if err == nil || !strings.Contains(err.Error(), "fault") {
			t.Errorf("-faults %q (coordinator=%v) accepted: %v", c.spec, c.coordinator, err)
		}
	}
	err := runWorker(nil, options{
		addr: "localhost:0", workerOf: "http://localhost:1", drainTimeout: time.Second,
		faults: cliutil.FaultFlags{Spec: "serve.panic:0.1", Seed: 1},
	})
	if err == nil || !strings.Contains(err.Error(), "fault") {
		t.Errorf("worker accepted a serve fault: %v", err)
	}
}

// TestCacheSpillLogCountsRecords pins the coordinator's startup log: a
// reopened spill reports the records it holds, not the (empty) memory
// LRU in front of it.
func TestCacheSpillLogCountsRecords(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	spill := `{"key":"a","result":1}` + "\n" + `{"key":"b","result":2}` + "\n" + `{"key":"c","result":3}` + "\n"
	if err := os.WriteFile(path, []byte(spill), 0o644); err != nil {
		t.Fatal(err)
	}
	var logs bytes.Buffer
	disp, err := buildDispatcher(slog.New(slog.NewTextHandler(&logs, nil)), options{cacheSpill: path}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer disp.Cache().Close()
	if !strings.Contains(logs.String(), "entries=3") {
		t.Fatalf("spill open log does not count the 3 spilled records:\n%s", logs.String())
	}
}

// syncBuf collects daemon stderr from the reader goroutine while the
// test reads it for assertions.
type syncBuf struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuf) add(line string) {
	b.mu.Lock()
	fmt.Fprintln(&b.buf, line)
	b.mu.Unlock()
}

func (b *syncBuf) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startDaemon builds and starts the real hammerd binary and returns its
// base URL (parsed from the startup banner) plus the running command.
func startDaemon(t *testing.T, stderr *syncBuf, extra ...string) (string, *exec.Cmd) {
	t.Helper()
	bin := filepath.Join(t.TempDir(), "hammerd")
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}
	args := append([]string{"-addr", "localhost:0"}, extra...)
	cmd := exec.Command(bin, args...)
	pr, pw := io.Pipe()
	cmd.Stderr = pw
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		cmd.Process.Kill()
		cmd.Wait()
		pw.Close()
	})

	// The banner is "hammerd: listening on http://HOST:PORT (...)"; it
	// carries the kernel-chosen port. It is not necessarily the first
	// stderr line (a -state-dir daemon logs its recovery first), so scan
	// for it. Keep draining stderr afterwards so the daemon never blocks
	// on a full pipe.
	lines := make(chan string, 1)
	go func() {
		sc := bufio.NewScanner(pr)
		found := false
		for sc.Scan() {
			line := sc.Text()
			stderr.add(line)
			if !found && strings.Contains(line, "listening on http://") {
				found = true
				lines <- line
			}
		}
		close(lines)
	}()
	select {
	case banner := <-lines:
		i := strings.Index(banner, "http://")
		if i < 0 {
			t.Fatalf("no URL in startup banner: %q", banner)
		}
		url := banner[i:]
		if j := strings.IndexByte(url, ' '); j >= 0 {
			url = url[:j]
		}
		return url, cmd
	case <-time.After(30 * time.Second):
		t.Fatal("daemon never printed its startup banner")
		return "", nil
	}
}

// TestDaemonServesAndDrainsOnSIGTERM is the end-to-end satellite test:
// the real binary comes up, serves /healthz and a submitted job (delayed
// by an injected serve.latency fault that /metrics counts), and a
// SIGTERM drains it to a zero exit.
func TestDaemonServesAndDrainsOnSIGTERM(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the real binary")
	}
	var stderr syncBuf
	url, cmd := startDaemon(t, &stderr, "-sessions", "1", "-rate", "-1", "-drain-timeout", "30s",
		"-faults", "serve.latency=1ms:1")
	if !strings.Contains(stderr.String(), "faults=serve.latency=1ms:1)") {
		t.Fatalf("startup banner does not show the armed faults:\n%s", stderr.String())
	}

	resp, err := http.Get(url + "/healthz")
	if err != nil {
		t.Fatalf("healthz: %v\nstderr:\n%s", err, stderr.String())
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz: %d", resp.StatusCode)
	}

	// Submit the cheapest real experiment and poll it to done — the
	// daemon runs actual simulations, not stubs.
	resp, err = http.Post(url+"/v1/jobs", "application/json",
		strings.NewReader(`{"experiment":"e7"}`))
	if err != nil {
		t.Fatal(err)
	}
	var view struct {
		ID    string `json:"id"`
		State string `json:"state"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || view.ID == "" {
		t.Fatalf("submit: %d %+v", resp.StatusCode, view)
	}
	deadline := time.Now().Add(60 * time.Second)
	for view.State != "done" {
		if time.Now().After(deadline) {
			t.Fatalf("job stuck in %q", view.State)
		}
		time.Sleep(50 * time.Millisecond)
		resp, err := http.Get(url + "/v1/jobs/" + view.ID)
		if err != nil {
			t.Fatal(err)
		}
		if err := json.NewDecoder(resp.Body).Decode(&view); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if view.State == "failed" || view.State == "cancelled" {
			t.Fatalf("job %s: %s\nstderr:\n%s", view.ID, view.State, stderr.String())
		}
	}
	resp, err = http.Get(url + "/v1/jobs/" + view.ID + "/result")
	if err != nil {
		t.Fatal(err)
	}
	table, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || !strings.Contains(string(table), "E7") {
		t.Fatalf("result: %d\n%s", resp.StatusCode, table)
	}
	resp, err = http.Get(url + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var metrics struct {
		Counters []struct {
			Name  string `json:"name"`
			Value int64  `json:"value"`
		} `json:"counters"`
	}
	err = json.NewDecoder(resp.Body).Decode(&metrics)
	resp.Body.Close()
	if err != nil {
		t.Fatal(err)
	}
	injected := int64(0)
	for _, c := range metrics.Counters {
		if c.Name == "fault.serve.latency" {
			injected = c.Value
		}
	}
	if injected != 1 {
		t.Fatalf("fault.serve.latency = %d on /metrics, want 1: %+v", injected, metrics.Counters)
	}

	// SIGTERM: graceful drain, exit 0.
	if err := cmd.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	waited := make(chan error, 1)
	go func() { waited <- cmd.Wait() }()
	select {
	case err := <-waited:
		if err != nil {
			t.Fatalf("SIGTERM'd daemon exited nonzero: %v\nstderr:\n%s", err, stderr.String())
		}
	case <-time.After(60 * time.Second):
		t.Fatalf("daemon never exited after SIGTERM\nstderr:\n%s", stderr.String())
	}
	if !strings.Contains(stderr.String(), "drained, exiting") {
		t.Fatalf("daemon exited without draining:\n%s", stderr.String())
	}
}
