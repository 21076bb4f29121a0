package main

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"hammertime/internal/trace"
)

func TestGenThenStats(t *testing.T) {
	dir := t.TempDir()
	out := filepath.Join(dir, "trace.jsonl")
	if err := genCmd([]string{"-workload", "zipf", "-count", "5000", "-lines", "4096", "-out", out}); err != nil {
		t.Fatal(err)
	}
	f, err := os.Open(out)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	events, err := trace.Read(f)
	if err != nil {
		t.Fatal(err)
	}
	if len(events) != 5000 {
		t.Fatalf("events = %d", len(events))
	}

	// stats path (stdout silenced).
	old := os.Stdout
	devnull, err := os.OpenFile(os.DevNull, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	os.Stdout = devnull
	defer func() {
		os.Stdout = old
		devnull.Close()
	}()
	if err := statsCmd([]string{"-in", out, "-top", "3"}); err != nil {
		t.Fatal(err)
	}
}

func TestGenAllWorkloads(t *testing.T) {
	dir := t.TempDir()
	for _, wl := range []string{"stream", "random", "chase"} {
		out := filepath.Join(dir, wl+".jsonl")
		if err := genCmd([]string{"-workload", wl, "-count", "100", "-lines", "64", "-out", out}); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
	}
	if err := genCmd([]string{"-workload", "bogus", "-out", filepath.Join(dir, "x")}); err == nil {
		t.Fatal("unknown workload accepted")
	}
}

// TestGenOutputPinned pins the bytes gen writes for each workload: the
// digests were taken when the generators yielded one access per call,
// so filling in batches must not change a trace.
func TestGenOutputPinned(t *testing.T) {
	dir := t.TempDir()
	for wl, want := range map[string]string{
		"stream": "8ef38bc2c612c6e2",
		"random": "7c9dcc18992d55ec",
		"zipf":   "81c22e89052322c6",
		"chase":  "9cc1df5b0f9cf70a",
	} {
		out := filepath.Join(dir, wl+".jsonl")
		if err := genCmd([]string{"-workload", wl, "-count", "3000", "-lines", "4096", "-seed", "3", "-out", out}); err != nil {
			t.Fatalf("%s: %v", wl, err)
		}
		data, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(data)
		if got := hex.EncodeToString(sum[:])[:16]; got != want {
			t.Errorf("%s: trace digest %s, want %s", wl, got, want)
		}
	}
}

func TestStatsMissingFile(t *testing.T) {
	if err := statsCmd([]string{"-in", "/nonexistent/trace.jsonl"}); err == nil {
		t.Fatal("missing trace accepted")
	}
}

func TestStatsTruncatedTrace(t *testing.T) {
	dir := t.TempDir()
	full := filepath.Join(dir, "full.jsonl")
	if err := genCmd([]string{"-count", "100", "-lines", "64", "-out", full}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(full)
	if err != nil {
		t.Fatal(err)
	}
	// Cut the file off mid-line, as an interrupted copy would.
	trunc := filepath.Join(dir, "trunc.jsonl")
	if err := os.WriteFile(trunc, data[:len(data)/2-3], 0o644); err != nil {
		t.Fatal(err)
	}
	err = statsCmd([]string{"-in", trunc, "-top", "3"})
	if err == nil {
		t.Fatal("truncated trace accepted")
	}
	if !strings.Contains(err.Error(), "trace: truncated at event") {
		t.Fatalf("err = %v, want truncated-at-event", err)
	}
}
