package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: hammertime
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkIdleFastForward/burst-8         	   87903	     11536 ns/op	372295625824678 cycles/s	39775173699 refs/s	       0 B/op	       0 allocs/op
BenchmarkIdleFastForward/per-ref-8       	     158	   7486842 ns/op	573668772413 cycles/s	  61289398 refs/s	       0 B/op	       0 allocs/op
BenchmarkSchedulerManyAgents             	      42	  28506544 ns/op	   8.9e+06 steps/s	    9464 B/op	     154 allocs/op
BenchmarkActHotPath/plain-8              	interrupted
PASS
ok  	hammertime	4.335s
`

func TestParseBench(t *testing.T) {
	results := make(map[string]map[string]float64)
	if err := parseBench(strings.NewReader(sampleBench), results); err != nil {
		t.Fatal(err)
	}
	// Sub-benchmark with the -8 procs suffix stripped.
	if got := results["BenchmarkIdleFastForward/burst"]["refs/s"]; got != 39775173699 {
		t.Errorf("burst refs/s = %g", got)
	}
	if got := results["BenchmarkIdleFastForward/burst"]["allocs/op"]; got != 0 {
		t.Errorf("burst allocs/op = %g", got)
	}
	// Scientific notation and a name with no procs suffix.
	if got := results["BenchmarkSchedulerManyAgents"]["steps/s"]; got != 8.9e6 {
		t.Errorf("steps/s = %g", got)
	}
	if got := results["BenchmarkSchedulerManyAgents"]["allocs/op"]; got != 154 {
		t.Errorf("allocs/op = %g", got)
	}
	// The mangled line must not contribute anything.
	if _, ok := results["BenchmarkActHotPath/plain"]; ok {
		t.Error("mangled benchmark line parsed")
	}
}

func writeFile(t *testing.T, name, content string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunGates(t *testing.T) {
	bench := writeFile(t, "bench.txt", sampleBench)

	t.Run("pass", func(t *testing.T) {
		base := writeFile(t, "base.json", `[
			{"benchmark": "BenchmarkIdleFastForward/burst", "metric": "refs/s", "min": 4e10},
			{"benchmark": "BenchmarkIdleFastForward/burst", "metric": "allocs/op", "max": 0},
			{"benchmark": "BenchmarkSchedulerManyAgents", "metric": "steps/s", "min": 9e6}
		]`)
		var out strings.Builder
		// Floors slightly above the measurements: the 10% tolerance is
		// what lets them pass.
		if err := run(base, 0.10, []string{bench}, &out); err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
	})

	t.Run("regression", func(t *testing.T) {
		base := writeFile(t, "base.json", `[
			{"benchmark": "BenchmarkIdleFastForward/per-ref", "metric": "refs/s", "min": 1e9}
		]`)
		var out strings.Builder
		if err := run(base, 0.10, []string{bench}, &out); err == nil {
			t.Fatalf("regressed floor passed:\n%s", out.String())
		} else if !strings.Contains(out.String(), "below floor") {
			t.Fatalf("unexpected output: %v\n%s", err, out.String())
		}
	})

	t.Run("alloc-ceiling", func(t *testing.T) {
		base := writeFile(t, "base.json", `[
			{"benchmark": "BenchmarkSchedulerManyAgents", "metric": "allocs/op", "max": 0}
		]`)
		var out strings.Builder
		if err := run(base, 0.10, []string{bench}, &out); err == nil {
			t.Fatalf("154 allocs/op passed a max-0 gate:\n%s", out.String())
		}
	})

	t.Run("byte-cap-absolute", func(t *testing.T) {
		// SchedulerManyAgents allocates 9464 B/op: 5 % above a 9014 cap
		// fails although the 10 % tolerance would have covered it, and
		// the cap itself passes.
		for _, c := range []struct {
			max  string
			pass bool
		}{{"9014", false}, {"9464", true}} {
			base := writeFile(t, "base.json", `[
				{"benchmark": "BenchmarkSchedulerManyAgents", "metric": "B/op", "max": `+c.max+`}
			]`)
			var out strings.Builder
			err := run(base, 0.10, []string{bench}, &out)
			if (err == nil) != c.pass {
				t.Fatalf("9464 B/op against cap %s: err %v, want pass=%v\n%s", c.max, err, c.pass, out.String())
			}
		}
	})

	t.Run("time-ceiling-tolerant", func(t *testing.T) {
		// A max on a time metric keeps its tolerance: 28506544 ns/op is
		// 5 % above a 27149090 cap.
		base := writeFile(t, "base.json", `[
			{"benchmark": "BenchmarkSchedulerManyAgents", "metric": "ns/op", "max": 27149090}
		]`)
		var out strings.Builder
		if err := run(base, 0.10, []string{bench}, &out); err != nil {
			t.Fatalf("time ceiling within tolerance failed: %v\n%s", err, out.String())
		}
	})

	t.Run("missing-benchmark-fails", func(t *testing.T) {
		base := writeFile(t, "base.json", `[
			{"benchmark": "BenchmarkDoesNotExist", "metric": "ns/op", "min": 1}
		]`)
		var out strings.Builder
		if err := run(base, 0.10, []string{bench}, &out); err == nil {
			t.Fatalf("absent benchmark passed its gate:\n%s", out.String())
		} else if !strings.Contains(out.String(), "not found") {
			t.Fatalf("unexpected output: %v\n%s", err, out.String())
		}
	})

	t.Run("malformed-gate", func(t *testing.T) {
		base := writeFile(t, "base.json", `[
			{"benchmark": "BenchmarkIdleFastForward/burst", "metric": "refs/s"}
		]`)
		var out strings.Builder
		if err := run(base, 0.10, []string{bench}, &out); err == nil ||
			!strings.Contains(err.Error(), "exactly one of min, max or max_ratio") {
			t.Fatalf("gate without bound accepted: %v", err)
		}
	})

	t.Run("ratio-pass", func(t *testing.T) {
		// per-ref is ~649x the burst ns/op; a generous ceiling passes.
		base := writeFile(t, "base.json", `[
			{"benchmark": "BenchmarkIdleFastForward/per-ref", "metric": "ns/op",
			 "ratio_of": "BenchmarkIdleFastForward/burst", "max_ratio": 1000}
		]`)
		var out strings.Builder
		if err := run(base, 0.10, []string{bench}, &out); err != nil {
			t.Fatalf("run: %v\n%s", err, out.String())
		}
	})

	t.Run("ratio-regression", func(t *testing.T) {
		base := writeFile(t, "base.json", `[
			{"benchmark": "BenchmarkIdleFastForward/per-ref", "metric": "ns/op",
			 "ratio_of": "BenchmarkIdleFastForward/burst", "max_ratio": 2}
		]`)
		var out strings.Builder
		if err := run(base, 0.10, []string{bench}, &out); err == nil {
			t.Fatalf("649x ratio passed a 2x ceiling:\n%s", out.String())
		} else if !strings.Contains(out.String(), "above ratio ceiling") {
			t.Fatalf("unexpected output: %v\n%s", err, out.String())
		}
	})

	t.Run("ratio-missing-base", func(t *testing.T) {
		base := writeFile(t, "base.json", `[
			{"benchmark": "BenchmarkIdleFastForward/per-ref", "metric": "ns/op",
			 "ratio_of": "BenchmarkDoesNotExist", "max_ratio": 2}
		]`)
		var out strings.Builder
		if err := run(base, 0.10, []string{bench}, &out); err == nil {
			t.Fatalf("ratio gate with absent base passed:\n%s", out.String())
		} else if !strings.Contains(out.String(), "ratio base") {
			t.Fatalf("unexpected output: %v\n%s", err, out.String())
		}
	})

	t.Run("ratio-without-base-name", func(t *testing.T) {
		base := writeFile(t, "base.json", `[
			{"benchmark": "BenchmarkIdleFastForward/per-ref", "metric": "ns/op", "max_ratio": 2}
		]`)
		var out strings.Builder
		if err := run(base, 0.10, []string{bench}, &out); err == nil ||
			!strings.Contains(err.Error(), "ratio_of and max_ratio go together") {
			t.Fatalf("max_ratio without ratio_of accepted: %v", err)
		}
	})
}
