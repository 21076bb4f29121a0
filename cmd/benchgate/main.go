// Command benchgate compares `go test -bench` output against a committed
// baseline and fails on regressions. It is the CI tripwire for the
// event-driven core's throughput and the hot paths' zero-allocation
// guarantees: floors (min) gate throughput metrics like refs/s and
// steps/s, ceilings (max) gate allocs/op.
//
// Usage:
//
//	benchgate -baseline bench_baseline.json [-tolerance 0.10] bench.txt...
//
// The baseline is a JSON list of gates:
//
//	[{"benchmark": "BenchmarkIdleFastForward/burst", "metric": "refs/s", "min": 5e9},
//	 {"benchmark": "BenchmarkActHotPath/plain", "metric": "allocs/op", "max": 0},
//	 {"benchmark": "BenchmarkTelemetryGrid/on", "metric": "ns/op",
//	  "ratio_of": "BenchmarkTelemetryGrid/off", "max_ratio": 1.5}]
//
// A min gate fails when the measured value drops below min*(1-tolerance);
// a max gate fails when it exceeds max*(1+tolerance) (so max 0 means
// exactly zero). A max on an allocation count or a byte count (allocs/op
// or any B/... metric) is absolute: those counts do not vary with the
// host, so the cap is the ceiling and gets no tolerance. A ratio gate (ratio_of + max_ratio) divides the gated
// metric by the same metric of the ratio_of benchmark from the same run
// and fails when the quotient exceeds max_ratio*(1+tolerance) — it pins
// relative overhead (e.g. tracing on vs off) without pinning absolute
// machine speed. A gate whose benchmark or metric never appears in the
// input fails too: a silently-skipped benchmark must not pass the gate.
// Benchmark names are matched with the -N GOMAXPROCS suffix stripped.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"strconv"
	"strings"
)

// Gate is one baseline entry: a benchmark metric with a floor, a
// ceiling, or a ceiling on its ratio to another benchmark's metric.
type Gate struct {
	Benchmark string   `json:"benchmark"`
	Metric    string   `json:"metric"`
	Min       *float64 `json:"min,omitempty"`
	Max       *float64 `json:"max,omitempty"`
	// RatioOf names the denominator benchmark (same metric) for a
	// MaxRatio gate.
	RatioOf  string   `json:"ratio_of,omitempty"`
	MaxRatio *float64 `json:"max_ratio,omitempty"`
}

func main() {
	var (
		baseline  = flag.String("baseline", "bench_baseline.json", "baseline JSON with gated metrics")
		tolerance = flag.Float64("tolerance", 0.10, "allowed relative regression before failing")
	)
	flag.Parse()
	if err := run(*baseline, *tolerance, flag.Args(), os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(1)
	}
}

func run(baseline string, tolerance float64, inputs []string, out io.Writer) error {
	if tolerance < 0 || tolerance >= 1 {
		return fmt.Errorf("tolerance %g out of range [0, 1)", tolerance)
	}
	data, err := os.ReadFile(baseline)
	if err != nil {
		return err
	}
	var gates []Gate
	if err := json.Unmarshal(data, &gates); err != nil {
		return fmt.Errorf("parse %s: %w", baseline, err)
	}
	if len(gates) == 0 {
		return fmt.Errorf("%s has no gates", baseline)
	}

	results := make(map[string]map[string]float64)
	if len(inputs) == 0 {
		if err := parseBench(os.Stdin, results); err != nil {
			return err
		}
	}
	for _, name := range inputs {
		f, err := os.Open(name)
		if err != nil {
			return err
		}
		err = parseBench(f, results)
		f.Close()
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
	}

	failures := 0
	for _, g := range gates {
		if err := g.validate(); err != nil {
			return err
		}
		val, ok := results[g.Benchmark][g.Metric]
		if !ok {
			failures++
			fmt.Fprintf(out, "FAIL %s %s: not found in benchmark output\n", g.Benchmark, g.Metric)
			continue
		}
		if g.MaxRatio != nil {
			base, ok := results[g.RatioOf][g.Metric]
			if !ok {
				failures++
				fmt.Fprintf(out, "FAIL %s %s: ratio base %s not found in benchmark output\n",
					g.Benchmark, g.Metric, g.RatioOf)
				continue
			}
			if base <= 0 {
				failures++
				fmt.Fprintf(out, "FAIL %s %s: ratio base %s is %g, cannot divide\n",
					g.Benchmark, g.Metric, g.RatioOf, base)
				continue
			}
			ratio := val / base
			if ratio > *g.MaxRatio*(1+tolerance) {
				failures++
				fmt.Fprintf(out, "FAIL %s %s: %gx of %s above ratio ceiling %gx (tolerance %g%%)\n",
					g.Benchmark, g.Metric, ratio, g.RatioOf, *g.MaxRatio, tolerance*100)
			} else {
				fmt.Fprintf(out, "ok   %s %s: %gx of %s\n", g.Benchmark, g.Metric, ratio, g.RatioOf)
			}
			continue
		}
		switch {
		case g.Min != nil && val < *g.Min*(1-tolerance):
			failures++
			fmt.Fprintf(out, "FAIL %s %s: %g below floor %g (tolerance %g%%)\n",
				g.Benchmark, g.Metric, val, *g.Min, tolerance*100)
		case g.Max != nil && absolute(g.Metric) && val > *g.Max:
			failures++
			fmt.Fprintf(out, "FAIL %s %s: %g above ceiling %g\n", g.Benchmark, g.Metric, val, *g.Max)
		case g.Max != nil && val > *g.Max*(1+tolerance):
			failures++
			fmt.Fprintf(out, "FAIL %s %s: %g above ceiling %g (tolerance %g%%)\n",
				g.Benchmark, g.Metric, val, *g.Max, tolerance*100)
		default:
			fmt.Fprintf(out, "ok   %s %s: %g\n", g.Benchmark, g.Metric, val)
		}
	}
	if failures > 0 {
		return fmt.Errorf("%d of %d gates failed", failures, len(gates))
	}
	fmt.Fprintf(out, "all %d gates passed\n", len(gates))
	return nil
}

// absolute reports whether a max on metric is taken as written: an
// allocation or byte count is deterministic, so no tolerance applies.
func absolute(metric string) bool {
	return metric == "allocs/op" || strings.HasPrefix(metric, "B/")
}

func (g Gate) validate() error {
	if g.Benchmark == "" || g.Metric == "" {
		return fmt.Errorf("gate %+v: benchmark and metric are required", g)
	}
	set := 0
	for _, p := range []*float64{g.Min, g.Max, g.MaxRatio} {
		if p != nil {
			set++
		}
	}
	if set != 1 {
		return fmt.Errorf("gate %s %s: exactly one of min, max or max_ratio is required", g.Benchmark, g.Metric)
	}
	if (g.MaxRatio != nil) != (g.RatioOf != "") {
		return fmt.Errorf("gate %s %s: ratio_of and max_ratio go together", g.Benchmark, g.Metric)
	}
	return nil
}

// parseBench scans `go test -bench` output and merges every measurement
// line into results[benchmark][unit]. Lines look like
//
//	BenchmarkName/sub-8   1000   1234 ns/op   5.6e+07 refs/s   0 B/op   0 allocs/op
//
// with (value, unit) pairs after the iteration count; values may use Go's
// %g scientific notation. Non-benchmark lines are ignored.
func parseBench(r io.Reader, results map[string]map[string]float64) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		if _, err := strconv.ParseUint(fields[1], 10, 64); err != nil {
			continue // e.g. the "Benchmarking..." prose of some tools
		}
		name := fields[0]
		// Strip the trailing -N GOMAXPROCS suffix go test appends.
		if i := strings.LastIndex(name, "-"); i > 0 {
			if _, err := strconv.ParseUint(name[i+1:], 10, 64); err == nil {
				name = name[:i]
			}
		}
		m := results[name]
		if m == nil {
			m = make(map[string]float64)
			results[name] = m
		}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				break // mangled tail; keep what parsed cleanly
			}
			m[fields[i+1]] = val
		}
	}
	return sc.Err()
}
