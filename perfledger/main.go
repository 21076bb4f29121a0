// Command perfledger is the repository benchmark. It runs one of three
// seeded workloads against the simulator and its serving stack, checks
// every simulated outcome, and prints each metric by name with its unit;
// the last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
//
// Workloads:
//
//	attack-grid  E1: every defense x every attack, one cell at a time
//	benign-mix   E4: the overhead lineup under three benign tenants
//	serve-jobs   e1 jobs over HTTP to an in-process coordinator + worker
//
// With -trace 0 the metrics are the end-to-end ones; with -trace 1 the
// run also records spans around the benchmark's calls into each layer
// and reports per-layer metrics instead. Run it from the repository root:
//
//	bash perfledger/run.sh --workload attack-grid --seed 1 --seconds 10 --trace 0
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"time"
)

// metricDef names a reported metric. Host metrics are measured on the
// host: times, rates, and the serving stack's own counts. The rest are
// simulated quantities that repeat exactly for a seed, so they serve as
// checks rather than as speed metrics.
type metricDef struct {
	name, unit string
	host       bool
}

// endToEnd are the metrics a user of the system sees; every workload
// reports all of them. On the simulation workloads a job is one cell
// request; on serve-jobs a cell is one cell as the worker computes it.
var endToEnd = []metricDef{
	{"setup_s", "s", true},
	{"heap_peak_mb", "MiB", true},
	{"events_per_s", "1/s", true},
	{"cell_ms_p50", "ms", true},
	{"cell_ms_p90", "ms", true},
	{"jobs_per_s", "1/s", true},
	{"job_ms_p50", "ms", true},
	{"job_ms_p90", "ms", true},
}

// perLayer are the traced run's layer metrics. Simulation-layer values
// are per cell; serving-layer values are medians or per job. A layer a
// workload does not exercise reports 0.
var perLayer = []metricDef{
	{"core.build_ms", "ms", true},
	{"core.run_ms", "ms", true},
	{"core.self_ms", "ms", true},
	{"core.steps", "count", false},
	{"hostos.alloc_ms", "ms", true},
	{"attack.plan_ms", "ms", true},
	{"os.pages_allocated", "count", false},
	{"os.pages_migrated", "count", false},
	{"os.refresh_instr", "count", false},
	{"cpu.step_ms", "ms", true},
	{"dma.step_ms", "ms", true},
	{"cpu.accesses", "count", false},
	{"cpu.llc_misses", "count", false},
	{"cpu.flushes", "count", false},
	{"cache.hits", "count", false},
	{"cache.misses", "count", false},
	{"cache.writebacks", "count", false},
	{"cache.hit_ratio", "ratio", false},
	{"cache.est_ms", "ms", true},
	{"addr.est_ms", "ms", true},
	{"mc.requests", "count", false},
	{"mc.row_hits", "count", false},
	{"mc.row_empty", "count", false},
	{"mc.row_conflicts", "count", false},
	{"mc.row_hit_ratio", "ratio", false},
	{"mc.acts", "count", false},
	{"mc.ref", "count", false},
	{"mc.throttled", "count", false},
	{"mc.throttle_cycles", "cycles", false},
	{"mc.est_ms", "ms", true},
	{"dram.act", "count", false},
	{"dram.pre", "count", false},
	{"dram.ref", "count", false},
	{"dram.flips", "count", false},
	{"dram.est_ms", "ms", true},
	{"dram.trr_mitigations", "count", false},
	{"dram.targeted_refresh", "count", false},
	{"mc.para_refreshes", "count", false},
	{"mc.graphene_refreshes", "count", false},
	{"serve.submit_ms_p50", "ms", true},
	{"serve.queue_ms_p50", "ms", true},
	{"serve.run_ms_p50", "ms", true},
	{"serve.result_ms_p50", "ms", true},
	{"serve.hit_job_ms_p50", "ms", true},
	{"serve.shed", "count", true},
	{"cluster.cache.hits", "count", true},
	{"cluster.cache.misses", "count", true},
	{"cluster.cache.hit_ratio", "ratio", true},
	{"cluster.rpc_ms_p50", "ms", true},
	{"cluster.worker_ms_p50", "ms", true},
	{"cluster.wire_ms_p50", "ms", true},
	{"cluster.batches", "count", true},
	{"cluster.cells.audited", "count", true},
	{"cluster.cells.stolen", "count", true},
	{"bench.residual_ms", "ms", true},
	{"bench.trace_overhead_frac", "ratio", true},
	{"calib.map_ns", "ns/op", true},
	{"calib.cache_access_ns", "ns/op", true},
	{"calib.mc_hit_ns", "ns/op", true},
	{"calib.mc_empty_ns", "ns/op", true},
	{"calib.mc_conflict_ns", "ns/op", true},
	{"calib.act_ns", "ns/op", true},
}

// reportOnly are printed but not part of the result line: fail_frac is
// the result line's failed / attempted.
var reportOnly = []metricDef{{"fail_frac", "ratio", true}}

// params sizes a run; tests shrink them.
type params struct {
	seed     uint64
	dur      time.Duration
	trace    bool
	horizon  uint64 // attack-grid and benign-mix cell horizon
	seeds    int    // machine seeds per simulation workload
	serveLo  uint64 // serve-jobs horizon range
	serveHi  uint64
	calibOps int
}

func defaultParams(workload string) params {
	p := params{seeds: 3, serveLo: 50_000, serveHi: 150_000, calibOps: 200_000}
	switch workload {
	case "attack-grid":
		p.horizon = 4_000_000
	case "benign-mix":
		p.horizon = 2_000_000
	}
	return p
}

// result is one run's report.
type result struct {
	attempted, failed int
	why               []string
	values            map[string]float64
	info              []string // extra lines, printed before the metrics
}

// workloads are the benchmark's workloads, in the order "all" runs them.
var workloads = []string{"attack-grid", "benign-mix", "serve-jobs"}

func main() {
	workload := flag.String("workload", "", "attack-grid, benign-mix, serve-jobs, or all three in turn")
	seed := flag.Uint64("seed", 1, "workload seed: picks machine seeds, horizons and job order")
	seconds := flag.Float64("seconds", 10, "measured time per run; loops end on a whole pass")
	trace := flag.Int("trace", 0, "1 records spans and reports per-layer metrics")
	flag.Parse()

	names := []string{*workload}
	if *workload == "all" {
		names = workloads
	}
	for _, name := range names {
		if len(names) > 1 {
			fmt.Println("==", name)
		}
		p := defaultParams(name)
		p.seed, p.dur, p.trace = *seed, time.Duration(*seconds*float64(time.Second)), *trace == 1
		if err := runOne(name, p); err != nil {
			fmt.Fprintln(os.Stderr, "perfledger:", err)
			os.Exit(1)
		}
	}
}

// runOne runs one workload and prints its report.
func runOne(workload string, p params) error {
	var tr *tracer
	defs := endToEnd
	if p.trace {
		tr, defs = newTracer(), perLayer
	}
	res, err := run(context.Background(), workload, p, tr)
	if err != nil {
		return err
	}
	line, err := report(os.Stdout, res, defs)
	if err != nil {
		return err
	}
	fmt.Println(line)
	return nil
}

// run dispatches to the workload.
func run(ctx context.Context, workload string, p params, tr *tracer) (result, error) {
	switch workload {
	case "attack-grid", "benign-mix":
		return runGrid(ctx, workload, p, tr)
	case "serve-jobs":
		return runServe(ctx, p, tr)
	default:
		return result{}, fmt.Errorf("unknown workload %q (want one of %v or all)", workload, workloads)
	}
}

// report prints every measured value as "name value unit [host|sim]",
// then returns the JSON result line holding the defs' metrics.
func report(w io.Writer, res result, defs []metricDef) (string, error) {
	for _, s := range res.info {
		fmt.Fprintln(w, s)
	}
	for _, s := range res.why {
		fmt.Fprintln(w, "FAIL", s)
	}
	units := make(map[string]metricDef)
	for _, d := range append(append(append([]metricDef(nil), endToEnd...), perLayer...), reportOnly...) {
		units[d.name] = d
	}
	names := make([]string, 0, len(res.values))
	for n := range res.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		d, ok := units[n]
		kind := "sim"
		if !ok || d.host {
			kind = "host"
		}
		fmt.Fprintf(w, "%-28s %14.6g %-6s [%s]\n", n, res.values[n], d.unit, kind)
	}
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	out := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{res.failed == 0, res.attempted, res.failed, make(map[string]value)}
	for _, d := range defs {
		v, ok := res.values[d.name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.name)
		}
		out.Metrics[d.name] = value{v, d.unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}
