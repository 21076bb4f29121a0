package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"reflect"
	"testing"
	"time"

	"hammertime/internal/core"
	"hammertime/internal/sim"
)

func TestPercentileRefusesThinTail(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(i + 1)
	}
	if v, err := percentile(xs, 0.9); err != nil || v != 90 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90", v, err)
	}
	if _, err := percentile(xs[:99], 0.9); err == nil {
		t.Fatal("p90 of 99 samples has 9 beyond it and must be refused")
	}
	if _, err := percentile(xs[:20], 0.5); err != nil {
		t.Fatalf("p50 of 20 samples: %v", err)
	}
	if _, err := percentile(xs[:19], 0.5); err == nil {
		t.Fatal("p50 of 19 samples has 9 beyond it and must be refused")
	}
	if samplesFor(0.9) != 100 || samplesFor(0.5) != 20 {
		t.Fatalf("samplesFor: p90 %d, p50 %d; want 100, 20", samplesFor(0.9), samplesFor(0.5))
	}
}

func TestGeneratorsDeterministic(t *testing.T) {
	cells := func(w gridWorkload) []string {
		var out []string
		for _, c := range w.cells {
			out = append(out, fmt.Sprintf("%s/%s/%d", c.Label, c.Kind.Name, c.Seed))
		}
		return out
	}
	a, b := attackGrid(7, 3, 1000), attackGrid(7, 3, 1000)
	if !reflect.DeepEqual(cells(a), cells(b)) {
		t.Fatal("attack-grid inputs differ for one seed")
	}
	if reflect.DeepEqual(cells(a), cells(attackGrid(8, 3, 1000))) {
		t.Fatal("attack-grid machine seeds do not depend on the workload seed")
	}
	if len(a.cells) != 3*12*4 || a.cells[0].Seed != 7 {
		t.Fatalf("attack-grid: %d cells, first seed %d", len(a.cells), a.cells[0].Seed)
	}
	m1, err := benignMix(7, 2, 1000)
	if err != nil {
		t.Fatal(err)
	}
	m2, _ := benignMix(7, 2, 1000)
	if !reflect.DeepEqual(cells(m1), cells(m2)) {
		t.Fatal("benign-mix inputs differ for one seed")
	}

	s1, err := serveJobs(7, 500, 10_000, 200_000)
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := serveJobs(7, 500, 10_000, 200_000)
	if !reflect.DeepEqual(s1, s2) {
		t.Fatal("serve-jobs inputs differ for one seed")
	}
	if s3, _ := serveJobs(8, 500, 10_000, 200_000); reflect.DeepEqual(s1, s3) {
		t.Fatal("serve-jobs inputs do not depend on the seed")
	}
	seen := map[uint64]bool{s1.Warm: true}
	hits := 0
	for i, j := range s1.Jobs {
		if !j.Hit {
			if seen[j.Horizon] {
				t.Fatalf("job %d: fresh horizon %d was submitted before", i, j.Horizon)
			}
			seen[j.Horizon] = true
			continue
		}
		hits++
		if j.Of >= 0 && (j.Of >= i-i%serveClients || s1.Jobs[j.Of].Hit || s1.Jobs[j.Of].Horizon != j.Horizon) {
			t.Fatalf("job %d repeats %d, which is not a fresh job of an earlier pair", i, j.Of)
		}
		if j.Of < 0 && j.Horizon != s1.Warm {
			t.Fatalf("job %d repeats the warm-up with horizon %d", i, j.Horizon)
		}
	}
	if hits != 200 {
		t.Fatalf("%d repeats in 500 jobs, want 200", hits)
	}
}

func TestAttributionNeverExceedsWhole(t *testing.T) {
	rng := sim.NewRNG(1)
	for i := 0; i < 10000; i++ {
		whole := rng.Float64() * 100
		parts := make([]float64, 1+rng.Intn(5))
		for j := range parts {
			parts[j] = (rng.Float64() - 0.1) * 60
		}
		scaled, residual := attribute(whole, parts)
		sum := 0.0
		for _, p := range scaled {
			if p < 0 {
				t.Fatalf("negative part %v from %v", p, parts)
			}
			sum += p
		}
		if residual < 0 || sum > whole*(1+1e-12) || sum+residual < whole*(1-1e-12) || sum+residual > whole*(1+1e-12) {
			t.Fatalf("whole %v, parts %v: scaled sum %v, residual %v", whole, parts, sum, residual)
		}
	}
}

// TestBenchmarkJSONMatchesMetrics keeps the benchmark's declared metrics
// and the program's in step.
func TestBenchmarkJSONMatchesMetrics(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Skip("no BENCHMARK.json next to this directory")
	}
	var spec struct {
		EndToEnd []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		declared []struct{ Name, Unit string }
		defs     []metricDef
	}{{spec.EndToEnd, endToEnd}, {spec.PerLayer, perLayer}} {
		if len(c.declared) != len(c.defs) {
			t.Fatalf("BENCHMARK.json declares %d metrics, the program reports %d", len(c.declared), len(c.defs))
		}
		for i, d := range c.defs {
			if c.declared[i].Name != d.name || c.declared[i].Unit != d.unit {
				t.Errorf("metric %d: BENCHMARK.json %s [%s], program %s [%s]",
					i, c.declared[i].Name, c.declared[i].Unit, d.name, d.unit)
			}
		}
	}
}

// TestSmoke runs each workload briefly at small sizes with every outcome
// check on, and requires a complete, correct report.
func TestSmoke(t *testing.T) {
	if testing.Short() {
		t.Skip("runs the workloads")
	}
	// Unaudited timed loops, as outside tests; the reference pass still
	// attaches the auditor to every machine.
	core.SetCheckingOff()
	defer core.SetChecking(false)
	for _, c := range []struct {
		workload string
		trace    bool
	}{{"attack-grid", false}, {"benign-mix", true}, {"serve-jobs", false}} {
		t.Run(c.workload, func(t *testing.T) {
			p := defaultParams(c.workload)
			p.seed, p.dur, p.trace = 1, time.Second, c.trace
			p.horizon /= 10
			p.seeds = 1
			p.serveLo, p.serveHi = 20_000, 120_000
			p.calibOps = 10_000
			var tr *tracer
			defs := endToEnd
			if c.trace {
				tr, defs = newTracer(), perLayer
			}
			res, err := run(context.Background(), c.workload, p, tr)
			if err != nil {
				t.Fatal(err)
			}
			if res.attempted == 0 || res.failed != 0 {
				t.Fatalf("attempted %d, failed %d: %v", res.attempted, res.failed, res.why)
			}
			line, err := report(io.Discard, res, defs)
			if err != nil {
				t.Fatal(err)
			}
			var out struct {
				Correct bool
				Metrics map[string]struct{ Value float64 }
			}
			if err := json.Unmarshal([]byte(line), &out); err != nil || !out.Correct || len(out.Metrics) != len(defs) {
				t.Fatalf("result line %s (%v)", line, err)
			}
		})
	}
}
