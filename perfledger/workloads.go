package main

import (
	"context"
	"fmt"
	"time"

	"hammertime/internal/harness"
	"hammertime/internal/sim"
)

// setups is how many times a run sets up; setup_s is their median.
const setups = 5

// percentiles stores the named percentiles of xs into v.
func percentiles(v map[string]float64, xs []float64, named map[string]float64) error {
	for name, p := range named {
		x, err := percentile(xs, p)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		v[name] = x
	}
	return nil
}

func buildGrid(workload string, p params) (gridWorkload, error) {
	if workload == "attack-grid" {
		return attackGrid(p.seed, p.seeds, p.horizon), nil
	}
	return benignMix(p.seed, p.seeds, p.horizon)
}

// runGrid runs attack-grid or benign-mix. Untraced, one loop measures the
// end-to-end metrics. Traced, an untraced loop and a traced loop of half
// the time each give the per-layer metrics and the tracing overhead.
func runGrid(ctx context.Context, workload string, p params, tr *tracer) (result, error) {
	res := result{values: make(map[string]float64)}
	heap := startHeapSampler()
	var w gridWorkload
	var setupS []float64
	for k := 0; k < setups; k++ {
		t := time.Now()
		var err error
		if w, err = buildGrid(workload, p); err != nil {
			heap.peakMB()
			return res, err
		}
		c := w.cells[0]
		d, err := c.mk()
		if err == nil {
			_, err = w.run(ctx, c, d, nil, 0, nil)
		}
		if err != nil {
			heap.peakMB()
			return res, fmt.Errorf("warm-up cell: %w", err)
		}
		setupS = append(setupS, time.Since(t).Seconds())
	}
	res.values["setup_s"] = median(setupS)

	dur := p.dur
	if p.trace {
		dur /= 2
	}
	lu, err := w.loop(ctx, dur, nil, nil)
	res.values["heap_peak_mb"] = heap.peakMB()
	if err != nil {
		return res, err
	}
	if err := gridEndToEnd(res.values, lu); err != nil {
		return res, err
	}
	execs := lu.execs
	if p.trace {
		zeroFill(res.values)
		var sc simCounts
		lt, err := w.loop(ctx, dur, tr, &sc)
		if err != nil {
			return res, err
		}
		execs = append(execs, lt.execs...)
		costs, err := calibrate(p.calibOps)
		if err != nil {
			return res, err
		}
		simLayers(res.values, tr, &sc, costs)
		res.values["bench.trace_overhead_frac"] = median(lt.cellMS)/median(lu.cellMS) - 1
	}
	failed, why, err := w.check(ctx, execs)
	if err != nil {
		return res, err
	}
	res.attempted, res.failed, res.why = len(execs), failed, why
	res.values["fail_frac"] = float64(failed) / float64(len(execs))
	res.info = append(res.info, fmt.Sprintf("# %s: %d cells (%d machine seeds, horizon %d cycles), %d executions",
		workload, len(w.cells), p.seeds, w.horizon, len(execs)))
	return res, nil
}

// gridEndToEnd derives the end-to-end metrics of one simulation loop.
func gridEndToEnd(v map[string]float64, lr loopResult) error {
	secs := lr.elapsed.Seconds()
	v["events_per_s"] = float64(lr.events) / secs
	v["jobs_per_s"] = float64(len(lr.execs)) / secs
	if err := percentiles(v, lr.cellMS, map[string]float64{"cell_ms_p50": 0.5, "cell_ms_p90": 0.9}); err != nil {
		return err
	}
	return percentiles(v, lr.jobMS, map[string]float64{"job_ms_p50": 0.5, "job_ms_p90": 0.9})
}

// zeroFill sets every per-layer metric to 0, so layers a workload does
// not exercise still report.
func zeroFill(v map[string]float64) {
	for _, d := range perLayer {
		v[d.name] = 0
	}
}

// simLayers derives the simulation layers' per-cell metrics from the
// traced cells' spans and exact counts, and attributes the agents' step
// time to addr, cache, memctrl and dram by calibrated per-op costs.
func simLayers(v map[string]float64, tr *tracer, sc *simCounts, c opCosts) {
	n := float64(sc.cells)
	perMS := func(name string) float64 { return ms(tr.total(name)) / n }
	ratio := func(a, b float64) float64 {
		if b == 0 {
			return 0
		}
		return a / b
	}
	run, cpuMS, dmaMS := perMS("core.run"), perMS("cpu.step"), perMS("dma.step")
	v["core.build_ms"] = perMS("core.build")
	v["core.run_ms"] = run
	v["cpu.step_ms"] = cpuMS
	v["dma.step_ms"] = dmaMS
	v["core.self_ms"] = run - cpuMS - dmaMS
	v["core.steps"] = float64(sc.steps) / n
	v["hostos.alloc_ms"] = perMS("hostos.setup_tenants")
	v["attack.plan_ms"] = perMS("attack.plan") + perMS("attack.hammer_va")
	for _, name := range []string{
		"os.pages_allocated", "os.pages_migrated", "os.refresh_instr",
		"mc.requests", "mc.row_hits", "mc.row_empty", "mc.row_conflicts", "mc.acts", "mc.ref",
		"mc.throttled", "mc.throttle_cycles", "mc.para_refreshes", "mc.graphene_refreshes",
		"dram.act", "dram.pre", "dram.ref", "dram.flips", "dram.trr_mitigations", "dram.targeted_refresh",
	} {
		v[name] = float64(sc.stats.Counter(name)) / n
	}
	v["cpu.accesses"] = float64(sc.accesses) / n
	v["cpu.llc_misses"] = float64(sc.misses) / n
	v["cpu.flushes"] = float64(sc.flushes) / n
	v["cache.hits"] = float64(sc.cacheHits) / n
	v["cache.misses"] = float64(sc.cacheMiss) / n
	v["cache.writebacks"] = float64(sc.cacheWB) / n
	v["cache.hit_ratio"] = ratio(float64(sc.cacheHits), float64(sc.cacheHits+sc.cacheMiss))
	v["mc.row_hit_ratio"] = ratio(v["mc.row_hits"], v["mc.requests"])

	a, ca, m, d := c.estimates(layerCounts{
		Requests: v["mc.requests"], Hits: v["mc.row_hits"], Empty: v["mc.row_empty"],
		Conflicts: v["mc.row_conflicts"], Acts: v["mc.acts"], Accesses: v["cpu.accesses"],
	})
	parts, residual := attribute(cpuMS+dmaMS, []float64{a, ca, m, d})
	v["addr.est_ms"], v["cache.est_ms"], v["mc.est_ms"], v["dram.est_ms"] = parts[0], parts[1], parts[2], parts[3]
	v["bench.residual_ms"] = residual
	v["calib.map_ns"] = c.Map
	v["calib.cache_access_ns"] = c.Cache
	v["calib.mc_hit_ns"] = c.MCHit
	v["calib.mc_empty_ns"] = c.MCEmpty
	v["calib.mc_conflict_ns"] = c.MCConflict
	v["calib.act_ns"] = c.Act
}

// runServe runs serve-jobs. Untraced, one loop on an untraced stack.
// Traced, an untraced loop and then a loop on a traced stack, half the
// time each, restarting the same job sequence; the simulation layers are
// measured by rerunning one fresh job's cells through the traced path.
func runServe(ctx context.Context, p params, tr *tracer) (result, error) {
	res := result{values: make(map[string]float64)}
	heap := startHeapSampler()
	var in serveInput
	var s *stack
	var setupS []float64
	for k := 0; k < setups; k++ {
		t := time.Now()
		var err error
		if in, err = serveJobs(p.seed, 1000, p.serveLo, p.serveHi); err != nil {
			heap.peakMB()
			return res, err
		}
		if s, err = startStack(false); err != nil {
			heap.peakMB()
			return res, err
		}
		err = warmUp(ctx, s, in.Warm)
		setupS = append(setupS, time.Since(t).Seconds())
		if err == nil && k == setups-1 {
			break
		}
		if cerr := s.close(); err == nil {
			err = cerr
		}
		if err != nil {
			heap.peakMB()
			return res, fmt.Errorf("warm-up job: %w", err)
		}
	}
	res.values["setup_s"] = median(setupS)

	dur := p.dur
	if p.trace {
		dur /= 2
	}
	recs, elapsed, err := serveLoop(ctx, s, in, dur, nil)
	hits := clusterCounters(s).Counter("cluster.cache.hits")
	cellMS := s.rpc.cellMS()
	if cerr := s.close(); err == nil {
		err = cerr
	}
	res.values["heap_peak_mb"] = heap.peakMB()
	if err != nil {
		return res, err
	}

	var recsT []jobRecord
	var hitsT int64
	if p.trace {
		zeroFill(res.values)
		if recsT, hitsT, err = tracedServe(ctx, p, tr, in, dur, res.values); err != nil {
			return res, err
		}
	}

	refs, err := serveReference(ctx, append(append([]jobRecord(nil), recs...), recsT...))
	if err != nil {
		return res, err
	}
	failed, why := checkServe(recs, refs, hits)
	failedT, whyT := checkServe(recsT, refs, hitsT)
	res.attempted, res.failed, res.why = len(recs)+len(recsT), failed+failedT, append(why, whyT...)

	var events uint64
	var jobMS, hitMS []float64
	for _, r := range recs {
		if r.err != nil {
			continue
		}
		jobMS = append(jobMS, r.jobMS)
		if r.spec.Hit {
			hitMS = append(hitMS, r.jobMS)
		} else {
			events += refs[r.spec.Horizon].events
		}
	}
	secs := elapsed.Seconds()
	res.values["events_per_s"] = float64(events) / secs
	res.values["jobs_per_s"] = float64(len(recs)) / secs
	if err := percentiles(res.values, cellMS, map[string]float64{"cell_ms_p50": 0.5, "cell_ms_p90": 0.9}); err != nil {
		return res, err
	}
	if err := percentiles(res.values, jobMS, map[string]float64{"job_ms_p50": 0.5, "job_ms_p90": 0.9}); err != nil {
		return res, err
	}
	if p.trace {
		var tracedMS []float64
		for _, r := range recsT {
			if r.err == nil {
				tracedMS = append(tracedMS, r.jobMS)
			}
		}
		res.values["bench.trace_overhead_frac"] = median(tracedMS)/res.values["job_ms_p50"] - 1
	} else if err := percentiles(res.values, hitMS, map[string]float64{"serve.hit_job_ms_p50": 0.5}); err != nil {
		return res, err
	}
	res.values["fail_frac"] = float64(res.failed) / float64(res.attempted)
	res.info = append(res.info, fmt.Sprintf("# serve-jobs: %d jobs (%d repeats), horizons %d-%d cycles, %d clients in step",
		len(recs), len(hitMS), p.serveLo, p.serveHi, serveClients))
	return res, nil
}

// tracedServe runs the traced half of serve-jobs and fills the serve,
// cluster and simulation layers. It returns the traced jobs and the
// cache hits the traced stack served.
func tracedServe(ctx context.Context, p params, tr *tracer, in serveInput, dur time.Duration, v map[string]float64) ([]jobRecord, int64, error) {
	s, err := startStack(true)
	if err != nil {
		return nil, 0, err
	}
	if err := warmUp(ctx, s, in.Warm); err != nil {
		s.close()
		return nil, 0, fmt.Errorf("warm-up job: %w", err)
	}
	recs, _, err := serveLoop(ctx, s, in, dur, tr)
	cc := clusterCounters(s)
	if cerr := s.close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, 0, err
	}
	if err := serveLayers(v, recs, cc, s.rpc); err != nil {
		return nil, 0, err
	}

	// The worker's cells are out of reach of the benchmark's spans, so
	// the simulation layers come from one fresh job's cells rebuilt here.
	h := in.Warm
	for _, j := range in.Jobs {
		if !j.Hit {
			h = j.Horizon
			break
		}
	}
	w := attackGrid(harness.E1Spec().Seed, 1, h)
	var sc simCounts
	for i, c := range w.cells {
		d, err := c.mk()
		if err == nil {
			_, err = w.run(ctx, c, d, tr, 1_000_000+i, &sc)
		}
		if err != nil {
			return nil, 0, fmt.Errorf("traced e1 cell %s/%s: %w", c.Label, c.Kind.Name, err)
		}
	}
	costs, err := calibrate(p.calibOps)
	if err != nil {
		return nil, 0, err
	}
	simLayers(v, tr, &sc, costs)
	return recs, cc.Counter("cluster.cache.hits"), nil
}

// serveLayers fills the serve and cluster layer metrics of a traced loop.
// Counts are per job.
func serveLayers(v map[string]float64, recs []jobRecord, cc *sim.Stats, rpc *rpcTimes) error {
	var submit, queue, runT, result, hit []float64
	shed := 0
	for _, r := range recs {
		if r.shed {
			shed++
		}
		if r.err != nil {
			continue
		}
		submit = append(submit, r.submitMS)
		queue = append(queue, r.queueMS)
		runT = append(runT, r.runMS)
		result = append(result, r.resultMS)
		if r.spec.Hit {
			hit = append(hit, r.jobMS)
		}
	}
	for _, m := range []struct {
		name string
		xs   []float64
	}{
		{"serve.submit_ms_p50", submit}, {"serve.queue_ms_p50", queue}, {"serve.run_ms_p50", runT},
		{"serve.result_ms_p50", result}, {"serve.hit_job_ms_p50", hit},
		{"cluster.rpc_ms_p50", rpc.rpcMS()}, {"cluster.worker_ms_p50", rpc.workerMS()},
		{"cluster.wire_ms_p50", rpc.wireMS()},
	} {
		if err := percentiles(v, m.xs, map[string]float64{m.name: 0.5}); err != nil {
			return err
		}
	}
	jobs := float64(len(recs))
	v["serve.shed"] = float64(shed)
	hits, misses := float64(cc.Counter("cluster.cache.hits")), float64(cc.Counter("cluster.cache.misses"))
	v["cluster.cache.hits"] = hits / jobs
	v["cluster.cache.misses"] = misses / jobs
	if hits+misses > 0 {
		v["cluster.cache.hit_ratio"] = hits / (hits + misses)
	}
	v["cluster.batches"] = float64(len(rpc.rpcMS())) / jobs
	v["cluster.cells.audited"] = float64(cc.Counter("cluster.cells.audited")) / jobs
	v["cluster.cells.stolen"] = float64(cc.Counter("cluster.cells.stolen")) / jobs
	return nil
}
