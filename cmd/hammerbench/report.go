package main

import (
	"runtime"
	"strconv"

	"hammertime/internal/telemetry"
)

// BenchCell is the measured wall-clock of one computed experiment-grid
// cell, read from its cell span. Cells are listed in the order they
// started; Index is the cell's grid index, so reports stay comparable
// across worker counts.
type BenchCell struct {
	Index  int   `json:"index"`
	WallNS int64 `json:"wall_ns"`
}

// BenchExperiment aggregates one experiment's run: total wall-clock,
// per-cell timings, and the simulated event count (memory requests, ACTs
// and REFs) with the resulting events-per-second throughput.
type BenchExperiment struct {
	ID           string      `json:"id"`
	WallNS       int64       `json:"wall_ns"`
	Cells        []BenchCell `json:"cells,omitempty"`
	Events       uint64      `json:"events"`
	EventsPerSec float64     `json:"events_per_sec"`
}

// BenchReport is the machine-readable performance report -metrics-out
// writes (the BENCH_harness.json shape): environment, worker count, and
// one entry per experiment run.
type BenchReport struct {
	Name        string            `json:"name"`
	GoOS        string            `json:"goos"`
	GoArch      string            `json:"goarch"`
	CPUs        int               `json:"cpus"`
	Parallelism int               `json:"parallelism"`
	Experiments []BenchExperiment `json:"experiments"`
	TotalWallNS int64             `json:"total_wall_ns"`
}

// experimentRun is one experiment as the report needs it: the span it
// ran under and the simulated events the telemetry hub counted meanwhile.
type experimentRun struct {
	id     string
	span   telemetry.SpanID
	events uint64
}

// buildReport reads the report from a run's spans: each experiment's
// wall-clock is its span's, and every cell span under it is one computed
// cell (restored cells start no span).
func buildReport(name string, parallelism int, runs []experimentRun, spans []telemetry.SpanSnap) BenchReport {
	rep := BenchReport{
		Name:        name,
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		Parallelism: parallelism,
	}
	// owner maps a span to 1 + the index of the experiment it runs under
	// (0: none). Snapshots list spans in start order and a parent starts
	// before its children, so one pass resolves every span.
	owner := make(map[telemetry.SpanID]int, len(spans))
	for k, r := range runs {
		rep.Experiments = append(rep.Experiments, BenchExperiment{ID: r.id, Events: r.events})
		owner[r.span] = k + 1
	}
	for _, s := range spans {
		k, top := owner[s.ID]
		if !top {
			k = owner[s.Parent]
			owner[s.ID] = k
		}
		if k == 0 {
			continue
		}
		e := &rep.Experiments[k-1]
		wall := s.End.Sub(s.Start).Nanoseconds()
		switch {
		case top:
			e.WallNS = wall
		case s.Name == "cell":
			e.Cells = append(e.Cells, BenchCell{Index: cellIndex(s), WallNS: wall})
		}
	}
	for k := range rep.Experiments {
		e := &rep.Experiments[k]
		if e.WallNS > 0 {
			e.EventsPerSec = float64(e.Events) / (float64(e.WallNS) / 1e9)
		}
		rep.TotalWallNS += e.WallNS
	}
	return rep
}

// cellIndex returns a cell span's grid index, its "cell" attribute.
func cellIndex(s telemetry.SpanSnap) int {
	for _, a := range s.Attrs {
		if a.Key == "cell" {
			i, _ := strconv.Atoi(a.Val) // the harness writes it with strconv
			return i
		}
	}
	return -1
}
