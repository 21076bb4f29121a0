package harness

import (
	"encoding/json"
	"io"
	"runtime"
	"sync"
	"time"
)

// BenchCell is the measured wall-clock of one experiment-grid cell. Cells
// are recorded in completion order under parallel execution; Index is the
// cell's grid index, so reports stay comparable across worker counts.
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

// BenchReport is the machine-readable performance report the harness
// emits (the BENCH_harness.json shape): environment, worker count, and
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

// BenchCollector accumulates per-cell and per-experiment performance
// samples. It is safe for concurrent use (cells complete on pool
// workers). Put it in the Run as Run.Bench, bracket each experiment with
// Begin/End, then serialize Report. Collection is observer-only: it
// times cells and counts simulated events, never touching simulation
// state.
type BenchCollector struct {
	mu     sync.Mutex
	report BenchReport
	cur    *BenchExperiment
	start  time.Time
}

// NewBenchCollector returns a collector for a named report of runs on
// the given number of workers (Run.WorkerCount).
func NewBenchCollector(name string, parallelism int) *BenchCollector {
	return &BenchCollector{report: BenchReport{
		Name:        name,
		GoOS:        runtime.GOOS,
		GoArch:      runtime.GOARCH,
		CPUs:        runtime.NumCPU(),
		Parallelism: parallelism,
	}}
}

// Begin opens a new experiment section; subsequent cell and event samples
// are attributed to it until End.
func (b *BenchCollector) Begin(id string) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.cur = &BenchExperiment{ID: id}
	b.start = time.Now()
}

// End closes the current experiment section, fixing its wall-clock and
// derived events/sec.
func (b *BenchCollector) End() {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur == nil {
		return
	}
	b.cur.WallNS = time.Since(b.start).Nanoseconds()
	if b.cur.WallNS > 0 {
		b.cur.EventsPerSec = float64(b.cur.Events) / (float64(b.cur.WallNS) / 1e9)
	}
	b.report.Experiments = append(b.report.Experiments, *b.cur)
	b.report.TotalWallNS += b.cur.WallNS
	b.cur = nil
}

func (b *BenchCollector) recordCell(index int, wall time.Duration) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur == nil {
		return
	}
	b.cur.Cells = append(b.cur.Cells, BenchCell{Index: index, WallNS: wall.Nanoseconds()})
}

func (b *BenchCollector) addEvents(n uint64) {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.cur == nil {
		return
	}
	b.cur.Events += n
}

// Report returns the accumulated report. Call after the final End.
func (b *BenchCollector) Report() BenchReport {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.report
}

// WriteJSON serializes the report as indented JSON.
func (b *BenchCollector) WriteJSON(w io.Writer) error {
	rep := b.Report()
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(rep)
}
