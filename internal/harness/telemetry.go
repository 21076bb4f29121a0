package harness

import (
	"log/slog"
	"sync"
	"time"

	"hammertime/internal/telemetry"
)

// slowCellWatchdog arms a warning timer for cell i of grid. The returned
// stop function disarms it (and is safe to call after firing). When log
// is nil or the threshold is 0, nothing is armed.
func slowCellWatchdog(log *slog.Logger, threshold time.Duration, grid string, i int) (stop func()) {
	if log == nil || threshold <= 0 {
		return func() {}
	}
	start := time.Now()
	var t *time.Timer
	t = time.AfterFunc(threshold, func() {
		log.Warn("slow cell still running",
			"grid", grid, "cell", i, "elapsed", time.Since(start).Round(time.Second).String())
	})
	return func() { t.Stop() }
}

// gridName renders a grid id for records and logs ("grid" when anonymous).
func gridName(id string) string {
	if id == "" {
		return "grid"
	}
	return id
}

// gridProgress tracks one running grid's completion counters and
// publishes progress records to the run's hub after every cell.
type gridProgress struct {
	hub   *telemetry.Hub
	grid  string
	total int
	start time.Time

	// mu orders each cell's count update with its publication, so
	// concurrent cells publish progress records whose Done strictly
	// increases.
	mu                     sync.Mutex
	done, failed, restored int
}

func newGridProgress(hub *telemetry.Hub, grid string, total int) *gridProgress {
	return &gridProgress{hub: hub, grid: grid, total: total, start: time.Now()}
}

// cellDone records one finished cell (computed or restored) and
// publishes its completion plus a fresh progress record.
func (p *gridProgress) cellDone(i int, wall time.Duration, attempts int, restored bool, errMsg string) {
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done++
	if errMsg != "" {
		p.failed++
	}
	if restored {
		p.restored++
	}
	if p.hub == nil {
		return
	}
	p.hub.Publish("cell", telemetry.CellDone{
		Grid:     p.grid,
		Index:    i,
		WallMS:   float64(wall) / float64(time.Millisecond),
		Attempts: attempts,
		Restored: restored,
		Err:      errMsg,
	})
	var eta float64
	if p.done < p.total {
		eta = time.Since(p.start).Seconds() / float64(p.done) * float64(p.total-p.done)
	}
	p.hub.Publish("progress", telemetry.Progress{
		Grid:         p.grid,
		Done:         p.done,
		Total:        p.total,
		Restored:     p.restored,
		Failed:       p.failed,
		EventsPerSec: p.hub.EventsPerSec(),
		ETASeconds:   eta,
	})
}
