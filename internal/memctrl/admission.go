package memctrl

import (
	"hammertime/internal/dram"
	"hammertime/internal/sim"
)

// RateLimiter is the BlockHammer-style admission plugin (Yağlıkçı et al.,
// HPCA'21), the frequency-centric hardware hook: it tracks ACTs per
// (bank, row) within the current refresh window and stretches the
// inter-ACT gap of rows that exceed a threshold so no row can surpass
// MaxActsPerWindow before its scheduled refresh.
//
// Real BlockHammer uses paired counting Bloom filters; this model tracks
// exact per-row counts with epoch halving, which reproduces the same
// admission behaviour without the (orthogonal) aliasing noise. The counts
// live in dense per-(bank,row) arrays sized from the module geometry, so
// the per-ACT path (Admit + OnACT) is pure indexing with zero
// allocations.
type RateLimiter struct {
	// MaxActsPerWindow is the per-row ACT budget per refresh window
	// (set below the module's MAC with safety margin).
	MaxActsPerWindow uint64
	// Window is the refresh window in cycles.
	Window uint64
	// WatchThreshold is the in-window ACT count after which a row is
	// considered a suspect and rate-limiting kicks in (BlockHammer's
	// blacklisting threshold, typically a fraction of the budget).
	WatchThreshold uint64

	rowsPerBank int
	counts      []uint64 // dense, indexed bank*rowsPerBank+row
	nextAllow   []uint64
	active      int // rows with a nonzero count (skip the rotate scan when 0)
	epochEnd    uint64
}

// NewRateLimiter returns a limiter for a module of the given geometry
// enforcing maxActs per window cycles, beginning to throttle once a row
// passes watch (0 means maxActs/2).
func NewRateLimiter(geom dram.Geometry, maxActs, window, watch uint64) *RateLimiter {
	if maxActs == 0 {
		// A zero budget would divide by zero in OnACT's gap
		// computation; one ACT per window is the strictest meaningful
		// setting.
		maxActs = 1
	}
	if watch == 0 {
		watch = maxActs / 2
	}
	slots := geom.Banks * geom.RowsPerBank()
	l := &RateLimiter{
		MaxActsPerWindow: maxActs,
		Window:           window,
		WatchThreshold:   watch,
		rowsPerBank:      geom.RowsPerBank(),
	}
	l.counts, _ = rowArrays.Get(slots)
	l.nextAllow, _ = rowArrays.Get(slots)
	return l
}

// rowArrays recycles released limiters' per-row arrays.
var rowArrays = sim.NewFreeList[uint64]()

// Release hands the limiter's per-row arrays back for reuse by the next
// NewRateLimiter of the same geometry. The limiter must not be used
// afterwards; releasing twice is a no-op.
func (l *RateLimiter) Release() {
	rowArrays.Put(l.counts)
	rowArrays.Put(l.nextAllow)
	l.counts, l.nextAllow = nil, nil
}

// Admit implements Plugin.
func (l *RateLimiter) Admit(req Request, bank, row int, wouldAct bool, now uint64) uint64 {
	if !wouldAct {
		return 0
	}
	l.rotate(now)
	key := bank*l.rowsPerBank + row
	if l.counts[key] < l.WatchThreshold {
		return 0
	}
	// Suspect row: space remaining ACTs so the budget lasts the window.
	allowed := l.nextAllow[key]
	if allowed <= now {
		return 0
	}
	return allowed - now
}

// OnACT implements Plugin: it counts the ACT and, for a suspect row,
// spaces the next one. The limiter never occupies the bank.
func (l *RateLimiter) OnACT(_ *Controller, bank, row int, start uint64) (uint64, error) {
	l.rotate(start)
	key := bank*l.rowsPerBank + row
	if l.counts[key] == 0 {
		l.active++
	}
	l.counts[key]++
	if l.counts[key] >= l.WatchThreshold {
		minGap := l.Window / l.MaxActsPerWindow
		l.nextAllow[key] = start + minGap
	}
	return 0, nil
}

// OnWindow implements Plugin: the limiter ages on its own epochs (rotate).
func (*RateLimiter) OnWindow() {}

// rotate ages counters at window boundaries: counts halve (epoch overlap,
// mirroring BlockHammer's dual-filter scheme) rather than reset, so an
// attacker cannot ride window edges.
func (l *RateLimiter) rotate(now uint64) {
	// A sub-cycle half-window (Window < 2) must still advance the epoch,
	// or the loop below never terminates.
	half := l.Window / 2
	if half == 0 {
		half = 1
	}
	if l.epochEnd == 0 {
		l.epochEnd = half
	}
	for now >= l.epochEnd {
		if l.active == 0 {
			// Nothing to halve: every remaining epoch boundary up to now
			// is an identity, so skip them all at once instead of
			// iterating O(idle-gap / half-window) times.
			l.epochEnd += ((now-l.epochEnd)/half + 1) * half
			return
		}
		for k, c := range l.counts {
			switch {
			case c == 0:
			case c <= 1:
				l.counts[k] = 0
				l.nextAllow[k] = 0
				l.active--
			default:
				l.counts[k] = c / 2
			}
		}
		l.epochEnd += half
	}
}

// NextEvent implements Plugin: the limiter's only autonomous transition
// is the epoch halving in rotate, so its next event is the next epoch
// boundary after now. Per-row release times are request-gated (a delayed
// request is simply delayed) and do not count. O(1).
func (l *RateLimiter) NextEvent(now, _ uint64) uint64 {
	half := l.Window / 2
	if half == 0 {
		half = 1
	}
	end := l.epochEnd
	if end == 0 {
		end = half
	}
	for end <= now {
		next := end + ((now-end)/half+1)*half
		if next <= end { // saturate on overflow
			return ^uint64(0)
		}
		end = next
	}
	return end
}
