package memctrl

import (
	"context"
	"math"
	"testing"
	"time"

	"hammertime/internal/addr"
	"hammertime/internal/dram"
	"hammertime/internal/sim"
)

func newTestController(t *testing.T, cfg Config) *Controller {
	t.Helper()
	if cfg.DRAM == nil {
		mod, err := dram.NewModule(dram.Config{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.DRAM = mod
	}
	if cfg.Mapper == nil {
		cfg.Mapper = addr.NewLineInterleave(cfg.DRAM.Geometry())
	}
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestAdvanceToNearMaxUint64 pins the overflow behavior of the refresh
// schedule at the end of representable time: advancing to cycles near
// math.MaxUint64 must terminate (the naive nextRef += TREFI wraps to a
// small value and re-arms an already-passed deadline forever), latch the
// saturation flag, and leave repeated advances idempotent.
func TestAdvanceToNearMaxUint64(t *testing.T) {
	for _, burst := range []bool{true, false} {
		name := "burst"
		if !burst {
			name = "per-ref"
		}
		t.Run(name, func(t *testing.T) {
			c := newTestController(t, Config{})
			c.SetRefreshBurst(burst)
			if !burst {
				// The per-REF path cannot walk ~2e15 epochs in test time;
				// park the schedule near the edge first (white box).
				c.nextRef = math.MaxUint64 - 3*c.timing.TREFI
			}
			c.AdvanceTo(math.MaxUint64)
			if !c.refSaturated {
				t.Fatalf("refresh schedule not saturated after advancing to MaxUint64 (nextRef=%d)", c.nextRef)
			}
			refs := c.stats.Counter("mc.ref")
			if refs == 0 {
				t.Fatal("no refreshes issued")
			}
			// Saturated schedule: further advances are terminating no-ops.
			c.AdvanceTo(math.MaxUint64)
			if got := c.stats.Counter("mc.ref"); got != refs {
				t.Fatalf("saturated advance issued %d more refreshes", got-refs)
			}
			if c.Now() != math.MaxUint64 {
				t.Fatalf("Now() = %d, want MaxUint64", c.Now())
			}
		})
	}
}

// TestAdvanceToChunkClampNearMax pins the chunked (gated) advance's limit
// clamp: with the next refresh deadline near MaxUint64 the per-chunk
// limit computation overflows and must clamp to the target cycle rather
// than wrap to a small value.
func TestAdvanceToChunkClampNearMax(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	c := newTestController(t, Config{})
	c.SetCanceler(sim.NewCanceler(ctx, 1))
	c.SetRefreshBurst(false)
	c.nextRef = math.MaxUint64 - 2*c.timing.TREFI
	c.AdvanceTo(math.MaxUint64)
	if !c.refSaturated {
		t.Fatalf("refresh schedule not saturated (nextRef=%d)", c.nextRef)
	}
	if got := c.stats.Counter("mc.ref"); got != 3 {
		t.Fatalf("issued %d refreshes, want 3", got)
	}
}

// TestCatchUpRefreshTREFIZero guards the degenerate TREFI == 0 timing
// (rejected by Timing.Validate, but reachable through direct struct use)
// against an infinite catch-up loop: the deadline cannot advance, so the
// schedule must saturate after at most one REF.
func TestCatchUpRefreshTREFIZero(t *testing.T) {
	c := newTestController(t, Config{})
	c.timing.TREFI = 0
	c.nextRef = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.catchUpRefresh(1_000_000)
	}()
	select {
	case <-done:
	case <-testDeadline(t):
		t.Fatal("catchUpRefresh with TREFI==0 did not terminate")
	}
	if !c.refSaturated {
		t.Fatal("TREFI==0 schedule did not saturate")
	}
	if got := c.stats.Counter("mc.ref"); got != 1 {
		t.Fatalf("issued %d refreshes, want 1", got)
	}
}

// TestRefreshWindowZeroSaturates is the same guard for the window reset
// schedule (nextWindow += 0 never advances).
func TestRefreshWindowZeroSaturates(t *testing.T) {
	c := newTestController(t, Config{})
	c.timing.RefreshWindow = 0
	c.nextWindow = 100
	done := make(chan struct{})
	go func() {
		defer close(done)
		c.catchUpRefresh(c.timing.TREFI * 4)
	}()
	select {
	case <-done:
	case <-testDeadline(t):
		t.Fatal("catchUpRefresh with RefreshWindow==0 did not terminate")
	}
	if !c.winSaturated {
		t.Fatal("RefreshWindow==0 schedule did not saturate")
	}
}

// TestNextEventSources checks each contributor to the controller's event
// horizon: the refresh deadline, pending bank/bus-ready transitions, and
// the rate limiter's next autonomous release.
func TestNextEventSources(t *testing.T) {
	c := newTestController(t, Config{})
	if got, want := c.NextEvent(), c.timing.TREFI; got != want {
		t.Fatalf("fresh controller NextEvent = %d, want first refresh %d", got, want)
	}

	// A served request leaves bank/bus busy horizons in the near future.
	res, err := c.ServeRequest(Request{Line: 0, Domain: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := c.NextEvent(); got > c.timing.TREFI {
		t.Fatalf("NextEvent = %d after request, want <= next refresh %d", got, c.timing.TREFI)
	}
	_ = res

	// With a rate limiter attached, its epoch boundary joins the min.
	geom := c.dram.Geometry()
	rl := NewRateLimiter(geom, 64, c.timing.RefreshWindow, 0)
	c2 := newTestController(t, Config{Plugins: []Plugin{rl}})
	half := c2.timing.RefreshWindow / 2
	if got := c2.NextEvent(); got != min64(c2.timing.TREFI, half) {
		t.Fatalf("NextEvent = %d, want min(TREFI=%d, half-window=%d)", got, c2.timing.TREFI, half)
	}

	// Saturated schedules drop out of the horizon.
	c3 := newTestController(t, Config{})
	c3.refSaturated = true
	if got := c3.NextEvent(); got != math.MaxUint64 {
		t.Fatalf("saturated idle controller NextEvent = %d, want MaxUint64", got)
	}
}

// TestRateLimiterNextRelease pins the O(1) epoch-boundary computation
// against rotate's actual boundaries.
func TestRateLimiterNextRelease(t *testing.T) {
	geom := dram.DefaultGeometry()
	l := NewRateLimiter(geom, 64, 1000, 0)
	if got := l.NextEvent(0, 0); got != 500 {
		t.Fatalf("NextEvent(0) = %d, want 500", got)
	}
	if got := l.NextEvent(499, 0); got != 500 {
		t.Fatalf("NextEvent(499) = %d, want 500", got)
	}
	if got := l.NextEvent(500, 0); got != 1000 {
		t.Fatalf("NextEvent(500) = %d, want 1000", got)
	}
	l.OnACT(nil, 0, 0, 1700) // rotate advances epochEnd past 1700
	if got := l.NextEvent(1700, 0); got != 2000 {
		t.Fatalf("NextEvent(1700) = %d, want 2000", got)
	}
	if got := l.NextEvent(math.MaxUint64-1, 0); got != math.MaxUint64 {
		t.Fatalf("NextEvent near MaxUint64 = %d, want saturation", got)
	}
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

// testDeadline returns a channel that fires well before the test binary's
// own timeout, so a hung loop fails with a message instead of a panic.
func testDeadline(t *testing.T) <-chan time.Time {
	t.Helper()
	return time.After(10 * time.Second)
}
