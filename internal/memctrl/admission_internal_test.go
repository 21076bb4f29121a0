package memctrl

import (
	"testing"

	"hammertime/internal/dram"
	"hammertime/internal/sim"
)

// TestRateLimiterDegenerateWindows is the regression test for the rotate
// hangs: Window = 1 (half-window rounds to zero) must still terminate,
// and a zero ACT budget must clamp instead of dividing by zero in
// OnACT's gap computation.
func TestRateLimiterDegenerateWindows(t *testing.T) {
	g := dram.DefaultGeometry()

	l := NewRateLimiter(g, 4, 1, 2)
	l.OnACT(nil, 0, 0, 5)
	l.OnACT(nil, 0, 0, 6)
	if d := l.Admit(Request{}, 0, 0, true, 1_000_000); d > 1 {
		t.Errorf("window-1 limiter still throttling after the window aged out (delay %d)", d)
	}

	z := NewRateLimiter(g, 0, 100, 0)
	if z.MaxActsPerWindow == 0 {
		t.Fatal("zero ACT budget must clamp to 1")
	}
	z.OnACT(nil, 0, 0, 10) // would divide by zero unclamped
}

// TestRateLimiterIdleSkipAheadMatchesStepped pins the O(1) idle
// skip-ahead in rotate against literal epoch-by-epoch stepping: after a
// long idle gap, a limiter rotated once at the far cycle must be in
// exactly the state of one rotated at every intermediate epoch boundary.
func TestRateLimiterIdleSkipAheadMatchesStepped(t *testing.T) {
	g := dram.DefaultGeometry()
	build := func() *RateLimiter {
		l := NewRateLimiter(g, 8, 1000, 4)
		for i := uint64(0); i < 6; i++ {
			l.OnACT(nil, 1, 7, 10+i)
			l.OnACT(nil, 2, 9, 15+i)
		}
		return l
	}
	jump, stepped := build(), build()

	const far = 1_000_000
	jump.rotate(far)
	for now := stepped.epochEnd; now <= far; now += stepped.Window / 2 {
		stepped.rotate(now)
	}
	stepped.rotate(far)

	if jump.active != stepped.active {
		t.Fatalf("active rows: jump %d, stepped %d", jump.active, stepped.active)
	}
	if jump.epochEnd != stepped.epochEnd {
		t.Fatalf("epochEnd: jump %d, stepped %d", jump.epochEnd, stepped.epochEnd)
	}
	for k := range jump.counts {
		if jump.counts[k] != stepped.counts[k] {
			t.Fatalf("counts[%d]: jump %d, stepped %d", k, jump.counts[k], stepped.counts[k])
		}
		if jump.nextAllow[k] != stepped.nextAllow[k] {
			t.Fatalf("nextAllow[%d]: jump %d, stepped %d", k, jump.nextAllow[k], stepped.nextAllow[k])
		}
	}
}

// TestRateLimiterAdversarialWindowEdges drives a seeded stream whose
// cycles cluster on half-window boundaries (the counter-carry edge an
// attacker would ride) through two identical limiters, one of which gets
// extra no-op rotates at every boundary in between. Admission decisions
// must be identical — aging must not depend on when rotate happens to
// run — and counts must never exceed what the epoch-halving scheme
// allows.
func TestRateLimiterAdversarialWindowEdges(t *testing.T) {
	g := dram.DefaultGeometry()
	const window = 512
	lazy := NewRateLimiter(g, 8, window, 4)
	eager := NewRateLimiter(g, 8, window, 4)

	rng := sim.NewRNG(42)
	now := uint64(1)
	lastRotated := uint64(0)
	var cl, ce int // requests each limiter delayed
	for i := 0; i < 3000; i++ {
		// Hammer in tight bursts, periodically stepping right up to,
		// onto, or just past an epoch edge.
		switch rng.Intn(10) {
		case 0:
			next := (now/(window/2) + 1) * (window / 2)
			now = next - 1 + uint64(rng.Intn(3))
		default:
			now += uint64(rng.Intn(4))
		}
		for e := (lastRotated/(window/2) + 1) * (window / 2); e <= now; e += window / 2 {
			eager.rotate(e)
		}
		lastRotated = now
		bank, row := rng.Intn(2), 3+rng.Intn(2)
		wouldAct := rng.Intn(3) > 0
		dl := lazy.Admit(Request{}, bank, row, wouldAct, now)
		de := eager.Admit(Request{}, bank, row, wouldAct, now)
		if dl != de {
			t.Fatalf("op %d cycle %d: lazy limiter delays %d, eagerly-rotated limiter %d", i, now, dl, de)
		}
		if dl > 0 {
			cl++
		}
		if de > 0 {
			ce++
		}
		if wouldAct {
			lazy.OnACT(nil, bank, row, now+dl)
			eager.OnACT(nil, bank, row, now+de)
		}
	}
	if cl != ce || cl == 0 {
		t.Fatalf("delayed counts diverge or stream never throttled: lazy %d, eager %d", cl, ce)
	}
}

// TestGrapheneWindowResetPin pins OnWindow semantics (audited for the
// invariant-auditor work and found correct): a reset tracker is
// indistinguishable from a brand-new one — same triggers on the same
// post-reset stream — with no count or spill floor carried across the
// window boundary.
func TestGrapheneWindowResetPin(t *testing.T) {
	const banks, entries, threshold, radius = 2, 4, 6, 1
	used := NewGraphene(banks, entries, threshold, radius)

	// Dirty every structure: near-threshold counts, a full table, and a
	// nonzero Misra-Gries spill floor from eviction churn.
	for row := 0; row < entries+3; row++ {
		for i := uint64(0); i < threshold-1; i++ {
			used.track(0, row)
		}
	}
	used.OnWindow()

	fresh := NewGraphene(banks, entries, threshold, radius)
	var usedFired, freshFired int
	rng := sim.NewRNG(7)
	for i := 0; i < 2000; i++ {
		bank, row := rng.Intn(banks), rng.Intn(6)
		got, want := used.track(bank, row), fresh.track(bank, row)
		if got != want {
			t.Fatalf("ACT %d (bank %d row %d): reset tracker fires %d, fresh tracker %d — state leaked across OnWindow",
				i, bank, row, got, want)
		}
		if got >= 0 {
			usedFired++
		}
		if want >= 0 {
			freshFired++
		}
	}
	if usedFired != freshFired {
		t.Fatalf("post-reset refresh counts diverge: reset %d, fresh %d", usedFired, freshFired)
	}
	if freshFired == 0 {
		t.Fatal("post-reset stream never triggered; the pin is not exercised")
	}
}
