package memctrl

import (
	"errors"
	"testing"

	"hammertime/internal/addr"
	"hammertime/internal/dram"
)

// testProfile keeps MAC tiny so controller-level mitigation tests can
// trigger disturbance quickly.
func testProfile() dram.DisturbanceProfile {
	return dram.DisturbanceProfile{Name: "t", MAC: 200, BlastRadius: 2, DistanceDecay: 0.5, FlipProb: 1}
}

func build(t *testing.T, mutate func(*Config)) (*Controller, *dram.Module) {
	t.Helper()
	mod, err := dram.NewModule(dram.Config{Profile: testProfile(), Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	cfg := Config{
		Mapper:   addr.NewLineInterleave(mod.Geometry()),
		DRAM:     mod,
		OpenPage: true,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	c, err := NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return c, mod
}

func TestConfigValidation(t *testing.T) {
	if _, err := NewController(Config{}); err == nil {
		t.Fatal("empty config accepted")
	}
	mod, err := dram.NewModule(dram.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewController(Config{DRAM: mod}); err == nil {
		t.Fatal("missing mapper accepted")
	}
	if _, err := NewPARA(1.5, 1, 0); err == nil {
		t.Fatal("PARA probability > 1 accepted")
	}
}

func TestRowHitMissLatencies(t *testing.T) {
	c, mod := build(t, nil)
	tm := mod.Timing()
	g := mod.Geometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)

	// Cold access to a precharged bank: ACT + CAS.
	r1, err := c.ServeRequest(Request{Line: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := r1.Completion - r1.Start; got != tm.RowEmptyLatency()+4 {
		t.Fatalf("cold latency = %d, want %d", got, tm.RowEmptyLatency()+4)
	}
	if r1.RowHit || !r1.Activated {
		t.Fatalf("cold access: %+v", r1)
	}

	// Same row, different column: row-buffer hit.
	r2, err := c.ServeRequest(Request{Line: 0 + uint64(g.Banks)}, r1.Completion)
	if err != nil {
		t.Fatal(err)
	}
	if !r2.RowHit || r2.Activated {
		t.Fatalf("expected row hit: %+v", r2)
	}

	// Different row, same bank: conflict (PRE+ACT+CAS) plus tRC spacing.
	r3, err := c.ServeRequest(Request{Line: stripe}, r2.Completion)
	if err != nil {
		t.Fatal(err)
	}
	if r3.RowHit || !r3.Activated {
		t.Fatalf("expected conflict: %+v", r3)
	}
	if c.Stats().Counter("mc.row_conflicts") != 1 {
		t.Fatalf("conflict not counted:\n%s", c.Stats().String())
	}
}

func TestClosedPagePolicyAlwaysActivates(t *testing.T) {
	c, _ := build(t, func(cfg *Config) { cfg.OpenPage = false })
	r1, err := c.ServeRequest(Request{Line: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := c.ServeRequest(Request{Line: 0}, r1.Completion)
	if err != nil {
		t.Fatal(err)
	}
	if r2.RowHit {
		t.Fatal("closed-page policy produced a row hit")
	}
}

func TestTRCEnforcedBetweenActivations(t *testing.T) {
	c, mod := build(t, nil)
	g := mod.Geometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	r1, err := c.ServeRequest(Request{Line: 0}, 0)
	if err != nil {
		t.Fatal(err)
	}
	// Immediate conflict ACT on the same bank must wait out tRC.
	r2, err := c.ServeRequest(Request{Line: stripe}, r1.Completion)
	if err != nil {
		t.Fatal(err)
	}
	if r2.Start < r1.Start+mod.Timing().TRC {
		t.Fatalf("second ACT at %d, violates tRC after ACT at %d", r2.Start, r1.Start)
	}
}

func TestRefreshScheduleIssued(t *testing.T) {
	c, mod := build(t, nil)
	horizon := mod.Timing().TREFI * 100
	c.AdvanceTo(horizon)
	if got := mod.Stats().Counter("dram.ref"); got != 100 {
		t.Fatalf("REFs issued = %d, want 100", got)
	}
}

func TestActCounterPreciseReportsAddress(t *testing.T) {
	c, mod := build(t, nil)
	g := mod.Geometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	var events []ACTEvent
	err := c.EnableACTCounter(true, 3, func(ev ACTEvent) uint64 {
		events = append(events, ev)
		return 0
	})
	if err != nil {
		t.Fatal(err)
	}
	// Alternate two rows of the same bank: every access activates.
	now := uint64(0)
	for i := 0; i < 8; i++ {
		line := uint64(i%2) * stripe
		res, err := c.ServeRequest(Request{Line: line, Domain: 9}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	if len(events) != 2 {
		t.Fatalf("overflows = %d, want 2 (8 ACTs / threshold 3, reset 0)", len(events))
	}
	for _, ev := range events {
		if !ev.HasAddr {
			t.Fatal("precise event missing address")
		}
		if ev.Line != 0 && ev.Line != stripe {
			t.Fatalf("event line %d is not an aggressor", ev.Line)
		}
		if ev.Domain != 9 {
			t.Fatalf("event domain = %d, want 9", ev.Domain)
		}
	}
}

func TestActCounterLegacyHidesAddress(t *testing.T) {
	c, mod := build(t, nil)
	g := mod.Geometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	var events []ACTEvent
	if err := c.EnableACTCounter(false, 2, func(ev ACTEvent) uint64 {
		events = append(events, ev)
		return 0
	}); err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := 0; i < 6; i++ {
		res, err := c.ServeRequest(Request{Line: uint64(i%2) * stripe}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	if len(events) == 0 {
		t.Fatal("no overflow events")
	}
	for _, ev := range events {
		if ev.HasAddr || ev.Line != 0 && ev.Bank != 0 {
			t.Fatalf("legacy event leaked address info: %+v", ev)
		}
	}
}

func TestActCounterResetValueControlsNextOverflow(t *testing.T) {
	c, mod := build(t, nil)
	g := mod.Geometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	count := 0
	if err := c.EnableACTCounter(true, 4, func(ACTEvent) uint64 {
		count++
		return 3 // next overflow after only 1 more ACT
	}); err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := 0; i < 8; i++ {
		res, err := c.ServeRequest(Request{Line: uint64(i%2) * stripe}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	// 8 ACTs: first overflow at 4, then one per ACT => 5 total.
	if count != 5 {
		t.Fatalf("overflows = %d, want 5", count)
	}
}

func TestActCounterZeroThresholdRejected(t *testing.T) {
	c, _ := build(t, nil)
	if err := c.EnableACTCounter(true, 0, nil); err == nil {
		t.Fatal("zero threshold accepted")
	}
}

func TestRefreshInstructionPrivileged(t *testing.T) {
	c, _ := build(t, nil)
	if _, err := c.RefreshInstruction(0, true, 5, 0); !errors.Is(err, ErrPrivileged) {
		t.Fatalf("unprivileged refresh: %v, want ErrPrivileged", err)
	}
	if _, err := c.RefreshInstruction(0, true, 0, 0); err != nil {
		t.Fatalf("host refresh failed: %v", err)
	}
}

func TestRefreshInstructionPermissionHook(t *testing.T) {
	c, _ := build(t, nil)
	// §4.4: an enclave may refresh addresses in its own space.
	c.SetRefreshPermission(func(domain int, line uint64) bool {
		return domain == 0 || (domain == 7 && line < 100)
	})
	if _, err := c.RefreshInstruction(50, true, 7, 0); err != nil {
		t.Fatalf("permitted enclave refresh failed: %v", err)
	}
	if _, err := c.RefreshInstruction(500, true, 7, 0); !errors.Is(err, ErrPrivileged) {
		t.Fatal("out-of-space enclave refresh allowed")
	}
}

func TestRefreshInstructionClearsVictim(t *testing.T) {
	c, mod := build(t, nil)
	g := mod.Geometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	// Hammer rows 0 and 2 of bank 0 (lines 0 and 2*stripe) to charge row 1.
	now := uint64(0)
	for i := 0; i < 150; i++ {
		res, err := c.ServeRequest(Request{Line: uint64(i%2) * 2 * stripe}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	if mod.Disturbance(0, 1) == 0 {
		t.Fatal("setup failed: victim not disturbed")
	}
	// The victim row 1 backs line stripe.
	res, err := c.RefreshInstruction(stripe, true, 0, now)
	if err != nil {
		t.Fatal(err)
	}
	if mod.Disturbance(0, 1) != 0 {
		t.Fatal("refresh instruction did not recharge the victim row")
	}
	if !res.Activated {
		t.Fatal("refresh instruction did not activate")
	}
	if mod.OpenRow(0) != -1 {
		t.Fatal("auto-precharge did not close the row")
	}
}

func TestRefreshInstructionActDisturbsNeighbors(t *testing.T) {
	// The ACT side effect is real — which is why the instruction is
	// privileged (§4.3).
	c, mod := build(t, nil)
	for i := 0; i < 50; i++ {
		if _, err := c.RefreshInstruction(0, true, 0, uint64(i*100)); err != nil {
			t.Fatal(err)
		}
	}
	if mod.Disturbance(0, 1) == 0 {
		t.Fatal("refresh-instruction ACTs did not disturb neighbors")
	}
}

func TestRefNeighborsCommand(t *testing.T) {
	c, mod := build(t, nil)
	g := mod.Geometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	now := uint64(0)
	for i := 0; i < 150; i++ {
		res, err := c.ServeRequest(Request{Line: uint64(i%2) * 2 * stripe}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	// REF_NEIGHBORS around aggressor row 0 with radius 2 clears rows 1-2.
	if _, err := c.RefreshNeighborsCmd(0, 2, 0, now); err != nil {
		t.Fatal(err)
	}
	if mod.Disturbance(0, 1) != 0 || mod.Disturbance(0, 2) != 0 {
		t.Fatal("REF_NEIGHBORS left victims disturbed")
	}
	if _, err := c.RefreshNeighborsCmd(0, 2, 5, now); !errors.Is(err, ErrPrivileged) {
		t.Fatal("unprivileged REF_NEIGHBORS allowed")
	}
}

func TestPARARefreshesNeighbors(t *testing.T) {
	para, err := NewPARA(1, 1, 3) // always refresh a neighbor
	if err != nil {
		t.Fatal(err)
	}
	c, mod := build(t, func(cfg *Config) { cfg.Plugins = []Plugin{para} })
	g := mod.Geometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	now := uint64(0)
	for i := 0; i < 400; i++ {
		res, err := c.ServeRequest(Request{Line: uint64(i%2) * 2 * stripe}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	// With p=1 every ACT of rows 0/2 refreshes one of their neighbors;
	// victim row 1 is hit half the time from each side, so it can never
	// accumulate anywhere near MAC=200.
	if mod.FlipCount() != 0 {
		t.Fatalf("PARA(p=1) failed: %d flips", mod.FlipCount())
	}
	if c.Stats().Counter("mc.para_refreshes") == 0 {
		t.Fatal("PARA issued no refreshes")
	}
}

func TestGrapheneTriggersNeighborRefresh(t *testing.T) {
	c, mod := build(t, func(cfg *Config) {
		cfg.Plugins = []Plugin{NewGraphene(cfg.DRAM.Geometry().Banks, 8, 50, 2)}
	})
	g := mod.Geometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	now := uint64(0)
	for i := 0; i < 600; i++ {
		res, err := c.ServeRequest(Request{Line: uint64(i%2) * 2 * stripe}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	if mod.FlipCount() != 0 {
		t.Fatalf("graphene failed: %d flips", mod.FlipCount())
	}
	if c.Stats().Counter("mc.graphene_refreshes") == 0 {
		t.Fatal("graphene never triggered")
	}
}

func TestGrapheneUnderProvisionedMisses(t *testing.T) {
	// With more hot rows than entries and a spill-based summary, an
	// under-provisioned table churns and never cures — the E3 cost story.
	gr := NewGraphene(1, 2, 50, 1)
	fired := 0
	for i := 0; i < 5000; i++ {
		if gr.track(0, i%8) >= 0 {
			fired++
		}
	}
	if fired != 0 {
		t.Fatalf("under-provisioned graphene fired %d times", fired)
	}
	if got := RequiredEntries(1<<20, 1<<10); got != 1<<10 {
		t.Fatalf("RequiredEntries = %d", got)
	}
}

func TestRateLimiterDelaysHotRow(t *testing.T) {
	rl := NewRateLimiter(dram.DefaultGeometry(), 100, 1_000_000, 10)
	c, mod := build(t, func(cfg *Config) { cfg.Plugins = []Plugin{rl} })
	g := mod.Geometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	now := uint64(0)
	var delayed, totalDelay uint64
	for i := 0; i < 200; i++ {
		// Alternate rows 0 and 2 of bank 0: every access activates.
		res, err := c.ServeRequest(Request{Line: uint64(i%2) * 2 * stripe}, now)
		if err != nil {
			t.Fatal(err)
		}
		if res.ThrottleDelay > 0 {
			delayed++
			totalDelay += res.ThrottleDelay
		}
		now = res.Completion
	}
	if totalDelay == 0 {
		t.Fatal("rate limiter never delayed a hot row")
	}
	st := c.Stats()
	if count, wait := st.Counter("mc.throttled"), st.Counter("mc.throttle_cycles"); count != int64(delayed) || wait != int64(totalDelay) {
		t.Fatalf("mc.throttled=%d mc.throttle_cycles=%d, want %d and %d", count, wait, delayed, totalDelay)
	}
	// The imposed gap must keep the row under budget: 100 ACTs per 1M
	// cycles means ≥ 10k cycles between ACTs once throttled. Row 0 was
	// activated by the second-to-last request.
	if d := rl.Admit(Request{}, 0, 0, true, now); d < 5000 {
		t.Fatalf("throttle gap too small: %d", d)
	}
}

func TestRateLimiterIgnoresRowHitsAndColdRows(t *testing.T) {
	rl := NewRateLimiter(dram.DefaultGeometry(), 100, 1_000_000, 10)
	if d := rl.Admit(Request{}, 0, 5, false, 0); d != 0 {
		t.Fatalf("row hit delayed by %d", d)
	}
	if d := rl.Admit(Request{}, 0, 6, true, 0); d != 0 {
		t.Fatalf("cold row delayed by %d", d)
	}
}

func TestDomainEnforcer(t *testing.T) {
	g := dram.DefaultGeometry()
	part, err := addr.NewPartition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	e := NewDomainEnforcer(part)
	if err := e.AssignDomain(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := e.AssignDomain(1, 99); err == nil {
		t.Fatal("bad group accepted")
	}
	// Rows in subarray 2 belong to group 2 (64 rows per subarray).
	okRow := 2 * g.RowsPerSubarray
	badRow := 3 * g.RowsPerSubarray
	if !e.Allowed(1, okRow) {
		t.Fatal("in-group access rejected")
	}
	if e.Allowed(1, badRow) {
		t.Fatal("out-of-group access allowed")
	}
	if !e.Allowed(42, badRow) {
		t.Fatal("unregistered domain constrained")
	}
	// The controller counts the one failing check among the same three
	// accesses (line = row * banks * cols maps to bank 0).
	c, _ := build(t, func(cfg *Config) { cfg.Enforcer = e })
	now := uint64(0)
	for _, a := range []struct{ domain, row int }{{1, okRow}, {1, badRow}, {42, badRow}} {
		res, err := c.ServeRequest(Request{Line: uint64(a.row * g.Banks * g.ColumnsPerRow), Domain: a.domain}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	if v := c.Stats().Counter("mc.domain_violations"); v != 1 {
		t.Fatalf("violations = %d", v)
	}
}

func TestEnforcerWiredIntoController(t *testing.T) {
	g := dram.DefaultGeometry()
	part, err := addr.NewPartition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	enf := NewDomainEnforcer(part)
	if err := enf.AssignDomain(1, 0); err != nil {
		t.Fatal(err)
	}
	c, _ := build(t, func(cfg *Config) { cfg.Enforcer = enf })
	// Line mapping to subarray 1 (row 64): line = row * banks * cols.
	badLine := uint64(64 * g.Banks * g.ColumnsPerRow)
	res, err := c.ServeRequest(Request{Line: badLine, Domain: 1}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violation {
		t.Fatal("controller did not flag the violation")
	}
	if c.Stats().Counter("mc.domain_violations") != 1 {
		t.Fatal("violation not counted")
	}
}

func TestSourceKindString(t *testing.T) {
	if SourceCPU.String() != "cpu" || SourceDMA.String() != "dma" || SourceKernel.String() != "kernel" {
		t.Fatal("source kind names wrong")
	}
	if SourceKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestUncoreMovePrivilegedAndOverlapping(t *testing.T) {
	c, mod := build(t, nil)
	g := mod.Geometry()
	// src in bank 0, dst in bank 1: the move can overlap bank work.
	src, dst := uint64(0), uint64(1)
	if _, err := c.UncoreMove(src, dst, 5, 0); !errors.Is(err, ErrPrivileged) {
		t.Fatalf("unprivileged move: %v", err)
	}
	res, err := c.UncoreMove(src, dst, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats().Counter("mc.uncore_moves") != 1 {
		t.Fatal("move not counted")
	}
	// Overlapped read+write across banks must beat the strictly serial
	// path (read completes, then write starts).
	serialC, serialMod := build(t, nil)
	_ = serialMod
	r1, err := serialC.ServeRequest(Request{Line: src}, 0)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := serialC.ServeRequest(Request{Line: dst, Write: true}, r1.Completion)
	if err != nil {
		t.Fatal(err)
	}
	if res.Completion >= r2.Completion {
		t.Fatalf("uncore move (%d) not faster than serial copy (%d)", res.Completion, r2.Completion)
	}
	_ = g
}

func TestUncoreMovePermissionHook(t *testing.T) {
	c, _ := build(t, nil)
	c.SetRefreshPermission(func(domain int, line uint64) bool {
		return domain == 3 && line < 10
	})
	if _, err := c.UncoreMove(1, 2, 3, 0); err != nil {
		t.Fatalf("permitted move failed: %v", err)
	}
	if _, err := c.UncoreMove(1, 100, 3, 0); !errors.Is(err, ErrPrivileged) {
		t.Fatal("out-of-scope destination allowed")
	}
}

func TestActCounterNilHandlerStillCountsOverflows(t *testing.T) {
	c, mod := build(t, nil)
	g := mod.Geometry()
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	// No handler registered: the hardware counter still overflows, is
	// still counted, and still resets (a handler-less counter must not
	// saturate and go silent).
	if err := c.EnableACTCounter(true, 3, nil); err != nil {
		t.Fatal(err)
	}
	now := uint64(0)
	for i := 0; i < 12; i++ {
		res, err := c.ServeRequest(Request{Line: uint64(i%2) * stripe}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	// 12 ACTs at threshold 3, reset to 0 on each overflow => 4 overflows.
	if got := c.ACTOverflows(); got != 4 {
		t.Fatalf("ACTOverflows = %d, want 4", got)
	}
}
