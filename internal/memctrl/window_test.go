// Controller regression tests that need the invariant auditor, so they
// live in the external test package (check imports memctrl).
package memctrl_test

import (
	"testing"

	"hammertime/internal/addr"
	"hammertime/internal/check"
	"hammertime/internal/dram"
	"hammertime/internal/memctrl"
	"hammertime/internal/obs"
)

// rig is a module + controller + auditor + event ring wired together.
type rig struct {
	mod    *dram.Module
	mc     *memctrl.Controller
	aud    *check.Auditor
	ring   *obs.Ring
	mapper addr.Mapper
}

func newRig(t *testing.T, mutate func(*memctrl.Config)) *rig {
	t.Helper()
	geom := dram.DefaultGeometry()
	mod, err := dram.NewModule(dram.Config{Geometry: geom, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	mapper := addr.NewLineInterleave(geom)
	cfg := memctrl.Config{Mapper: mapper, DRAM: mod, OpenPage: true}
	if mutate != nil {
		mutate(&cfg)
	}
	mc, err := memctrl.NewController(cfg)
	if err != nil {
		t.Fatal(err)
	}
	r := &rig{
		mod:    mod,
		mc:     mc,
		aud:    check.New(check.Config{Geometry: geom, Timing: mod.Timing(), Profile: mod.Profile()}),
		ring:   obs.NewRing(4096),
		mapper: mapper,
	}
	rec := r.aud.Chain(obs.NewRecorder(r.ring))
	mod.SetRecorder(rec)
	mc.SetRecorder(rec)
	return r
}

// line returns the physical line of (bank, row, col 0).
func (r *rig) line(bank, row int) uint64 {
	return r.mapper.Unmap(addr.DDR{Bank: bank, Row: row})
}

func (r *rig) verify(t *testing.T) {
	t.Helper()
	if err := r.aud.Verify(r.mod, r.mc); err != nil {
		t.Fatal(err)
	}
}

// TestAdvanceToMultiWindowJump pins catchUpRefresh across idle jumps
// spanning several whole refresh windows: every skipped refresh epoch is
// issued, in order, at its scheduled cycle (the auditor's refresh-cadence
// and ref-issue-order invariants), and the sweep state stays consistent.
func TestAdvanceToMultiWindowJump(t *testing.T) {
	r := newRig(t, nil)
	tim := r.mod.Timing()
	now := uint64(0)
	for i := 0; i < 5; i++ {
		res, err := r.mc.ServeRequest(memctrl.Request{Line: r.line(0, 5+i)}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	// Jump three whole refresh windows plus a fraction of an epoch.
	now += 3*tim.RefreshWindow + tim.TREFI/2
	r.mc.AdvanceTo(now)
	for i := 0; i < 5; i++ {
		res, err := r.mc.ServeRequest(memctrl.Request{Line: r.line(1, 9+i)}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	r.mc.AdvanceTo(now + tim.TREFI)
	if refs := r.mc.Stats().Counter("mc.ref"); refs < 3*int64(tim.RefreshCommandsPerWindow()) {
		t.Fatalf("jump across 3 windows issued only %d REFs", refs)
	}
	r.verify(t)
}

// TestThrottleDelayAcrossRefreshEpochs is the regression test for
// back-dated REFs under admission throttling: a BlockHammer-style delay
// many tREFI long must not cause the refresh schedule to be applied
// after — and time-stamped behind — the delayed request.
func TestThrottleDelayAcrossRefreshEpochs(t *testing.T) {
	r := newRig(t, func(cfg *memctrl.Config) {
		// minGap = window/budget ~ 16 tREFI: one throttle spans many
		// refresh epochs.
		tim := dram.DDR4Timing()
		cfg.Plugins = []memctrl.Plugin{memctrl.NewRateLimiter(dram.DefaultGeometry(), 4, 64*tim.TREFI, 2)}
	})
	now := uint64(0)
	for i := 0; i < 40; i++ {
		row := 5 + (i%2)*2 // alternate rows: every access conflicts and ACTs
		res, err := r.mc.ServeRequest(memctrl.Request{Line: r.line(0, row)}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	if n := r.mc.Stats().Counter("mc.throttled"); n == 0 {
		t.Fatal("stream was never throttled; the regression is not exercised")
	}
	r.verify(t)
}

// TestConflictPathEmitsPRE is the regression test for the silent row
// switch: a row conflict charges PRE+ACT latency, so a real PRE command
// must reach the DRAM module and the event stream.
func TestConflictPathEmitsPRE(t *testing.T) {
	r := newRig(t, nil)
	if _, err := r.mc.ServeRequest(memctrl.Request{Line: r.line(0, 5)}, 0); err != nil {
		t.Fatal(err)
	}
	res, err := r.mc.ServeRequest(memctrl.Request{Line: r.line(0, 7)}, 100)
	if err != nil {
		t.Fatal(err)
	}
	if res.RowHit || !res.Activated {
		t.Fatalf("second access should conflict and activate: %+v", res)
	}
	if n := r.ring.Count(obs.KindPRE); n != 1 {
		t.Fatalf("conflict path emitted %d PRE commands, want exactly 1", n)
	}
	r.verify(t)
}

// TestHammerGapIsExactlyTRC is the regression test for the double-counted
// tRC wait: a two-row hammer in one bank must settle into ACTs spaced
// exactly tRC apart — the spacing DDR mandates and every MAC/tREFW
// calculation in the paper assumes — not tRC plus the already-elapsed
// service latency.
func TestHammerGapIsExactlyTRC(t *testing.T) {
	r := newRig(t, nil)
	tim := r.mod.Timing()
	now := uint64(0)
	for i := 0; i < 60; i++ {
		res, err := r.mc.ServeRequest(memctrl.Request{Line: r.line(0, 5+(i%2)*2)}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	var acts []uint64
	for _, ev := range r.ring.Events() {
		if ev.Kind == obs.KindACT {
			acts = append(acts, ev.Cycle)
		}
	}
	if len(acts) < 10 {
		t.Fatalf("hammer produced only %d ACTs", len(acts))
	}
	for i := 2; i < len(acts); i++ {
		if gap := acts[i] - acts[i-1]; gap != tim.TRC {
			t.Fatalf("steady-state ACT gap %d at ACT %d, want exactly tRC (%d)", gap, i, tim.TRC)
		}
	}
	r.verify(t)
}

// TestMitigationOccupancyPreserved is the regression test for the
// bank-ready overwrite: a PARA neighbor refresh occupies the bank for
// tRC, and the request's completion bookkeeping must merge with — not
// overwrite — that occupancy, or the next access starts while the bank
// is mid-refresh.
func TestMitigationOccupancyPreserved(t *testing.T) {
	para, err := memctrl.NewPARA(1, 1, 12) // every ACT triggers a neighbor refresh
	if err != nil {
		t.Fatal(err)
	}
	r := newRig(t, func(cfg *memctrl.Config) { cfg.Plugins = []memctrl.Plugin{para} })
	tim := r.mod.Timing()
	res1, err := r.mc.ServeRequest(memctrl.Request{Line: r.line(0, 5)}, 0)
	if err != nil {
		t.Fatal(err)
	}
	if n := r.mc.Stats().Counter("mc.para_refreshes"); n != 1 {
		t.Fatalf("PARA with probability 1 fired %d refreshes, want 1", n)
	}
	res2, err := r.mc.ServeRequest(memctrl.Request{Line: r.line(0, 5)}, res1.Completion)
	if err != nil {
		t.Fatal(err)
	}
	if !res2.RowHit {
		t.Fatalf("second access to the open row should hit: %+v", res2)
	}
	if want := res1.Start + tim.TRC; res2.Start != want {
		t.Fatalf("hit started at %d; the PARA refresh occupies the bank until %d", res2.Start, want)
	}
	r.verify(t)
}
