package harness

import (
	"testing"

	"hammertime/internal/attack"
	"hammertime/internal/core"
	"hammertime/internal/cpu"
	"hammertime/internal/defense"
	"hammertime/internal/dram"
	"hammertime/internal/hostos"
	"hammertime/internal/memctrl"
)

// TestRunAttackDeterministic: the full pipeline — planning, hammering,
// defense reactions, flip attribution — must reproduce bit-for-bit.
func TestRunAttackDeterministic(t *testing.T) {
	run := func() AttackOutcome {
		d, err := defense.New("actremap")
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunAttack(matrixSpec(), d, attack.Kind{Name: "double-sided", Sided: 2},
			AttackOpts{Horizon: 2_000_000})
		if err != nil {
			t.Fatal(err)
		}
		return out
	}
	a, b := run(), run()
	if a.Flips != b.Flips || a.CrossFlips != b.CrossFlips || a.BenignSteps != b.BenignSteps {
		t.Fatalf("two identical attack runs diverged: %+v vs %+v", a, b)
	}
}

// TestActremapUnderMemoryPressure: when the allocator cannot supply fresh
// frames, wear-leveling migration fails — the defense must degrade
// gracefully (count failures, keep simulating) rather than error out.
func TestActremapUnderMemoryPressure(t *testing.T) {
	spec := matrixSpec()
	d := &defense.ACTRemap{}
	m, err := core.BuildWithDefense(spec, d)
	if err != nil {
		t.Fatal(err)
	}
	// Exhaust physical memory: three tenants absorb every frame.
	total := int(hostos.TotalFrames(spec.Geometry))
	per := total / 3
	tenants, err := SetupTenants(m, 3, per)
	if err != nil {
		t.Fatal(err)
	}
	// Mop up the remainder so literally no frame is free: migration's
	// allocate-before-free must now fail.
	for i := 0; i < total%3; i++ {
		if _, err := m.Kernel.AllocPages(tenants[1].Domain.ID, uint64(per+i), 1); err != nil {
			t.Fatal(err)
		}
	}
	attacker := tenants[0].Domain.ID
	plan, err := attack.PlanDoubleSided(m.Kernel, m.Mapper, attacker, 1, spec.Profile.BlastRadius)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := attack.HammerVA(m.Kernel, attacker, plan, 1<<30, true)
	if err != nil {
		t.Fatal(err)
	}
	c, err := cpu.NewCore(0, attacker, prog, m.Cache, m.MC)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run([]core.Agent{c}, 2_000_000); err != nil {
		t.Fatalf("simulation failed under memory pressure: %v", err)
	}
	_, failed := d.Migrations()
	if failed == 0 {
		t.Fatal("expected failed migrations with memory exhausted")
	}
}

// TestSubarrayAllocatorAloneIsolates: the allocator-driven (indirect)
// mode of §4.1 must already prevent cross-domain attacks; MC enforcement
// is belt and braces for buggy/hostile allocators, not the mechanism.
func TestSubarrayAllocatorAloneIsolates(t *testing.T) {
	d, err := defense.New("subarray-noenforce")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunAttack(matrixSpec(), d, attack.Kind{Name: "double-sided", Sided: 2},
		AttackOpts{Horizon: 2_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if out.CrossFlips != 0 {
		t.Fatalf("allocator-only subarray isolation leaked %d cross flips", out.CrossFlips)
	}
	if out.PlannedCross {
		t.Fatal("planner found cross-domain targets under subarray allocation")
	}
}

// TestEnforcerFlagsCrossGroupTraffic: with enforcement on, kernel-driven
// cross-group accesses (page migration touches every group) never trip
// it, while a tenant's own out-of-group access does.
func TestEnforcerFlagsCrossGroupTraffic(t *testing.T) {
	spec := matrixSpec()
	spec.SubarrayGroups = 4
	spec.Alloc = core.AllocSubarrayAware
	spec.EnforceDomains = true
	m, err := core.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	tenants, err := SetupTenants(m, 2, 8)
	if err != nil {
		t.Fatal(err)
	}
	// Tenant 1 reaches into tenant 2's line.
	res, err := m.MC.ServeRequest(reqFor(tenants[1].Lines.At(0), tenants[0].Domain.ID), 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Violation {
		t.Fatal("cross-group access not flagged")
	}
	// Tenant 1 touching its own line is clean.
	res, err = m.MC.ServeRequest(reqFor(tenants[0].Lines.At(0), tenants[0].Domain.ID), 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Violation {
		t.Fatal("in-group access flagged")
	}
}

// TestDefenseInDepthStack: an isolation layer plus a refresh layer
// composed must stop every cataloged attack (§5's "work in tandem").
func TestDefenseInDepthStack(t *testing.T) {
	for _, kind := range attack.Catalog(12) {
		sub, err := defense.New("subarray")
		if err != nil {
			t.Fatal(err)
		}
		swr, err := defense.New("swrefresh")
		if err != nil {
			t.Fatal(err)
		}
		stack, err := defense.NewStack(sub, swr)
		if err != nil {
			t.Fatal(err)
		}
		out, err := RunAttack(matrixSpec(), stack, kind, AttackOpts{Horizon: 2_000_000})
		if err != nil {
			t.Fatalf("%s: %v", kind.Name, err)
		}
		if out.CrossFlips != 0 {
			t.Errorf("%s defeated the defense-in-depth stack (%d cross flips)", kind.Name, out.CrossFlips)
		}
	}
}

// TestGuardRowCapacityExhaustion: ZebRAM's cost is capacity; allocating
// past 1/(b+1) of memory must fail with ErrOutOfMemory, not misplace.
func TestGuardRowCapacityExhaustion(t *testing.T) {
	spec := core.DefaultSpec()
	spec.Profile = dram.LPDDR4() // radius 4: only 1/5 of rows usable
	spec.Alloc = core.AllocGuardRow
	m, err := core.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	d := m.Kernel.CreateDomain("big", false, false)
	total := int(hostos.TotalFrames(spec.Geometry))
	_, err = m.Kernel.AllocPages(d.ID, 0, total/4)
	if err == nil {
		t.Fatal("guard-row allocator served beyond its capacity fraction")
	}
}

// reqFor builds a read request for a line by a domain.
func reqFor(line uint64, domain int) memctrl.Request {
	return memctrl.Request{Line: line, Domain: domain}
}

// TestRefreshRateScalingInsufficient verifies the E4 commentary: even 4x
// refresh cannot stop a modern-MAC attack — the per-window ACT budget an
// attacker needs is reached in a fraction of a quartered window.
func TestRefreshRateScalingInsufficient(t *testing.T) {
	d, err := defense.New("refreshx4")
	if err != nil {
		t.Fatal(err)
	}
	out, err := RunAttack(matrixSpec(), d, attack.Kind{Name: "double-sided", Sided: 2},
		AttackOpts{Horizon: 4_000_000})
	if err != nil {
		t.Fatal(err)
	}
	if out.CrossFlips == 0 {
		t.Fatal("4x refresh stopped a modern-MAC double-sided attack — the §3 scaling story is lost")
	}
}

// TestUncoreMoveMigrationEquivalence: the uncore-move path must preserve
// migration semantics (mapping moves, data follows) while being cheaper.
func TestUncoreMoveMigrationEquivalence(t *testing.T) {
	spec := core.DefaultSpec()
	run := func(uncore bool) (uint64, uint64) {
		m, err := core.NewMachine(spec)
		if err != nil {
			t.Fatal(err)
		}
		if uncore {
			m.Kernel.EnableUncoreMove()
		}
		d := m.Kernel.CreateDomain("d", false, false)
		if _, err := m.Kernel.AllocPages(d.ID, 0, 2); err != nil {
			t.Fatal(err)
		}
		res, err := m.Kernel.MigratePage(d.ID, 0, 1000)
		if err != nil {
			t.Fatal(err)
		}
		after, err := m.Kernel.Translate(d.ID, 0)
		if err != nil {
			t.Fatal(err)
		}
		lpp := hostos.LinesPerPage(spec.Geometry)
		if after != res.NewFrame*lpp {
			t.Fatal("migration mapping wrong")
		}
		return res.Completion - 1000, uint64(m.MC.Stats().Counter("mc.uncore_moves"))
	}
	serialCost, moves := run(false)
	uncoreCost, uncoreMoves := run(true)
	if moves != 0 || uncoreMoves == 0 {
		t.Fatalf("uncore move accounting wrong: %d/%d", moves, uncoreMoves)
	}
	if uncoreCost >= serialCost {
		t.Fatalf("uncore move (%d cycles) not cheaper than serial copy (%d)", uncoreCost, serialCost)
	}
}
