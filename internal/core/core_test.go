package core

import (
	"fmt"
	"strings"
	"testing"

	"hammertime/internal/cache"
	"hammertime/internal/dram"
	"hammertime/internal/memctrl"
)

func TestNewMachineDefaults(t *testing.T) {
	m, err := NewMachine(MachineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if m.DRAM == nil || m.MC == nil || m.Cache == nil || m.Kernel == nil || m.Mapper == nil {
		t.Fatal("machine has nil components")
	}
	if m.Mapper.Name() != "line-interleave" {
		t.Fatalf("default mapper = %s", m.Mapper.Name())
	}
}

func TestNewMachineValidation(t *testing.T) {
	spec := DefaultSpec()
	spec.Alloc = AllocSubarrayAware // requires SubarrayGroups > 0
	if _, err := NewMachine(spec); err == nil {
		t.Fatal("subarray-aware allocation without groups accepted")
	}
	spec = DefaultSpec()
	spec.Interleave = InterleaveKind(99)
	if _, err := NewMachine(spec); err == nil {
		t.Fatal("unknown interleave accepted")
	}
	spec = DefaultSpec()
	spec.Alloc = AllocKind(99)
	if _, err := NewMachine(spec); err == nil {
		t.Fatal("unknown allocator accepted")
	}
	spec = DefaultSpec()
	spec.SubarrayGroups = 3 // not a divisor of 16
	if _, err := NewMachine(spec); err == nil {
		t.Fatal("indivisible group count accepted")
	}
}

// TestNewMachineRejectsModuleBeyondCacheReach checks the LLC's 16-bit
// tags against the module: the default module's 2^20 lines fit 32 sets
// but not 16 (16 × 65 535 lines is 16 short), and the machine says so
// instead of panicking on the first access to a line past the reach.
func TestNewMachineRejectsModuleBeyondCacheReach(t *testing.T) {
	spec := DefaultSpec()
	if lines := spec.Geometry.TotalLines(); lines != 1<<20 {
		t.Fatalf("default module has %d lines, want 2^20", lines)
	}
	spec.Cache = cache.Config{Sets: 16, Ways: 4}
	_, err := NewMachine(spec)
	if err == nil || !strings.Contains(err.Error(), "tag reach") {
		t.Fatalf("16-set LLC over a 2^20-line module: err = %v, want a tag-reach error", err)
	}
	spec.Cache.Sets = 32
	m, err := NewMachine(spec)
	if err != nil {
		t.Fatalf("32-set LLC over a 2^20-line module: %v", err)
	}
	m.Release()
}

func TestClassString(t *testing.T) {
	want := map[Class]string{
		ClassNone: "none", ClassIsolation: "isolation", ClassFrequency: "frequency",
		ClassRefresh: "refresh", ClassInDRAM: "in-dram", ClassInMC: "in-mc",
	}
	for c, s := range want {
		if c.String() != s {
			t.Errorf("%d -> %s, want %s", int(c), c.String(), s)
		}
	}
	if Class(42).String() != "Class(42)" {
		t.Fatal("unknown class string")
	}
}

// stepperAgent performs fixed-cost steps for scheduling tests.
type stepperAgent struct {
	cost  uint64
	limit int
	steps int
	log   *[]int
	id    int
}

func (a *stepperAgent) Done() bool { return a.steps >= a.limit }

func (a *stepperAgent) Step(now uint64) (uint64, bool, error) {
	if a.Done() {
		return now, false, nil
	}
	a.steps++
	if a.log != nil {
		*a.log = append(*a.log, a.id)
	}
	return now + a.cost, true, nil
}

func TestRunSchedulesEarliestFirst(t *testing.T) {
	m, err := NewMachine(MachineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	var order []int
	fast := &stepperAgent{cost: 10, limit: 1000000, log: &order, id: 0}
	slow := &stepperAgent{cost: 30, limit: 1000000, log: &order, id: 1}
	res, err := m.Run([]Agent{fast, slow}, 300)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0] != 30 || res.Steps[1] != 10 {
		t.Fatalf("steps = %v, want [30 10]", res.Steps)
	}
	// Deterministic interleave: the fast agent must run ~3x as often.
	if len(order) != 40 {
		t.Fatalf("order length %d", len(order))
	}
}

func TestRunStopsFinishedAgents(t *testing.T) {
	m, err := NewMachine(MachineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	short := &stepperAgent{cost: 1, limit: 5}
	res, err := m.Run([]Agent{short}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if res.Steps[0] != 5 {
		t.Fatalf("steps = %d, want 5", res.Steps[0])
	}
}

func TestRunIncludesDaemons(t *testing.T) {
	m, err := NewMachine(MachineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	d := &stepperAgent{cost: 100, limit: 1 << 30}
	m.AddDaemon(d)
	res, err := m.Run([]Agent{&stepperAgent{cost: 50, limit: 2}}, 1000)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Steps) != 2 {
		t.Fatalf("steps slice = %v", res.Steps)
	}
	if res.Steps[1] != 10 {
		t.Fatalf("daemon steps = %d, want 10", res.Steps[1])
	}
}

func TestRunRequiresHorizon(t *testing.T) {
	m, err := NewMachine(MachineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := m.Run(nil, 0); err == nil {
		t.Fatal("zero horizon accepted")
	}
}

func TestRunAdvancesRefreshToHorizon(t *testing.T) {
	m, err := NewMachine(MachineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	horizon := m.Spec.Timing.TREFI * 10
	res, err := m.Run(nil, horizon)
	if err != nil {
		t.Fatal(err)
	}
	if res.Stats.Counter("dram.ref") != 10 {
		t.Fatalf("refs = %d, want 10", res.Stats.Counter("dram.ref"))
	}
}

func TestThroughputHelper(t *testing.T) {
	r := RunResult{Horizon: 1000, Steps: []uint64{500}}
	if got := r.Throughput(0); got != 500 {
		t.Fatalf("throughput = %g, want 500 per kilocycle", got)
	}
	if (RunResult{}).Horizon != 0 {
		t.Fatal("zero value wrong")
	}
}

func TestBuildWithDefenseNil(t *testing.T) {
	m, err := BuildWithDefense(DefaultSpec(), nil)
	if err != nil {
		t.Fatal(err)
	}
	if m == nil {
		t.Fatal("nil machine")
	}
}

// TestDeterminism is the cornerstone invariant: identical specs and agent
// programs produce bit-identical outcomes.
func TestDeterminism(t *testing.T) {
	run := func() (uint64, string) {
		spec := DefaultSpec()
		spec.Profile = dram.LPDDR4()
		m, err := NewMachine(spec)
		if err != nil {
			t.Fatal(err)
		}
		d := m.Kernel.CreateDomain("d", false, false)
		if _, err := m.Kernel.AllocPages(d.ID, 0, 8); err != nil {
			t.Fatal(err)
		}
		// Drive raw controller traffic: alternating rows in one bank.
		g := m.Spec.Geometry
		stripe := uint64(g.Banks * g.ColumnsPerRow)
		now := uint64(0)
		for i := 0; i < 30000; i++ {
			res, err := m.MC.ServeRequest(memctrl.Request{Line: uint64(i%2) * 2 * stripe, Domain: d.ID}, now)
			if err != nil {
				t.Fatal(err)
			}
			now = res.Completion
		}
		return m.Flips(), m.DRAM.Stats().String()
	}
	f1, s1 := run()
	f2, s2 := run()
	if f1 != f2 || s1 != s2 {
		t.Fatalf("two identical runs diverged: %d vs %d flips", f1, f2)
	}
	if f1 == 0 {
		t.Fatal("determinism test never flipped (dead test)")
	}
}

func TestNewMachineVariants(t *testing.T) {
	// Every spec knob the defenses rely on must build and wire correctly.
	spec := DefaultSpec()
	spec.Interleave = InterleaveXOR
	if _, err := NewMachine(spec); err != nil {
		t.Fatalf("xor interleave: %v", err)
	}

	spec = DefaultSpec()
	spec.Interleave = InterleaveRowRegion
	spec.Alloc = AllocBankAware
	spec.BankPartitions = 2
	if _, err := NewMachine(spec); err != nil {
		t.Fatalf("bank-aware: %v", err)
	}

	spec = DefaultSpec()
	spec.Alloc = AllocGuardRow // radius defaults to the profile's blast radius
	if _, err := NewMachine(spec); err != nil {
		t.Fatalf("guard-row: %v", err)
	}

	spec = DefaultSpec()
	spec.Graphene = &GrapheneSpec{Entries: 8, Threshold: spec.Profile.MAC / 4, Radius: spec.Profile.BlastRadius}
	spec.RateLimit = &RateLimitSpec{}
	spec.PARAProb = 0.001
	spec.TRR = &dram.TRRConfig{TrackerEntries: 4, MitigationsPerREF: 1, RefreshRadius: 1}
	spec.ECC = true
	m, err := NewMachine(spec)
	if err != nil {
		t.Fatalf("full-featured machine: %v", err)
	}
	if !m.DRAM.ECCEnabled() {
		t.Fatal("ECC not wired through")
	}

	spec = DefaultSpec()
	spec.SubarrayGroups = 4
	spec.EnforceDomains = true
	m, err = NewMachine(spec)
	if err != nil {
		t.Fatalf("enforced subarray machine: %v", err)
	}
	if m.MC.Enforcer() == nil {
		t.Fatal("enforcer not wired through")
	}
}

func TestFlipAttributionByVictim(t *testing.T) {
	spec := DefaultSpec()
	spec.Profile = dram.LPDDR4()
	m, err := NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	agg := m.Kernel.CreateDomain("agg", false, false)
	vic := m.Kernel.CreateDomain("vic", false, false)
	// Interleave allocations so rows mix both domains.
	for p := 0; p < 64; p++ {
		if _, err := m.Kernel.AllocPages(agg.ID, uint64(p), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := m.Kernel.AllocPages(vic.ID, uint64(p), 1); err != nil {
			t.Fatal(err)
		}
	}
	g := spec.Geometry
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	now := uint64(0)
	for i := 0; i < 30000; i++ {
		res, err := m.MC.ServeRequest(memctrl.Request{Line: uint64(i%2) * 2 * stripe, Domain: agg.ID}, now)
		if err != nil {
			t.Fatal(err)
		}
		now = res.Completion
	}
	if m.Flips() == 0 {
		t.Fatal("no flips")
	}
	byVictim := m.FlipsByVictim()
	if byVictim[vic.ID] == 0 {
		t.Fatalf("no flips attributed to the victim domain: %v", byVictim)
	}
	if m.CrossDomainFlips() != byVictim[vic.ID] {
		t.Fatalf("cross flips %d != victim-attributed %d (aggressor tagged wrong?)",
			m.CrossDomainFlips(), byVictim[vic.ID])
	}
	if m.MitigationFlips() != 0 {
		t.Fatal("mitigation flips counted without any mitigation")
	}
}

func TestRunPropagatesAgentError(t *testing.T) {
	m, err := NewMachine(MachineSpec{})
	if err != nil {
		t.Fatal(err)
	}
	bad := &failingAgent{}
	if _, err := m.Run([]Agent{bad}, 1000); err == nil {
		t.Fatal("agent error swallowed")
	}
}

type failingAgent struct{}

func (*failingAgent) Done() bool { return false }
func (*failingAgent) Step(now uint64) (uint64, bool, error) {
	return 0, false, errTestAgent
}

var errTestAgent = fmt.Errorf("agent exploded")
