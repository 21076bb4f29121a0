package hostos

import (
	"errors"
	"testing"
	"testing/quick"

	"hammertime/internal/addr"
	"hammertime/internal/dram"
	"hammertime/internal/memctrl"
	"hammertime/internal/sim"
)

func buildKernel(t *testing.T, mapper addr.Mapper, alloc func(addr.Mapper) (Allocator, error)) *Kernel {
	t.Helper()
	mod, err := dram.NewModule(dram.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if mapper == nil {
		mapper = addr.NewLineInterleave(mod.Geometry())
	}
	mc, err := memctrl.NewController(memctrl.Config{Mapper: mapper, DRAM: mod, OpenPage: true})
	if err != nil {
		t.Fatal(err)
	}
	a, err := alloc(mapper)
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(mc, a)
	if err != nil {
		t.Fatal(err)
	}
	return k
}

func linearAlloc(m addr.Mapper) (Allocator, error) { return NewLinear(m.Geometry()), nil }

func TestPageTableTranslate(t *testing.T) {
	pt := NewPageTable()
	pt.Map(3, 17)
	pa, err := pt.Translate(3*PageSize + 100)
	if err != nil {
		t.Fatal(err)
	}
	if pa != 17*PageSize+100 {
		t.Fatalf("pa = %d", pa)
	}
	if _, err := pt.Translate(99 * PageSize); err == nil {
		t.Fatal("unmapped VA translated")
	}
	pt.Unmap(3)
	if _, err := pt.Translate(3 * PageSize); err == nil {
		t.Fatal("unmapped after Unmap but still translated")
	}
}

// TestPageTableSizeAndOrder pins the slice-backed table's bookkeeping:
// frame 0 is a real mapping, remapping a VPN does not grow Size,
// unmapping an absent or out-of-range VPN is a no-op, and VPNs come back
// ascending whatever the insertion order.
func TestPageTableSizeAndOrder(t *testing.T) {
	pt := NewPageTable()
	for _, vpn := range []uint64{9, 0, 4} {
		pt.Map(vpn, 0)
	}
	pt.Map(4, 12)
	pt.Unmap(5)
	pt.Unmap(1000)
	if pt.Size() != 3 {
		t.Fatalf("size = %d, want 3", pt.Size())
	}
	if f, ok := pt.Frame(0); !ok || f != 0 {
		t.Fatalf("frame(0) = %d,%v, want 0,true", f, ok)
	}
	if f, ok := pt.Frame(4); !ok || f != 12 {
		t.Fatalf("frame(4) = %d,%v, want 12,true", f, ok)
	}
	if got := pt.VPNs(); len(got) != 3 || got[0] != 0 || got[1] != 4 || got[2] != 9 {
		t.Fatalf("VPNs = %v, want [0 4 9]", got)
	}
	pt.Unmap(9)
	if _, ok := pt.Frame(9); ok || pt.Size() != 2 {
		t.Fatalf("after Unmap(9): size %d, frame present %v", pt.Size(), ok)
	}
}

// TestPageTableMapGrowsGeometrically pins amortized growth: mapping VPNs
// 0..4095 in order reslices within spare capacity, so the table is
// reallocated O(log n) times, not once per VPN.
func TestPageTableMapGrowsGeometrically(t *testing.T) {
	const n = 4096
	allocs := testing.AllocsPerRun(5, func() {
		pt := NewPageTable()
		for vpn := uint64(0); vpn < n; vpn++ {
			pt.Map(vpn, vpn)
		}
		if pt.Size() != n {
			t.Fatalf("size = %d, want %d", pt.Size(), n)
		}
	})
	if allocs > 16 {
		t.Fatalf("mapping %d VPNs made %.0f allocations, want at most 16", n, allocs)
	}
}

func TestKernelAllocAndOwnership(t *testing.T) {
	k := buildKernel(t, nil, linearAlloc)
	d := k.CreateDomain("vm", false, false)
	frames, err := k.AllocPages(d.ID, 0, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(frames) != 4 {
		t.Fatalf("got %d frames", len(frames))
	}
	lpp := LinesPerPage(dram.DefaultGeometry())
	owner, ok := k.OwnerOfLine(frames[2] * lpp)
	if !ok || owner != d.ID {
		t.Fatalf("owner = %d/%v", owner, ok)
	}
	line, err := k.Translate(d.ID, 2*PageSize)
	if err != nil {
		t.Fatal(err)
	}
	if line != frames[2]*lpp {
		t.Fatalf("translate: line %d, want %d", line, frames[2]*lpp)
	}
}

func TestKernelFreePage(t *testing.T) {
	k := buildKernel(t, nil, linearAlloc)
	d := k.CreateDomain("vm", false, false)
	frames, err := k.AllocPages(d.ID, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	if err := k.FreePage(d.ID, 0); err != nil {
		t.Fatal(err)
	}
	lpp := LinesPerPage(dram.DefaultGeometry())
	if _, ok := k.OwnerOfLine(frames[0] * lpp); ok {
		t.Fatal("freed frame still owned")
	}
	if err := k.FreePage(d.ID, 0); err == nil {
		t.Fatal("double free accepted")
	}
}

func TestKernelMigratePreservesMappingAndOwnership(t *testing.T) {
	k := buildKernel(t, nil, linearAlloc)
	d := k.CreateDomain("vm", false, false)
	if _, err := k.AllocPages(d.ID, 0, 2); err != nil {
		t.Fatal(err)
	}
	before, err := k.Translate(d.ID, PageSize+64)
	if err != nil {
		t.Fatal(err)
	}
	res, err := k.MigratePage(d.ID, 1, 1000)
	if err != nil {
		t.Fatal(err)
	}
	after, err := k.Translate(d.ID, PageSize+64)
	if err != nil {
		t.Fatal(err)
	}
	if after == before {
		t.Fatal("migration did not change the physical mapping")
	}
	if res.Completion <= 1000 {
		t.Fatal("migration reported no cost")
	}
	lpp := LinesPerPage(dram.DefaultGeometry())
	if owner, ok := k.OwnerOfLine(res.NewFrame * lpp); !ok || owner != d.ID {
		t.Fatal("new frame not owned by the domain")
	}
	if _, ok := k.OwnerOfLine(res.OldFrame * lpp); ok {
		t.Fatal("old frame still owned")
	}
}

// TestKernelPageCountersAppearWhenFired pins the per-page counter
// handles: a counter shows up in the registry on its first page, never
// before, and then counts every page.
func TestKernelPageCountersAppearWhenFired(t *testing.T) {
	k := buildKernel(t, nil, linearAlloc)
	if names := k.Stats().CounterNames(); len(names) != 0 {
		t.Fatalf("fresh kernel has counters %v", names)
	}
	d := k.CreateDomain("vm", false, false)
	if _, err := k.AllocPages(d.ID, 0, 3); err != nil {
		t.Fatal(err)
	}
	if names := k.Stats().CounterNames(); len(names) != 1 || names[0] != "os.pages_allocated" {
		t.Fatalf("after allocating: counters %v, want [os.pages_allocated]", names)
	}
	for i := 0; i < 2; i++ {
		if _, err := k.MigratePage(d.ID, 0, 0); err != nil {
			t.Fatal(err)
		}
	}
	if got := k.Stats().Counter("os.pages_allocated"); got != 3 {
		t.Fatalf("os.pages_allocated = %d, want 3", got)
	}
	if got := k.Stats().Counter("os.pages_migrated"); got != 2 {
		t.Fatalf("os.pages_migrated = %d, want 2", got)
	}
}

func TestVPNOfLine(t *testing.T) {
	k := buildKernel(t, nil, linearAlloc)
	d := k.CreateDomain("vm", false, false)
	frames, err := k.AllocPages(d.ID, 7, 1)
	if err != nil {
		t.Fatal(err)
	}
	lpp := LinesPerPage(dram.DefaultGeometry())
	dom, vpn, ok := k.VPNOfLine(frames[0]*lpp + 3)
	if !ok || dom != d.ID || vpn != 7 {
		t.Fatalf("VPNOfLine = %d/%d/%v", dom, vpn, ok)
	}
	if _, _, ok := k.VPNOfLine(1 << 19); ok {
		t.Fatal("unallocated line resolved")
	}
}

func TestReportFlipIntegrityLockup(t *testing.T) {
	k := buildKernel(t, nil, linearAlloc)
	victim := k.CreateDomain("enclave", true, true)
	attacker := k.CreateDomain("attacker", false, false)
	vf, err := k.AllocPages(victim.ID, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	lpp := LinesPerPage(dram.DefaultGeometry())
	mapper := addr.NewLineInterleave(dram.DefaultGeometry())
	d := mapper.Map(vf[0] * lpp)
	ev := dram.FlipEvent{Bank: d.Bank, Row: d.Row, Column: d.Column, ActorDomain: attacker.ID}
	vd, cross := k.ReportFlip(ev, attacker.ID)
	if vd != victim.ID || !cross {
		t.Fatalf("flip attribution: victim=%d cross=%v", vd, cross)
	}
	if !k.LockedUp() {
		t.Fatal("integrity-checked corruption did not lock up the machine (§4.4)")
	}
	if k.Stats().Counter("os.integrity_lockups") != 1 {
		t.Fatal("lockup not counted")
	}
}

func TestReportFlipUnallocated(t *testing.T) {
	k := buildKernel(t, nil, linearAlloc)
	vd, cross := k.ReportFlip(dram.FlipEvent{Bank: 0, Row: 500, Column: 0}, 1)
	if vd != -1 || cross {
		t.Fatalf("unallocated flip: victim=%d cross=%v", vd, cross)
	}
}

func TestLinearAllocatorExhaustion(t *testing.T) {
	g := dram.Geometry{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 2, ColumnsPerRow: 128, LineBytes: 64}
	a := NewLinear(g) // 16 KB = 4 frames
	for i := 0; i < 4; i++ {
		if _, err := a.Alloc(0); err != nil {
			t.Fatalf("alloc %d: %v", i, err)
		}
	}
	if _, err := a.Alloc(0); !errors.Is(err, ErrOutOfMemory) {
		t.Fatalf("exhaustion error = %v", err)
	}
}

func TestLinearAllocRandomStaysInPool(t *testing.T) {
	g := dram.DefaultGeometry()
	a := NewLinear(g)
	rng := sim.NewRNG(5)
	seen := make(map[uint64]bool)
	for i := 0; i < 200; i++ {
		f, err := a.AllocRandom(0, rng)
		if err != nil {
			t.Fatal(err)
		}
		if seen[f] {
			t.Fatalf("frame %d allocated twice", f)
		}
		seen[f] = true
	}
	// Random allocation should not be (fully) sequential.
	sequential := true
	prev := uint64(0)
	first := true
	for f := range seen {
		if !first && f != prev+1 {
			sequential = false
		}
		prev, first = f, false
	}
	if sequential {
		t.Fatal("AllocRandom returned a purely sequential run")
	}
}

func TestBankAwareIsolatesBanks(t *testing.T) {
	g := dram.DefaultGeometry()
	mapper := addr.NewRowRegion(g)
	a, err := NewBankAware(mapper, 4)
	if err != nil {
		t.Fatal(err)
	}
	lpp := LinesPerPage(g)
	banksOf := func(frame uint64) map[int]bool {
		out := make(map[int]bool)
		for l := uint64(0); l < lpp; l++ {
			out[mapper.Map(frame*lpp+l).Bank] = true
		}
		return out
	}
	// Two different domains must never share a bank.
	f1, err := a.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	f2, err := a.Alloc(2)
	if err != nil {
		t.Fatal(err)
	}
	for b := range banksOf(f1) {
		if banksOf(f2)[b] {
			t.Fatalf("domains 1 and 2 share bank %d", b)
		}
	}
	// Same domain stays in its partition.
	f3, err := a.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	p1, _ := a.PartitionOf(1)
	for b := range banksOf(f3) {
		if b*4/g.Banks != p1 {
			t.Fatalf("domain 1 frame in bank %d outside partition %d", b, p1)
		}
	}
}

func TestBankAwareRejectsInterleavedMapper(t *testing.T) {
	g := dram.DefaultGeometry()
	if _, err := NewBankAware(addr.NewLineInterleave(g), 4); err == nil {
		t.Fatal("bank-aware allocator accepted an interleaved mapping (pages span banks)")
	}
}

func TestGuardRowSpacing(t *testing.T) {
	g := dram.DefaultGeometry()
	mapper := addr.NewLineInterleave(g)
	const radius = 2
	a, err := NewGuardRow(mapper, radius)
	if err != nil {
		t.Fatal(err)
	}
	lpp := LinesPerPage(g)
	var rows []int
	for i := 0; i < 20; i++ {
		f, err := a.Alloc(i % 3)
		if err != nil {
			t.Fatal(err)
		}
		for l := uint64(0); l < lpp; l++ {
			rows = append(rows, mapper.Map(f*lpp+l).Row)
		}
	}
	for _, r := range rows {
		if r%(radius+1) != 0 {
			t.Fatalf("allocated row %d is not on a guard-row stripe", r)
		}
	}
	if frac := a.UsableFraction(); frac != 1.0/3 {
		t.Fatalf("usable fraction = %g, want 1/3", frac)
	}
}

func TestGuardRowValidation(t *testing.T) {
	g := dram.DefaultGeometry()
	if _, err := NewGuardRow(addr.NewLineInterleave(g), 0); err == nil {
		t.Fatal("radius 0 accepted")
	}
}

func TestSubarrayAwareConfinesDomains(t *testing.T) {
	g := dram.DefaultGeometry()
	part, err := addr.NewPartition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := addr.NewSubarrayIsolated(addr.NewLineInterleave(g), part)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSubarrayAware(iso)
	if err != nil {
		t.Fatal(err)
	}
	var assigned []int
	a.OnAssign = func(domain, group int) { assigned = append(assigned, group) }
	lpp := LinesPerPage(g)
	// Property: every line of every page of a domain maps into the
	// domain's assigned group.
	f := func(domainRaw, pageRaw uint8) bool {
		domain := int(domainRaw%4) + 1
		frame, err := a.Alloc(domain)
		if err != nil {
			return false
		}
		grp, ok := a.GroupOf(domain)
		if !ok {
			return false
		}
		for l := uint64(0); l < lpp; l++ {
			if iso.GroupOfLine(frame*lpp+l) != grp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
	if len(assigned) == 0 {
		t.Fatal("OnAssign never fired")
	}
}

func TestSubarrayAwareDistinctGroups(t *testing.T) {
	g := dram.DefaultGeometry()
	part, err := addr.NewPartition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := addr.NewSubarrayIsolated(addr.NewLineInterleave(g), part)
	if err != nil {
		t.Fatal(err)
	}
	a, err := NewSubarrayAware(iso)
	if err != nil {
		t.Fatal(err)
	}
	groups := make(map[int]bool)
	for d := 1; d <= 4; d++ {
		if _, err := a.Alloc(d); err != nil {
			t.Fatal(err)
		}
		grp, _ := a.GroupOf(d)
		if groups[grp] {
			t.Fatalf("group %d assigned twice among 4 domains", grp)
		}
		groups[grp] = true
	}
}

func TestRefreshVAUsesHostPrivilege(t *testing.T) {
	k := buildKernel(t, nil, linearAlloc)
	d := k.CreateDomain("vm", false, false)
	if _, err := k.AllocPages(d.ID, 0, 1); err != nil {
		t.Fatal(err)
	}
	// The kernel refreshes on behalf of the domain: must succeed even
	// though the domain itself is unprivileged.
	if _, err := k.RefreshVA(d.ID, 0, true, 0); err != nil {
		t.Fatal(err)
	}
	if k.Stats().Counter("os.refresh_instr") != 1 {
		t.Fatal("refresh not counted")
	}
}

func TestBankAwareFreeReturnsToPartition(t *testing.T) {
	g := dram.DefaultGeometry()
	a, err := NewBankAware(addr.NewRowRegion(g), 4)
	if err != nil {
		t.Fatal(err)
	}
	f, err := a.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Free(f); err != nil {
		t.Fatal(err)
	}
	if err := a.Free(f); err == nil {
		t.Fatal("double free accepted")
	}
	// The freed frame is reusable by the same partition.
	f2, err := a.Alloc(1)
	if err != nil {
		t.Fatal(err)
	}
	_ = f2
}

func TestOwnerOfRowSeesAllOwners(t *testing.T) {
	k := buildKernel(t, nil, linearAlloc)
	a := k.CreateDomain("a", false, false)
	b := k.CreateDomain("b", false, false)
	// Interleave allocations: a row stripe holds 16 frames, so both
	// domains appear in row 0 of every bank.
	for p := 0; p < 8; p++ {
		if _, err := k.AllocPages(a.ID, uint64(p), 1); err != nil {
			t.Fatal(err)
		}
		if _, err := k.AllocPages(b.ID, uint64(p), 1); err != nil {
			t.Fatal(err)
		}
	}
	owners := k.OwnerOfRow(addr.DDR{Bank: 0, Row: 0})
	if !owners[a.ID] || !owners[b.ID] {
		t.Fatalf("row owners = %v, want both domains", owners)
	}
}

func TestMigratePreservesData(t *testing.T) {
	mod, err := dram.NewModule(dram.Config{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	mapper := addr.NewLineInterleave(mod.Geometry())
	mc, err := memctrl.NewController(memctrl.Config{Mapper: mapper, DRAM: mod, OpenPage: true})
	if err != nil {
		t.Fatal(err)
	}
	k, err := NewKernel(mc, NewLinear(mod.Geometry()))
	if err != nil {
		t.Fatal(err)
	}
	d := k.CreateDomain("vm", false, false)
	frames, err := k.AllocPages(d.ID, 0, 1)
	if err != nil {
		t.Fatal(err)
	}
	// NOTE: the simulator copies page contents as requests, not bytes —
	// data is modeled in the DRAM module; migration re-maps. Verify the
	// mapping moved and the old frame was released for reuse.
	_ = frames
	res, err := k.MigratePage(d.ID, 0, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.NewFrame == res.OldFrame {
		t.Fatal("migration did not move")
	}
	// Old frame must be allocatable again.
	d2 := k.CreateDomain("vm2", false, false)
	seen := false
	for i := 0; i < 8; i++ {
		f, err := k.alloc.Alloc(d2.ID)
		if err != nil {
			break
		}
		if f == res.OldFrame {
			seen = true
			break
		}
	}
	if !seen {
		t.Fatal("old frame never returned to the pool")
	}
}
