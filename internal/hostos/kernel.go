package hostos

import (
	"fmt"
	"math/bits"

	"hammertime/internal/addr"
	"hammertime/internal/dram"
	"hammertime/internal/memctrl"
	"hammertime/internal/obs"
	"hammertime/internal/sim"
)

// Kernel is the trusted host OS: it owns the domains, the physical page
// allocator, per-domain page tables, and the privileged interfaces to the
// memory controller (refresh instruction, domain registration, page
// migration). Software defenses act through the kernel.
type Kernel struct {
	mc     *memctrl.Controller
	mapper addr.Mapper
	geom   dram.Geometry
	alloc  Allocator
	// lineShift is log2(LineBytes) when LineBytes is a power of two,
	// else -1: Translate then shifts instead of dividing.
	lineShift int

	// domains and tables are indexed by domain ID: IDs are handed out
	// densely from HostDomain, so the next ID is len(domains).
	domains []*Domain
	tables  []*PageTable

	// owner is indexed by frame and holds the owning domain's ID plus
	// one (0: unallocated).
	owner []int32

	// lockedUp is set when an integrity-checked domain's memory is
	// corrupted: the machine detects the flip and halts (§4.4 DoS).
	lockedUp bool

	// migrateRNG, when set, makes MigratePage place pages at uniformly
	// random free frames (wear-leveling placement, §4.2).
	migrateRNG *sim.RNG
	// uncoreMove, when set, copies migrated pages with the controller's
	// uncore move instruction instead of per-line read+write round trips.
	uncoreMove bool

	stats                         *sim.Stats
	pagesAllocated, pagesMigrated sim.LazyCounter
	rec                           *obs.Recorder
}

// NewKernel builds a kernel over the controller and allocator. Domain 0
// (the host itself) is created implicitly.
func NewKernel(mc *memctrl.Controller, alloc Allocator) (*Kernel, error) {
	if mc == nil {
		return nil, fmt.Errorf("hostos: kernel needs a memory controller")
	}
	if alloc == nil {
		return nil, fmt.Errorf("hostos: kernel needs an allocator")
	}
	geom := mc.Mapper().Geometry()
	k := &Kernel{
		mc:      mc,
		mapper:  mc.Mapper(),
		geom:    geom,
		alloc:   alloc,
		domains: []*Domain{{ID: HostDomain, Name: "host"}},
		tables:  []*PageTable{NewPageTable()},
		stats:   &sim.Stats{},
	}
	k.lineShift = -1
	if lb := geom.LineBytes; lb&(lb-1) == 0 {
		k.lineShift = bits.TrailingZeros(uint(lb))
	}
	k.owner, _ = ownerTables.Get(int(TotalFrames(geom)))
	k.pagesAllocated = k.stats.LazyCounter("os.pages_allocated")
	k.pagesMigrated = k.stats.LazyCounter("os.pages_migrated")
	// If the allocator is subarray-aware and the MC enforces groups,
	// register assignments as they happen.
	if sa, ok := alloc.(*SubarrayAware); ok {
		if enf := mc.Enforcer(); enf != nil {
			sa.OnAssign = func(domain, group int) {
				// Registration failures are programming errors
				// (group out of range) surfaced at assign time.
				if err := enf.AssignDomain(domain, group); err != nil {
					panic(fmt.Sprintf("hostos: enforcer registration: %v", err))
				}
			}
		}
	}
	return k, nil
}

// ownerTables recycles released kernels' frame-owner tables.
var ownerTables = sim.NewFreeList[int32]()

// Release hands the kernel's frame-owner table back for reuse by the
// next NewKernel. The kernel must not be used afterwards: every frame
// reads as unowned. Releasing twice is a no-op.
func (k *Kernel) Release() {
	ownerTables.Put(k.owner)
	k.owner = nil
}

// Stats returns the kernel's stats registry.
func (k *Kernel) Stats() *sim.Stats { return k.stats }

// SetRecorder attaches an event recorder (nil disables recording). Pure
// observer: recording changes no kernel behavior.
func (k *Kernel) SetRecorder(r *obs.Recorder) { k.rec = r }

// Allocator returns the kernel's page allocator.
func (k *Kernel) Allocator() Allocator { return k.alloc }

// CreateDomain registers a new trust domain and returns it.
func (k *Kernel) CreateDomain(name string, enclave, integrityChecked bool) *Domain {
	d := &Domain{ID: len(k.domains), Name: name, Enclave: enclave, IntegrityChecked: integrityChecked}
	k.domains = append(k.domains, d)
	k.tables = append(k.tables, NewPageTable())
	return d
}

// Domain returns the domain with the given ID.
func (k *Kernel) Domain(id int) (*Domain, bool) {
	if id < 0 || id >= len(k.domains) {
		return nil, false
	}
	return k.domains[id], true
}

// PageTable returns the domain's page table.
func (k *Kernel) PageTable(domain int) (*PageTable, error) {
	if domain < 0 || domain >= len(k.tables) {
		return nil, fmt.Errorf("hostos: unknown domain %d", domain)
	}
	return k.tables[domain], nil
}

// AllocPages allocates and maps n pages at consecutive VPNs starting at
// startVPN for the domain, returning the allocated frames.
func (k *Kernel) AllocPages(domain int, startVPN uint64, n int) ([]uint64, error) {
	pt, err := k.PageTable(domain)
	if err != nil {
		return nil, err
	}
	frames := make([]uint64, 0, n)
	for i := 0; i < n; i++ {
		f, err := k.allocPage(pt, domain, startVPN+uint64(i))
		if err != nil {
			return frames, fmt.Errorf("hostos: alloc page %d for domain %d: %w", i, domain, err)
		}
		frames = append(frames, f)
	}
	return frames, nil
}

// AllocPage allocates one page for the domain, maps it at vpn and
// returns its frame: AllocPages for a single page, without the slice.
func (k *Kernel) AllocPage(domain int, vpn uint64) (uint64, error) {
	pt, err := k.PageTable(domain)
	if err != nil {
		return 0, err
	}
	f, err := k.allocPage(pt, domain, vpn)
	if err != nil {
		return 0, fmt.Errorf("hostos: alloc page for domain %d: %w", domain, err)
	}
	return f, nil
}

func (k *Kernel) allocPage(pt *PageTable, domain int, vpn uint64) (uint64, error) {
	f, err := k.alloc.Alloc(domain)
	if err != nil {
		return 0, err
	}
	pt.Map(vpn, f)
	k.owner[f] = int32(domain) + 1
	k.pagesAllocated.Inc()
	return f, nil
}

// FreePage unmaps and frees the domain's page at vpn.
func (k *Kernel) FreePage(domain int, vpn uint64) error {
	pt, err := k.PageTable(domain)
	if err != nil {
		return err
	}
	frame, ok := pt.Frame(vpn)
	if !ok {
		return fmt.Errorf("hostos: domain %d vpn %d not mapped", domain, vpn)
	}
	pt.Unmap(vpn)
	k.owner[frame] = 0
	return k.alloc.Free(frame)
}

// Translate converts a domain-virtual byte address to a physical line
// index (the unit the memory system works in).
func (k *Kernel) Translate(domain int, va uint64) (uint64, error) {
	pt, err := k.PageTable(domain)
	if err != nil {
		return 0, err
	}
	pa, err := pt.Translate(va)
	if err != nil {
		return 0, err
	}
	if k.lineShift >= 0 {
		return pa >> k.lineShift, nil
	}
	return pa / uint64(k.geom.LineBytes), nil
}

// OwnerOfLine returns the domain owning the physical line, if allocated.
func (k *Kernel) OwnerOfLine(line uint64) (int, bool) {
	return k.ownerOfFrame(line * uint64(k.geom.LineBytes) / PageSize)
}

func (k *Kernel) ownerOfFrame(frame uint64) (int, bool) {
	if frame >= uint64(len(k.owner)) || k.owner[frame] == 0 {
		return 0, false
	}
	return int(k.owner[frame]) - 1, true
}

// OwnerOfRow returns the set of domains owning lines in the given DDR row.
func (k *Kernel) OwnerOfRow(d addr.DDR) map[int]bool {
	owners := make(map[int]bool)
	for col := 0; col < k.geom.ColumnsPerRow; col++ {
		line := k.mapper.Unmap(addr.DDR{Bank: d.Bank, Row: d.Row, Column: col})
		if owner, ok := k.OwnerOfLine(line); ok {
			owners[owner] = true
		}
	}
	return owners
}

// RefreshVA executes the privileged refresh instruction on the row backing
// the domain-virtual address (§4.3). The kernel runs it as the host.
func (k *Kernel) RefreshVA(domain int, va uint64, autoPrecharge bool, now uint64) (memctrl.ServiceResult, error) {
	line, err := k.Translate(domain, va)
	if err != nil {
		return memctrl.ServiceResult{}, err
	}
	k.stats.Inc("os.refresh_instr")
	return k.mc.RefreshInstruction(line, autoPrecharge, HostDomain, now)
}

// RefreshLine executes the refresh instruction directly on a physical line.
func (k *Kernel) RefreshLine(line uint64, autoPrecharge bool, now uint64) (memctrl.ServiceResult, error) {
	k.stats.Inc("os.refresh_instr")
	return k.mc.RefreshInstruction(line, autoPrecharge, HostDomain, now)
}

// MigrationResult reports the cost of a page migration.
type MigrationResult struct {
	OldFrame, NewFrame uint64
	// Completion is when the copy finished.
	Completion uint64
}

// MigratePage moves the physical page backing (domain, vpn) to a fresh
// frame — the "ACT wear-leveling" response to a precise ACT interrupt
// (§4.2). The copy is issued as kernel read+write traffic so its cost and
// its own activations are modeled faithfully.
func (k *Kernel) MigratePage(domain int, vpn uint64, now uint64) (MigrationResult, error) {
	pt, err := k.PageTable(domain)
	if err != nil {
		return MigrationResult{}, err
	}
	oldFrame, ok := pt.Frame(vpn)
	if !ok {
		return MigrationResult{}, fmt.Errorf("hostos: migrate: domain %d vpn %d not mapped", domain, vpn)
	}
	var newFrame uint64
	if ra, ok := k.alloc.(RandomAllocator); ok && k.migrateRNG != nil {
		newFrame, err = ra.AllocRandom(domain, k.migrateRNG)
	} else {
		newFrame, err = k.alloc.Alloc(domain)
	}
	if err != nil {
		return MigrationResult{}, fmt.Errorf("hostos: migrate: %w", err)
	}
	lpp := LinesPerPage(k.geom)
	t := now
	for l := uint64(0); l < lpp; l++ {
		srcLine := oldFrame*lpp + l
		dstLine := newFrame*lpp + l
		if k.uncoreMove {
			res, err := k.mc.UncoreMove(srcLine, dstLine, HostDomain, t)
			if err != nil {
				return MigrationResult{}, fmt.Errorf("hostos: migrate move: %w", err)
			}
			t = res.Completion
			continue
		}
		src := memctrl.Request{
			Line:   srcLine,
			Domain: HostDomain,
			Source: memctrl.Source{Kind: memctrl.SourceKernel},
		}
		res, err := k.mc.ServeRequest(src, t)
		if err != nil {
			return MigrationResult{}, fmt.Errorf("hostos: migrate read: %w", err)
		}
		dst := src
		dst.Line = dstLine
		dst.Write = true
		res, err = k.mc.ServeRequest(dst, res.Completion)
		if err != nil {
			return MigrationResult{}, fmt.Errorf("hostos: migrate write: %w", err)
		}
		t = res.Completion
	}
	pt.Map(vpn, newFrame)
	k.owner[oldFrame] = 0
	k.owner[newFrame] = int32(domain) + 1
	if err := k.alloc.Free(oldFrame); err != nil {
		return MigrationResult{}, err
	}
	k.pagesMigrated.Inc()
	k.rec.Emit(obs.Event{
		Kind:   obs.KindPageMigration,
		Cycle:  t,
		Bank:   -1,
		Row:    -1,
		Domain: domain,
		Line:   newFrame,
		Arg:    oldFrame,
	})
	return MigrationResult{OldFrame: oldFrame, NewFrame: newFrame, Completion: t}, nil
}

// EnableUncoreMove makes MigratePage copy pages with the controller's
// uncore move instruction (§4.2) instead of per-line round trips.
func (k *Kernel) EnableUncoreMove() { k.uncoreMove = true }

// EnableRandomizedMigration makes MigratePage draw the destination frame
// uniformly at random from the allocator's free pool (when the allocator
// supports it), so successive wear-leveling relocations land in disjoint
// neighborhoods and their disturbance cannot accumulate on one victim.
func (k *Kernel) EnableRandomizedMigration(rng *sim.RNG) { k.migrateRNG = rng }

// VPNOfLine finds which (domain, vpn) maps the physical line. Linear in
// the owning domain's page count; used by defenses reacting to interrupts.
func (k *Kernel) VPNOfLine(line uint64) (domain int, vpn uint64, ok bool) {
	frame := line * uint64(k.geom.LineBytes) / PageSize
	domain, ok = k.ownerOfFrame(frame)
	if !ok {
		return 0, 0, false
	}
	for v, f := range k.tables[domain].frames {
		if f == frame+1 {
			return domain, uint64(v), true
		}
	}
	return 0, 0, false
}

// ReportFlip attributes a DRAM flip event to its victim domain and applies
// enclave semantics: corrupting an integrity-checked domain locks up the
// machine (detected DoS); other domains suffer silent corruption.
// It returns the victim domain (or -1 for unallocated memory) and whether
// the flip crossed trust domains relative to aggressorDomain.
func (k *Kernel) ReportFlip(ev dram.FlipEvent, aggressorDomain int) (victimDomain int, cross bool) {
	line := k.mapper.Unmap(addr.DDR{Bank: ev.Bank, Row: ev.Row, Column: ev.Column})
	victim, ok := k.OwnerOfLine(line)
	if !ok {
		return -1, false
	}
	if d, _ := k.Domain(victim); d != nil && d.IntegrityChecked {
		k.lockedUp = true
		k.stats.Inc("os.integrity_lockups")
	}
	return victim, victim != aggressorDomain
}

// LockedUp reports whether an integrity failure halted the machine.
func (k *Kernel) LockedUp() bool { return k.lockedUp }
