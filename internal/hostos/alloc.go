package hostos

import (
	"errors"
	"fmt"

	"hammertime/internal/addr"
	"hammertime/internal/dram"
	"hammertime/internal/sim"
)

// ErrOutOfMemory is returned when an allocator cannot satisfy a request
// under its placement policy.
var ErrOutOfMemory = errors.New("hostos: out of memory under placement policy")

// Allocator hands out physical page frames under a placement policy.
// Frame numbers index PageSize-sized units of the physical space.
type Allocator interface {
	// Name identifies the policy in reports.
	Name() string
	// Alloc returns a frame for the given domain.
	Alloc(domain int) (uint64, error)
	// Free returns a frame to the pool.
	Free(frame uint64) error
}

// RandomAllocator is implemented by allocators that can hand out a
// uniformly random free frame for a domain — what wear-leveling page
// migration (§4.2) wants, so relocated pages land in fresh, unpredictable
// neighborhoods.
type RandomAllocator interface {
	AllocRandom(domain int, rng *sim.RNG) (uint64, error)
}

// LinesPerPage returns how many cache lines one page spans.
func LinesPerPage(g dram.Geometry) uint64 { return PageSize / uint64(g.LineBytes) }

// TotalFrames returns how many page frames the module provides.
func TotalFrames(g dram.Geometry) uint64 { return g.TotalBytes() / PageSize }

// freePool hands out one policy's frames: released frames first, most
// recently released first, then untouched frames in ascending order.
// Untouched frames are classified lazily — seek runs only when alloc
// needs the next one — so a pool costs O(frames handed out), not
// O(frames in the module), while handing out exactly the sequence an
// eagerly built stack of every admitted frame would.
type freePool struct {
	// stack holds released frames, allocated from the end.
	stack []uint64
	// next is the lowest untouched frame; untouched frames lie in
	// [next, end) and only those the policy admits belong to the pool.
	next, end uint64
	// seek returns the lowest admitted frame at or above its argument,
	// or end or more if there is none; nil admits every frame.
	seek  func(frame uint64) uint64
	base  uint64   // lowest frame the pool can hold
	inUse []uint64 // bitset over [base, end)
	// moved records the frames allocRandom's swaps put into untouched
	// slots; see slot.
	moved map[uint64]uint64
}

// newFreePool returns a pool over the frames in [lo, hi) that seek
// finds.
func newFreePool(lo, hi uint64, seek func(uint64) uint64) *freePool {
	return &freePool{next: lo, end: hi, seek: seek, base: lo, inUse: make([]uint64, (hi-lo+63)/64)}
}

// advance moves the cursor to the lowest untouched frame the pool admits
// and reports whether one exists.
func (p *freePool) advance() bool {
	if p.next < p.end && p.seek != nil {
		p.next = min(p.seek(p.next), p.end)
	}
	return p.next < p.end
}

// holds reports whether frame is allocated from the pool.
func (p *freePool) holds(frame uint64) bool {
	if frame < p.base || frame >= p.end {
		return false
	}
	i := frame - p.base
	return p.inUse[i/64]&(1<<(i%64)) != 0
}

func (p *freePool) setInUse(frame uint64, on bool) {
	i := frame - p.base
	if on {
		p.inUse[i/64] |= 1 << (i % 64)
	} else {
		p.inUse[i/64] &^= 1 << (i % 64)
	}
}

func (p *freePool) alloc() (uint64, error) {
	var f uint64
	if n := len(p.stack); n > 0 {
		f = p.stack[n-1]
		p.stack = p.stack[:n-1]
	} else if p.advance() {
		f = p.slot(p.end - 1 - p.next)
		delete(p.moved, p.end-1-p.next)
		p.next++
	} else {
		return 0, ErrOutOfMemory
	}
	p.setInUse(f, true)
	return f, nil
}

// An unclassified pool (seek nil) is, slot for slot, the stack an
// eager pool holds: untouched frames descending, then the released
// frames. Slot i < end−next is untouched slot i, which holds frame
// end−1−i unless an allocRandom swap moved another frame there; slots
// from end−next on are the released stack.
func (p *freePool) slot(i uint64) uint64 {
	if n := p.end - p.next; i >= n {
		return p.stack[i-n]
	}
	if f, ok := p.moved[i]; ok {
		return f
	}
	return p.end - 1 - i
}

func (p *freePool) setSlot(i, frame uint64) {
	switch n := p.end - p.next; {
	case i >= n:
		p.stack[i-n] = frame
	case frame == p.end-1-i:
		delete(p.moved, i)
	default:
		if p.moved == nil {
			p.moved = make(map[uint64]uint64)
		}
		p.moved[i] = frame
	}
}

// allocRandom takes a uniformly random free frame — used by wear-leveling
// migration so relocated pages land in fresh neighborhoods (and attackers
// cannot predict the new location). The draw indexes the slots of an
// unclassified pool (the only kind the RandomAllocators have), so it
// picks the frame an eager pool would, and swaps it to the top as an
// eager pool does, without building the stack.
func (p *freePool) allocRandom(rng *sim.RNG) (uint64, error) {
	total := p.end - p.next + uint64(len(p.stack))
	if total == 0 {
		return 0, ErrOutOfMemory
	}
	if i, last := uint64(rng.Intn(int(total))), total-1; i != last {
		fi, fl := p.slot(i), p.slot(last)
		p.setSlot(i, fl)
		p.setSlot(last, fi)
	}
	return p.alloc()
}

func (p *freePool) release(frame uint64) error {
	if !p.holds(frame) {
		return fmt.Errorf("hostos: free of frame %d not allocated from this pool", frame)
	}
	p.setInUse(frame, false)
	p.stack = append(p.stack, frame)
	return nil
}

// Linear allocates frames in ascending order with no placement policy —
// the Rowhammer-oblivious default against which defenses are compared.
type Linear struct {
	pool *freePool
}

// NewLinear returns a policy-free allocator over the whole module.
func NewLinear(g dram.Geometry) *Linear {
	return &Linear{pool: newFreePool(0, TotalFrames(g), nil)}
}

// Name implements Allocator.
func (a *Linear) Name() string { return "linear" }

// Alloc implements Allocator.
func (a *Linear) Alloc(int) (uint64, error) { return a.pool.alloc() }

// Free implements Allocator.
func (a *Linear) Free(frame uint64) error { return a.pool.release(frame) }

// AllocRandom implements RandomAllocator.
func (a *Linear) AllocRandom(_ int, rng *sim.RNG) (uint64, error) {
	return a.pool.allocRandom(rng)
}

// BankAware is a PALLOC-style allocator: each domain is confined to its
// own set of banks, so no two domains share a bank and no cross-domain
// aggressor-victim pair exists. It requires a row-region mapping (bank
// interleaving disabled), which is exactly why §4.1 criticizes it: the
// domain loses bank-level parallelism.
type BankAware struct {
	mapper  addr.Mapper
	domains int
	lpp     uint64
	frames  uint64
	parts   []int       // bank -> partition
	pools   []*freePool // per bank-partition
	assign  map[int]int // domain -> partition
	nextPar int
	rows    []addr.RowLine // uniformIn's footprint buffer
}

// NewBankAware partitions the mapper's banks into `domains` equal groups.
// Each partition's pool admits the frames every line of which falls in
// the partition's banks. The mapper must lay each bank out as one
// contiguous line range (addr.BankRegion): with bank interleaving on,
// pages span banks, and construction fails.
//
// A pool's cursor starts at its partition's lowest admitted frame,
// found without a frame scan. An admitted frame F starts inside the line
// region of one of the partition's banks. The first frame f starting in
// that region either lies wholly inside it, and is admitted, or runs
// past its end, and then no other frame starts in the region, so f = F.
// The lowest admitted frame is thus the lowest admitted first frame of
// a region, and no frame starting past every region is admitted.
func NewBankAware(mapper addr.Mapper, domains int) (*BankAware, error) {
	g := mapper.Geometry()
	if domains <= 0 || domains > g.Banks {
		return nil, fmt.Errorf("hostos: bank-aware allocator: %d domains for %d banks", domains, g.Banks)
	}
	a := &BankAware{
		mapper:  mapper,
		domains: domains,
		lpp:     LinesPerPage(g),
		frames:  TotalFrames(g),
		parts:   make([]int, g.Banks),
		pools:   make([]*freePool, domains),
		assign:  make(map[int]int),
		rows:    make([]addr.RowLine, 0, LinesPerPage(g)),
	}
	first := make([]uint64, domains) // lowest admitted frame per partition
	end := make([]uint64, domains)   // past the last frame starting in a region
	for par := range first {
		first[par] = a.frames
	}
	for b := range a.parts {
		a.parts[b] = b * domains / g.Banks
	}
	for b, par := range a.parts {
		lo, hi, ok := addr.BankRegion(mapper, b)
		if !ok {
			continue
		}
		if f := (lo + a.lpp - 1) / a.lpp; f < first[par] && a.uniformIn(f, par) {
			first[par] = f
		}
		end[par] = max(end[par], min((hi+a.lpp-1)/a.lpp, a.frames))
	}
	for par := range a.pools {
		if first[par] == a.frames {
			return nil, fmt.Errorf("hostos: bank-aware allocator: partition %d has no uniform frames under mapper %q (bank interleaving must be disabled)", par, mapper.Name())
		}
		a.pools[par] = newFreePool(first[par], end[par], func(f uint64) uint64 {
			for f < end[par] && !a.uniformIn(f, par) {
				f++
			}
			return f
		})
	}
	return a, nil
}

// partitionOf returns the bank partition a line maps to.
func (a *BankAware) partitionOf(line uint64) int {
	return a.parts[a.mapper.Map(line).Bank]
}

// uniformIn reports whether every line of frame f falls in partition par.
func (a *BankAware) uniformIn(f uint64, par int) bool {
	a.rows = addr.AppendRows(a.rows[:0], a.mapper, f*a.lpp, a.lpp)
	for _, r := range a.rows {
		if a.parts[r.Bank] != par {
			return false
		}
	}
	return true
}

// Name implements Allocator.
func (a *BankAware) Name() string { return "bank-aware" }

// Alloc implements Allocator.
func (a *BankAware) Alloc(domain int) (uint64, error) {
	par, ok := a.assign[domain]
	if !ok {
		par = a.nextPar % a.domains
		a.assign[domain] = par
		a.nextPar++
	}
	f, err := a.pools[par].alloc()
	if err != nil {
		return 0, fmt.Errorf("hostos: bank-aware: domain %d (partition %d): %w", domain, par, err)
	}
	return f, nil
}

// Free implements Allocator. An allocated frame lies wholly in one
// partition, so its first line names the pool that holds it.
func (a *BankAware) Free(frame uint64) error {
	if frame < a.frames {
		if pool := a.pools[a.partitionOf(frame*a.lpp)]; pool.holds(frame) {
			return pool.release(frame)
		}
	}
	return fmt.Errorf("hostos: bank-aware: free of unallocated frame %d", frame)
}

// PartitionOf returns the bank partition assigned to domain, if any.
func (a *BankAware) PartitionOf(domain int) (int, bool) {
	p, ok := a.assign[domain]
	return p, ok
}

// GuardRow is a ZebRAM-style allocator: only frames whose rows are
// separated from every other usable row by at least `radius` guard rows
// are usable. No aggressor can reach any allocated victim, across or
// within domains — at the cost of 1 - 1/(radius+1) of capacity.
type GuardRow struct {
	pool   *freePool
	radius int
}

// NewGuardRow returns a guard-row allocator for the mapper with the given
// blast radius. It only admits frames every one of whose rows lies in a
// "data stripe": row indices r with (r % (radius+1)) == 0.
func NewGuardRow(mapper addr.Mapper, radius int) (*GuardRow, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("hostos: guard-row allocator: radius %d, need > 0", radius)
	}
	g := mapper.Geometry()
	lpp := LinesPerPage(g)
	stride := radius + 1
	frames := TotalFrames(g)
	rows := make([]addr.RowLine, 0, lpp)
	pool := newFreePool(0, frames, func(f uint64) uint64 {
	next:
		for f < frames {
			line := f * lpp
			// The first line's row alone rejects most frames, and with
			// it every frame that starts before that row's run ends.
			run := addr.RowRunEnd(mapper, line)
			if mapper.Map(line).Row%stride != 0 {
				f = (run + lpp - 1) / lpp
				continue
			}
			if line+lpp <= run {
				return f // one row index throughout
			}
			rows = addr.AppendRows(rows[:0], mapper, line, lpp)
			for _, r := range rows {
				if r.Row%stride != 0 {
					f++
					continue next
				}
			}
			return f
		}
		return f
	})
	if !pool.advance() {
		return nil, fmt.Errorf("hostos: guard-row allocator: no usable frames under mapper %q with radius %d", mapper.Name(), radius)
	}
	return &GuardRow{pool: pool, radius: radius}, nil
}

// Name implements Allocator.
func (a *GuardRow) Name() string { return "zebram-guard" }

// Alloc implements Allocator.
func (a *GuardRow) Alloc(int) (uint64, error) { return a.pool.alloc() }

// Free implements Allocator.
func (a *GuardRow) Free(frame uint64) error { return a.pool.release(frame) }

// UsableFraction returns the fraction of capacity the policy can serve.
func (a *GuardRow) UsableFraction() float64 { return 1 / float64(a.radius+1) }

// SubarrayAware implements the paper's §4.1 software half: each domain
// allocates only frames from its subarray group's region, so domains are
// electromagnetically isolated while keeping full bank interleaving.
type SubarrayAware struct {
	mapper *addr.SubarrayIsolated
	pools  []*freePool
	assign map[int]int
	next   int
	// OnAssign, if set, is called when a domain is bound to a group —
	// the kernel uses it to register the pair with the MC enforcer.
	OnAssign func(domain, group int)
}

// NewSubarrayAware returns an allocator over the mapper's group regions.
func NewSubarrayAware(mapper *addr.SubarrayIsolated) (*SubarrayAware, error) {
	g := mapper.Geometry()
	lpp := LinesPerPage(g)
	part := mapper.Partition()
	a := &SubarrayAware{
		mapper: mapper,
		pools:  make([]*freePool, part.Groups()),
		assign: make(map[int]int),
	}
	for grp := 0; grp < part.Groups(); grp++ {
		lo, hi, err := mapper.RegionBounds(grp)
		if err != nil {
			return nil, err
		}
		// Frames from the one holding line lo up to the last that ends
		// by hi; ranges of consecutive groups are disjoint.
		a.pools[grp] = newFreePool(lo/lpp, hi/lpp, nil)
		if !a.pools[grp].advance() {
			return nil, fmt.Errorf("hostos: subarray-aware allocator: group %d region is empty", grp)
		}
	}
	return a, nil
}

// Name implements Allocator.
func (a *SubarrayAware) Name() string { return "subarray-aware" }

// Alloc implements Allocator.
func (a *SubarrayAware) Alloc(domain int) (uint64, error) {
	grp, ok := a.assign[domain]
	if !ok {
		grp = a.next % len(a.pools)
		a.assign[domain] = grp
		a.next++
		if a.OnAssign != nil {
			a.OnAssign(domain, grp)
		}
	}
	f, err := a.pools[grp].alloc()
	if err != nil {
		return 0, fmt.Errorf("hostos: subarray-aware: domain %d (group %d): %w", domain, grp, err)
	}
	return f, nil
}

// Free implements Allocator.
func (a *SubarrayAware) Free(frame uint64) error {
	for _, pool := range a.pools {
		if pool.holds(frame) {
			return pool.release(frame)
		}
	}
	return fmt.Errorf("hostos: subarray-aware: free of unallocated frame %d", frame)
}

// GroupOf returns the subarray group assigned to domain, if any.
func (a *SubarrayAware) GroupOf(domain int) (int, bool) {
	g, ok := a.assign[domain]
	return g, ok
}

// AllocRandom implements RandomAllocator within the domain's group.
func (a *SubarrayAware) AllocRandom(domain int, rng *sim.RNG) (uint64, error) {
	grp, ok := a.assign[domain]
	if !ok {
		return a.Alloc(domain) // first allocation also assigns the group
	}
	f, err := a.pools[grp].allocRandom(rng)
	if err != nil {
		return 0, fmt.Errorf("hostos: subarray-aware: domain %d (group %d): %w", domain, grp, err)
	}
	return f, nil
}
