package hostos

import (
	"fmt"

	"hammertime/internal/addr"
	"hammertime/internal/dram"
	"hammertime/internal/sim"
)

// The eager allocators below are the reference the lazy pools are
// checked against (alloc_diff_test.go): each constructor classifies
// every frame of the module up front into an explicit stack, exactly as
// the allocators did before their pools became lazy cursors.

type eagerPool struct {
	free  []uint64 // stack; allocated from the end
	inUse map[uint64]bool
}

func newEagerPool(frames []uint64) *eagerPool {
	rev := make([]uint64, len(frames))
	for i, f := range frames {
		rev[len(frames)-1-i] = f
	}
	return &eagerPool{free: rev, inUse: make(map[uint64]bool)}
}

func (p *eagerPool) alloc() (uint64, error) {
	if len(p.free) == 0 {
		return 0, ErrOutOfMemory
	}
	f := p.free[len(p.free)-1]
	p.free = p.free[:len(p.free)-1]
	p.inUse[f] = true
	return f, nil
}

func (p *eagerPool) allocRandom(rng *sim.RNG) (uint64, error) {
	if len(p.free) == 0 {
		return 0, ErrOutOfMemory
	}
	i := rng.Intn(len(p.free))
	last := len(p.free) - 1
	p.free[i], p.free[last] = p.free[last], p.free[i]
	return p.alloc()
}

func (p *eagerPool) release(frame uint64) error {
	if !p.inUse[frame] {
		return fmt.Errorf("hostos: free of frame %d not allocated from this pool", frame)
	}
	delete(p.inUse, frame)
	p.free = append(p.free, frame)
	return nil
}

type eagerLinear struct{ pool *eagerPool }

func newEagerLinear(g dram.Geometry) *eagerLinear {
	frames := make([]uint64, TotalFrames(g))
	for i := range frames {
		frames[i] = uint64(i)
	}
	return &eagerLinear{pool: newEagerPool(frames)}
}

func (a *eagerLinear) Name() string              { return "linear" }
func (a *eagerLinear) Alloc(int) (uint64, error) { return a.pool.alloc() }
func (a *eagerLinear) Free(frame uint64) error   { return a.pool.release(frame) }
func (a *eagerLinear) AllocRandom(_ int, rng *sim.RNG) (uint64, error) {
	return a.pool.allocRandom(rng)
}

type eagerBankAware struct {
	domains int
	pools   []*eagerPool
	assign  map[int]int
	nextPar int
	owner   map[uint64]int
}

func newEagerBankAware(mapper addr.Mapper, domains int) (*eagerBankAware, error) {
	g := mapper.Geometry()
	if domains <= 0 || domains > g.Banks {
		return nil, fmt.Errorf("hostos: bank-aware allocator: %d domains for %d banks", domains, g.Banks)
	}
	a := &eagerBankAware{
		domains: domains,
		pools:   make([]*eagerPool, domains),
		assign:  make(map[int]int),
		owner:   make(map[uint64]int),
	}
	lpp := LinesPerPage(g)
	buckets := make([][]uint64, domains)
	for f := uint64(0); f < TotalFrames(g); f++ {
		par := -1
		uniform := true
		for l := uint64(0); l < lpp; l++ {
			b := mapper.Map(f*lpp + l).Bank
			p := b * domains / g.Banks
			if par == -1 {
				par = p
			} else if par != p {
				uniform = false
				break
			}
		}
		if uniform && par >= 0 {
			buckets[par] = append(buckets[par], f)
		}
	}
	for i := range a.pools {
		if len(buckets[i]) == 0 {
			return nil, fmt.Errorf("hostos: bank-aware allocator: partition %d has no uniform frames under mapper %q (bank interleaving must be disabled)", i, mapper.Name())
		}
		a.pools[i] = newEagerPool(buckets[i])
	}
	return a, nil
}

func (a *eagerBankAware) Name() string { return "bank-aware" }

func (a *eagerBankAware) Alloc(domain int) (uint64, error) {
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
	a.owner[f] = par
	return f, nil
}

func (a *eagerBankAware) Free(frame uint64) error {
	par, ok := a.owner[frame]
	if !ok {
		return fmt.Errorf("hostos: bank-aware: free of unallocated frame %d", frame)
	}
	delete(a.owner, frame)
	return a.pools[par].release(frame)
}

type eagerGuardRow struct{ pool *eagerPool }

func newEagerGuardRow(mapper addr.Mapper, radius int) (*eagerGuardRow, error) {
	if radius <= 0 {
		return nil, fmt.Errorf("hostos: guard-row allocator: radius %d, need > 0", radius)
	}
	g := mapper.Geometry()
	lpp := LinesPerPage(g)
	var frames []uint64
	stride := radius + 1
	for f := uint64(0); f < TotalFrames(g); f++ {
		usable := true
		for l := uint64(0); l < lpp; l++ {
			if mapper.Map(f*lpp+l).Row%stride != 0 {
				usable = false
				break
			}
		}
		if usable {
			frames = append(frames, f)
		}
	}
	if len(frames) == 0 {
		return nil, fmt.Errorf("hostos: guard-row allocator: no usable frames under mapper %q with radius %d", mapper.Name(), radius)
	}
	return &eagerGuardRow{pool: newEagerPool(frames)}, nil
}

func (a *eagerGuardRow) Name() string              { return "zebram-guard" }
func (a *eagerGuardRow) Alloc(int) (uint64, error) { return a.pool.alloc() }
func (a *eagerGuardRow) Free(frame uint64) error   { return a.pool.release(frame) }

type eagerSubarrayAware struct {
	pools  []*eagerPool
	assign map[int]int
	next   int
	owner  map[uint64]int
}

func newEagerSubarrayAware(mapper *addr.SubarrayIsolated) (*eagerSubarrayAware, error) {
	g := mapper.Geometry()
	lpp := LinesPerPage(g)
	part := mapper.Partition()
	a := &eagerSubarrayAware{
		pools:  make([]*eagerPool, part.Groups()),
		assign: make(map[int]int),
		owner:  make(map[uint64]int),
	}
	for grp := 0; grp < part.Groups(); grp++ {
		lo, hi, err := mapper.RegionBounds(grp)
		if err != nil {
			return nil, err
		}
		var frames []uint64
		for f := lo / lpp; f*lpp+lpp <= hi; f++ {
			frames = append(frames, f)
		}
		if len(frames) == 0 {
			return nil, fmt.Errorf("hostos: subarray-aware allocator: group %d region is empty", grp)
		}
		a.pools[grp] = newEagerPool(frames)
	}
	return a, nil
}

func (a *eagerSubarrayAware) Name() string { return "subarray-aware" }

func (a *eagerSubarrayAware) Alloc(domain int) (uint64, error) {
	grp, ok := a.assign[domain]
	if !ok {
		grp = a.next % len(a.pools)
		a.assign[domain] = grp
		a.next++
	}
	f, err := a.pools[grp].alloc()
	if err != nil {
		return 0, fmt.Errorf("hostos: subarray-aware: domain %d (group %d): %w", domain, grp, err)
	}
	a.owner[f] = grp
	return f, nil
}

func (a *eagerSubarrayAware) Free(frame uint64) error {
	grp, ok := a.owner[frame]
	if !ok {
		return fmt.Errorf("hostos: subarray-aware: free of unallocated frame %d", frame)
	}
	delete(a.owner, frame)
	return a.pools[grp].release(frame)
}

func (a *eagerSubarrayAware) AllocRandom(domain int, rng *sim.RNG) (uint64, error) {
	grp, ok := a.assign[domain]
	if !ok {
		return a.Alloc(domain)
	}
	f, err := a.pools[grp].allocRandom(rng)
	if err != nil {
		return 0, fmt.Errorf("hostos: subarray-aware: domain %d (group %d): %w", domain, grp, err)
	}
	a.owner[f] = grp
	return f, nil
}
