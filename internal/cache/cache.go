// Package cache models a set-associative last-level cache with LRU
// replacement, explicit flush (CLFLUSH), and cache-line locking — the
// way-pinning mechanism §4.2 of "Stop! Hammer Time" proposes as a first
// line of defense against identified aggressor lines (available today on
// many ARM parts).
//
// Rowhammer attacks must reach DRAM, so real attacks flush or evict their
// aggressor lines between accesses; the cache is what makes a locked line
// stop generating ACTs.
package cache

import (
	"errors"
	"fmt"

	"hammertime/internal/obs"
	"hammertime/internal/sim"
)

// Common cache errors.
var (
	// ErrLockBudget is returned when locking a line would exceed the
	// set's locked-way budget.
	ErrLockBudget = errors.New("cache: locked-way budget exhausted for set")
)

// Config describes cache organization.
type Config struct {
	// Sets and Ways give the organization; capacity = Sets*Ways lines.
	Sets int
	Ways int
	// MaxLockedWays bounds how many ways of each set may be locked
	// (0 disables locking).
	MaxLockedWays int
}

// DefaultConfig returns a 2 MiB-like LLC: 2048 sets x 16 ways of 64 B
// lines, with up to 4 lockable ways per set.
func DefaultConfig() Config {
	return Config{Sets: 2048, Ways: 16, MaxLockedWays: 4}
}

// Result describes the outcome of one cache access.
type Result struct {
	// Hit is true when the line was present.
	Hit bool
	// Filled is true when the line was inserted (miss path).
	Filled bool
	// WritebackLine holds the evicted dirty line when Writeback is true.
	Writeback     bool
	WritebackLine uint64
	// Bypassed is true when the set's unlocked ways were exhausted and
	// the access had to go straight to memory without allocation.
	Bypassed bool
}

// Cache is a set-associative LLC model. Not safe for concurrent use.
//
// Way state is flat and set-major: way w of set i lives at index
// i*Ways+w of each array. A tag holds line+1, with 0 marking an invalid
// way, so the hit scan compares one contiguous run of uint64s (line
// indices are below the module size, never MaxUint64). lru is the way's
// last-touch tick (larger = more recent). Release hands the four arrays
// to free lists for the next cache of the same organization.
type Cache struct {
	cfg  Config
	pow2 bool // Sets is a power of two: the set index is line & (Sets-1)
	tick uint64

	tag    []uint64
	lru    []uint64
	dirty  []bool
	locked []bool

	hits, misses, flushes, writebacks uint64
	lockedLines                       map[uint64]bool

	rec   *obs.Recorder
	clock func() uint64 // event timestamps; nil means cycle 0
}

// New validates cfg and builds a cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: need positive sets/ways, got %d/%d", cfg.Sets, cfg.Ways)
	}
	if cfg.MaxLockedWays < 0 || cfg.MaxLockedWays > cfg.Ways {
		return nil, fmt.Errorf("cache: locked-way budget %d out of [0,%d]", cfg.MaxLockedWays, cfg.Ways)
	}
	n := cfg.Sets * cfg.Ways
	c := &Cache{cfg: cfg, lockedLines: make(map[uint64]bool)}
	c.tag, _ = tagArrays.Get(n)
	c.lru, _ = lruArrays.Get(n)
	c.dirty, _ = dirtyArrays.Get(n)
	c.locked, _ = lockedArrays.Get(n)
	c.pow2 = cfg.Sets&(cfg.Sets-1) == 0
	return c, nil
}

// tagArrays, lruArrays, dirtyArrays and lockedArrays recycle released
// caches' way state.
var (
	tagArrays    = sim.NewFreeList[uint64]()
	lruArrays    = sim.NewFreeList[uint64]()
	dirtyArrays  = sim.NewFreeList[bool]()
	lockedArrays = sim.NewFreeList[bool]()
)

// Release hands the cache's way arrays back for reuse by the next New.
// The cache must not be used afterwards: its arrays are gone, so any
// access panics instead of reading another cache's state. Releasing
// twice is a no-op.
func (c *Cache) Release() {
	tagArrays.Put(c.tag)
	lruArrays.Put(c.lru)
	dirtyArrays.Put(c.dirty)
	lockedArrays.Put(c.locked)
	c.tag, c.lru, c.dirty, c.locked = nil, nil, nil, nil
}

// SetRecorder attaches an event recorder and a clock supplying event
// timestamps (the cache model itself is untimed; the machine passes the
// memory controller's current cycle). Pure observer: recording changes no
// cache behavior. nil recorder disables recording.
func (c *Cache) SetRecorder(r *obs.Recorder, clock func() uint64) {
	c.rec = r
	c.clock = clock
}

func (c *Cache) nowCycle() uint64 {
	if c.clock == nil {
		return 0
	}
	return c.clock()
}

// Config returns the cache configuration.
func (c *Cache) Config() Config { return c.cfg }

// setOf returns the index range [lo, hi) of line's set in the way arrays.
func (c *Cache) setOf(line uint64) (lo, hi int) {
	var set uint64
	if c.pow2 {
		set = line & uint64(c.cfg.Sets-1)
	} else {
		set = line % uint64(c.cfg.Sets)
	}
	lo = int(set) * c.cfg.Ways
	return lo, lo + c.cfg.Ways
}

// find returns the way index holding line in [lo, hi), or -1.
func (c *Cache) find(line uint64, lo, hi int) int {
	t := line + 1
	for i, tag := range c.tag[lo:hi] {
		if tag == t {
			return lo + i
		}
	}
	return -1
}

// victim picks the way a fill of [lo, hi) replaces: the first invalid
// way, else the least recently used unlocked way, else -1 (every way
// locked).
func (c *Cache) victim(lo, hi int) int {
	v := -1
	oldest := ^uint64(0)
	for i := lo; i < hi; i++ {
		if c.tag[i] == 0 {
			return i
		}
		if !c.locked[i] && c.lru[i] < oldest {
			oldest = c.lru[i]
			v = i
		}
	}
	return v
}

// fill installs line in way i.
func (c *Cache) fill(i int, line uint64, dirty, locked bool) {
	c.tag[i] = line + 1
	c.lru[i] = c.tick
	c.dirty[i] = dirty
	c.locked[i] = locked
}

// Access looks up line, updating LRU state; on miss it allocates, evicting
// the LRU unlocked way. write marks the line dirty.
func (c *Cache) Access(line uint64, write bool) Result {
	c.tick++
	lo, hi := c.setOf(line)
	if i := c.find(line, lo, hi); i >= 0 {
		c.lru[i] = c.tick
		if write {
			c.dirty[i] = true
		}
		c.hits++
		return Result{Hit: true}
	}
	c.misses++
	v := c.victim(lo, hi)
	if v < 0 {
		// Every way locked: serve from memory without allocating.
		return Result{Bypassed: true}
	}
	res := Result{Filled: true}
	if c.tag[v] != 0 && c.dirty[v] {
		res.Writeback = true
		res.WritebackLine = c.tag[v] - 1
		c.writebacks++
	}
	c.fill(v, line, write, false)
	return res
}

// Contains reports whether line is currently cached.
func (c *Cache) Contains(line uint64) bool {
	lo, hi := c.setOf(line)
	return c.find(line, lo, hi) >= 0
}

// Flush invalidates line (CLFLUSH). It returns true with the dirty flag
// when a writeback is required. Locked lines are not invalidated — the
// lockdown mechanism (§4.2) exists precisely so an attacker's own flushes
// cannot force the line back to DRAM; the flush is absorbed.
func (c *Cache) Flush(line uint64) (present, dirty bool) {
	lo, hi := c.setOf(line)
	i := c.find(line, lo, hi)
	if i < 0 || c.locked[i] {
		return false, false
	}
	dirty = c.dirty[i]
	c.tag[i], c.lru[i], c.dirty[i] = 0, 0, false
	c.flushes++
	if dirty {
		c.writebacks++
	}
	return true, dirty
}

// Lock pins line into its set (inserting it if absent) so it can never be
// evicted — the §4.2 "first line of defense": a locked aggressor line
// stops generating row activations. Fails with ErrLockBudget when the
// set's budget is exhausted.
func (c *Cache) Lock(line uint64) error {
	if c.cfg.MaxLockedWays == 0 {
		return fmt.Errorf("cache: locking disabled: %w", ErrLockBudget)
	}
	lo, hi := c.setOf(line)
	locked := 0
	for _, l := range c.locked[lo:hi] {
		if l {
			locked++
		}
	}
	if i := c.find(line, lo, hi); i >= 0 {
		if c.locked[i] {
			return nil
		}
		if locked >= c.cfg.MaxLockedWays {
			return fmt.Errorf("cache: line %#x: %w", line, ErrLockBudget)
		}
		c.locked[i] = true
		c.lockedLines[line] = true
		c.emitLock(obs.KindLineLock, line)
		return nil
	}
	if locked >= c.cfg.MaxLockedWays {
		return fmt.Errorf("cache: line %#x: %w", line, ErrLockBudget)
	}
	// Insert-and-lock: reuse the normal fill path, then pin.
	c.tick++
	v := c.victim(lo, hi)
	if v < 0 {
		return fmt.Errorf("cache: line %#x: %w", line, ErrLockBudget)
	}
	c.fill(v, line, false, true)
	c.lockedLines[line] = true
	c.emitLock(obs.KindLineLock, line)
	return nil
}

func (c *Cache) emitLock(kind obs.Kind, line uint64) {
	if !c.rec.Wants(kind) {
		return
	}
	c.rec.Emit(obs.Event{Kind: kind, Cycle: c.nowCycle(), Bank: -1, Row: -1, Domain: -1, Line: line})
}

// Unlock releases a previously locked line (it stays cached).
func (c *Cache) Unlock(line uint64) {
	lo, hi := c.setOf(line)
	if i := c.find(line, lo, hi); i >= 0 {
		c.locked[i] = false
	}
	if c.lockedLines[line] {
		c.emitLock(obs.KindLineUnlock, line)
	}
	delete(c.lockedLines, line)
}

// LockedCount returns how many lines are currently locked.
func (c *Cache) LockedCount() int { return len(c.lockedLines) }

// Stats returns cumulative hits, misses, flushes and writebacks.
func (c *Cache) Stats() (hits, misses, flushes, writebacks uint64) {
	return c.hits, c.misses, c.flushes, c.writebacks
}
