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
	"math/bits"

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
// Tags are flat and set-major: way w of set i lives at tag[i*Ways+w]. A
// tag holds line+1, with 0 marking an invalid way, so the hit scan
// compares one contiguous run of uint64s (line indices are below the
// module size, never MaxUint64). Everything else about a set — its
// recency order and its valid, dirty and locked ways — is one setState.
// Release hands both arrays to free lists for the next cache of the same
// organization.
type Cache struct {
	cfg  Config
	pow2 bool // Sets is a power of two: the set index is line & (Sets-1)

	tag  []uint64
	sets []setState

	hits, misses, flushes, writebacks uint64
	lockedLines                       map[uint64]bool

	rec   *obs.Recorder
	clock func() uint64 // event timestamps; nil means cycle 0
}

// setState is one set's replacement state. order is the set's recency
// stack: 16 four-bit way indices, the most recently used way in the low
// nibble. valid, dirty and locked hold one bit per way; a dirty or
// locked way is always valid.
//
// This is exact LRU: every hit or fill moves its way to the front, so the
// valid ways appear in order of their last touch, and a flush leaves the
// stack alone because invalid ways are always filled first. Nibbles at
// positions >= Ways keep their initial values and are never searched.
type setState struct {
	order                uint64
	valid, dirty, locked uint16
}

// maxWays is the largest associativity New accepts: a set's recency stack
// holds 16 four-bit way indices.
const maxWays = 16

// identityOrder is a fresh set's recency stack: way i at position i.
const identityOrder = 0xFEDCBA9876543210

// New validates cfg and builds a cache.
func New(cfg Config) (*Cache, error) {
	if cfg.Sets <= 0 || cfg.Ways <= 0 {
		return nil, fmt.Errorf("cache: need positive sets/ways, got %d/%d", cfg.Sets, cfg.Ways)
	}
	if cfg.Ways > maxWays {
		return nil, fmt.Errorf("cache: %d ways exceeds the maximum of %d", cfg.Ways, maxWays)
	}
	if cfg.MaxLockedWays < 0 || cfg.MaxLockedWays > cfg.Ways {
		return nil, fmt.Errorf("cache: locked-way budget %d out of [0,%d]", cfg.MaxLockedWays, cfg.Ways)
	}
	c := &Cache{cfg: cfg, lockedLines: make(map[uint64]bool)}
	c.tag, _ = tagArrays.Get(cfg.Sets * cfg.Ways)
	c.sets, _ = setArrays.Get(cfg.Sets)
	for i := range c.sets {
		c.sets[i].order = identityOrder
	}
	c.pow2 = cfg.Sets&(cfg.Sets-1) == 0
	return c, nil
}

// tagArrays and setArrays recycle released caches' way state.
var (
	tagArrays = sim.NewFreeList[uint64]()
	setArrays = sim.NewFreeList[setState]()
)

// Release hands the cache's arrays back for reuse by the next New. The
// cache must not be used afterwards: its arrays are gone, so any access
// panics instead of reading another cache's state. Releasing twice is a
// no-op.
func (c *Cache) Release() {
	tagArrays.Put(c.tag)
	setArrays.Put(c.sets)
	c.tag, c.sets = nil, nil
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

// setOf returns line's set index and the start of its ways in tag.
func (c *Cache) setOf(line uint64) (set, lo int) {
	if c.pow2 {
		set = int(line & uint64(c.cfg.Sets-1))
	} else {
		set = int(line % uint64(c.cfg.Sets))
	}
	return set, set * c.cfg.Ways
}

// find returns the way of the set starting at tag[lo] that holds line,
// or -1.
func (c *Cache) find(line uint64, lo int) int {
	t := line + 1
	for w, tag := range c.tag[lo : lo+c.cfg.Ways] {
		if tag == t {
			return w
		}
	}
	return -1
}

// touch moves way w to the front of s's recency stack. The way's
// position is the lowest zero nibble of order^(w*0x11..1), found with
// the SWAR zero-nibble test (a borrow only flags nibbles above a true
// zero, so the lowest flag is exact); the nibbles below it shift up one.
func (s *setState) touch(w int) {
	x := s.order ^ uint64(w)*0x1111111111111111
	z := (x - 0x1111111111111111) &^ x & 0x8888888888888888
	shift := uint(bits.TrailingZeros64(z)) &^ 3 // 4 × position
	below := s.order & (1<<shift - 1)
	s.order = s.order&^(1<<(shift+4)-1) | below<<4 | uint64(w)
}

// victim picks the way a fill of s replaces: the lowest invalid way,
// else the least recently used unlocked way, else -1 (every way locked).
func (c *Cache) victim(s *setState) int {
	if w := bits.TrailingZeros16(^s.valid); w < c.cfg.Ways {
		return w
	}
	for shift := 4 * uint(c.cfg.Ways-1); ; shift -= 4 {
		w := int(s.order>>shift) & 0xF
		if s.locked&(1<<w) == 0 {
			return w
		}
		if shift == 0 {
			return -1
		}
	}
}

// fill installs line in way w of s, whose tags start at tag[lo].
func (c *Cache) fill(s *setState, lo, w int, line uint64, dirty, locked bool) {
	c.tag[lo+w] = line + 1
	bit := uint16(1) << w
	s.valid |= bit
	s.dirty = s.dirty&^bit | boolBit(dirty, w)
	s.locked = s.locked&^bit | boolBit(locked, w)
	s.touch(w)
}

// boolBit returns bit w set when b holds.
func boolBit(b bool, w int) uint16 {
	if b {
		return 1 << w
	}
	return 0
}

// Access looks up line, updating LRU state; on miss it allocates, evicting
// the LRU unlocked way. write marks the line dirty.
func (c *Cache) Access(line uint64, write bool) Result {
	set, lo := c.setOf(line)
	s := &c.sets[set]
	if w := c.find(line, lo); w >= 0 {
		s.touch(w)
		s.dirty |= boolBit(write, w)
		c.hits++
		return Result{Hit: true}
	}
	c.misses++
	v := c.victim(s)
	if v < 0 {
		// Every way locked: serve from memory without allocating.
		return Result{Bypassed: true}
	}
	res := Result{Filled: true}
	if s.dirty&(1<<v) != 0 {
		res.Writeback = true
		res.WritebackLine = c.tag[lo+v] - 1
		c.writebacks++
	}
	c.fill(s, lo, v, line, write, false)
	return res
}

// Contains reports whether line is currently cached.
func (c *Cache) Contains(line uint64) bool {
	_, lo := c.setOf(line)
	return c.find(line, lo) >= 0
}

// Flush invalidates line (CLFLUSH). It returns true with the dirty flag
// when a writeback is required. Locked lines are not invalidated — the
// lockdown mechanism (§4.2) exists precisely so an attacker's own flushes
// cannot force the line back to DRAM; the flush is absorbed.
func (c *Cache) Flush(line uint64) (present, dirty bool) {
	set, lo := c.setOf(line)
	s := &c.sets[set]
	w := c.find(line, lo)
	if w < 0 || s.locked&(1<<w) != 0 {
		return false, false
	}
	bit := uint16(1) << w
	dirty = s.dirty&bit != 0
	c.tag[lo+w] = 0
	s.valid &^= bit
	s.dirty &^= bit
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
	set, lo := c.setOf(line)
	s := &c.sets[set]
	full := bits.OnesCount16(s.locked) >= c.cfg.MaxLockedWays
	if w := c.find(line, lo); w >= 0 {
		if s.locked&(1<<w) != 0 {
			return nil
		}
		if full {
			return fmt.Errorf("cache: line %#x: %w", line, ErrLockBudget)
		}
		s.locked |= 1 << w
		c.lockedLines[line] = true
		c.emitLock(obs.KindLineLock, line)
		return nil
	}
	if full {
		return fmt.Errorf("cache: line %#x: %w", line, ErrLockBudget)
	}
	// Insert-and-lock: reuse the normal fill path, then pin.
	v := c.victim(s)
	if v < 0 {
		return fmt.Errorf("cache: line %#x: %w", line, ErrLockBudget)
	}
	c.fill(s, lo, v, line, false, true)
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
	set, lo := c.setOf(line)
	if w := c.find(line, lo); w >= 0 {
		c.sets[set].locked &^= 1 << w
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
