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

// Result describes the outcome of one cache access. It keeps to four
// fields so that it is returned and used in registers: the compiler
// spills a wider struct field by field and copies it back whole, and
// that copy stalls the core on every access.
type Result struct {
	// Hit is true when the line was present.
	Hit bool
	// WritebackLine holds the evicted dirty line when Writeback is true.
	Writeback     bool
	WritebackLine uint64
	// Bypassed is true when the set's unlocked ways were exhausted and
	// the access had to go straight to memory without allocation.
	Bypassed bool
}

// Filled reports whether the access inserted the line: a miss that was
// not bypassed.
func (r Result) Filled() bool { return !r.Hit && !r.Bypassed }

// Cache is a set-associative LLC model. Not safe for concurrent use.
//
// All of a set's state — its ways' tags, its recency order and its
// valid, dirty and locked ways — is one 48-byte setState. A way's tag is
// line/Sets+1 in 16 bits, 0 marking an invalid way, so a cache reaches
// Sets × 65 535 lines (Config.Reach); the set index recovers the rest of
// the line. Release hands the set array to a free list for the next cache
// of the same organization.
type Cache struct {
	cfg   Config
	pow2  bool // Sets is a power of two: the set index is line & (Sets-1)
	shift uint // log2(Sets) when pow2

	sets []setState

	hits, misses, flushes, writebacks uint64
	lockedLines                       map[uint64]bool

	rec   *obs.Recorder
	clock func() uint64 // event timestamps; nil means cycle 0
}

// setState is one set's state. tags holds the 16 ways' tags, way w in
// bits 16*(w%4) of tags[w/4]. order is the set's recency stack: 16
// four-bit way indices, the most recently used way in the low nibble.
// valid, dirty and locked hold one bit per way; a dirty or locked way is
// always valid, and an invalid way's tag is 0.
//
// This is exact LRU: every hit or fill moves its way to the front, so the
// valid ways appear in order of their last touch, and a flush leaves the
// stack alone because invalid ways are always filled first. Nibbles at
// positions >= Ways keep their initial values and are never searched, and
// tags of ways >= Ways stay 0.
type setState struct {
	tags                 [4]uint64
	order                uint64
	valid, dirty, locked uint16
}

// maxWays is the largest associativity New accepts: a set's recency stack
// holds 16 four-bit way indices.
const maxWays = 16

// maxTag is the largest tag a way holds: tags are 16 bits and 0 marks an
// invalid way, so line/Sets must stay below maxTag.
const maxTag = 1<<16 - 1

// identityOrder is a fresh set's recency stack: way i at position i.
const identityOrder = 0xFEDCBA9876543210

// Reach returns how many lines a cache of this organization can hold
// tags for: lines 0 to Reach()-1. An access beyond it panics, so a
// machine must not give the cache a larger memory.
func (c Config) Reach() uint64 { return uint64(c.Sets) * maxTag }

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
	c.sets, _ = setArrays.Get(cfg.Sets)
	for i := range c.sets {
		c.sets[i].order = identityOrder
	}
	c.pow2 = cfg.Sets&(cfg.Sets-1) == 0
	c.shift = uint(bits.TrailingZeros(uint(cfg.Sets)))
	return c, nil
}

// setArrays recycles released caches' set state.
var setArrays = sim.NewFreeList[setState]()

// Release hands the cache's set array back for reuse by the next New.
// The cache must not be used afterwards: its array is gone, so any
// access panics instead of reading another cache's state. Releasing
// twice is a no-op.
func (c *Cache) Release() {
	setArrays.Put(c.sets)
	c.sets = nil
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

// locate returns line's set index and its tag, line/Sets+1. A line
// beyond the cache's reach panics: its tag would not fit a way.
func (c *Cache) locate(line uint64) (set, t uint64) {
	if c.pow2 {
		set, t = line&uint64(c.cfg.Sets-1), line>>c.shift
	} else {
		set, t = line%uint64(c.cfg.Sets), line/uint64(c.cfg.Sets)
	}
	if t >= maxTag {
		c.beyondReach(line)
	}
	return set, t + 1
}

// beyondReach panics for a line locate cannot tag.
func (c *Cache) beyondReach(line uint64) {
	panic(fmt.Sprintf("cache: line %#x is beyond the tag reach of %d lines (%d sets × %d tags)",
		line, c.cfg.Reach(), c.cfg.Sets, maxTag))
}

// Lane constants for the tag words: every 16-bit lane's low bit, its low
// 15 bits, and its top bit.
const (
	laneOnes = 0x0001_0001_0001_0001
	laneLow  = 0x7FFF_7FFF_7FFF_7FFF
	laneHigh = 0x8000_8000_8000_8000
)

// zeroLanes sets the top bit of every zero 16-bit lane of x and clears
// every other bit. It is exact: adding 0x7FFF to a lane's low 15 bits
// carries into the lane's top bit unless they are all zero, and never
// into the next lane.
func zeroLanes(x uint64) uint64 { return ^((x&laneLow + laneLow) | x) & laneHigh }

// find returns the way of s holding tag t (t >= 1), or -1. It compares
// all 16 ways without a branch: a lane of tags[i] ^ t·laneOnes is zero
// exactly where way 4i+lane holds t. Each word's flags shift to bits
// 16·lane+i, so one OR gathers them; at most one way holds t, so the
// lowest flag is the way.
func (s *setState) find(t uint64) int {
	p := t * laneOnes
	m := zeroLanes(s.tags[0]^p)>>15 | zeroLanes(s.tags[1]^p)>>14 |
		zeroLanes(s.tags[2]^p)>>13 | zeroLanes(s.tags[3]^p)>>12
	if m == 0 {
		return -1
	}
	b := bits.TrailingZeros64(m)
	return b&3<<2 | b>>4
}

// tag returns way w's tag.
func (s *setState) tag(w int) uint64 { return s.tags[w>>2&3] >> (uint(w&3) * 16) & 0xFFFF }

// setTag stores t as way w's tag.
func (s *setState) setTag(w int, t uint64) {
	sh := uint(w&3) * 16
	s.tags[w>>2&3] = s.tags[w>>2&3]&^(0xFFFF<<sh) | t<<sh
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

// fill installs tag t in way w of s.
func (s *setState) fill(w int, t uint64, dirty, locked bool) {
	s.setTag(w, t)
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
	set, t := c.locate(line)
	s := &c.sets[set]
	if w := s.find(t); w >= 0 {
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
	var res Result
	if s.dirty&(1<<v) != 0 {
		res.Writeback = true
		res.WritebackLine = (s.tag(v)-1)*uint64(c.cfg.Sets) + set
		c.writebacks++
	}
	s.fill(v, t, write, false)
	return res
}

// Contains reports whether line is currently cached.
func (c *Cache) Contains(line uint64) bool {
	set, t := c.locate(line)
	return c.sets[set].find(t) >= 0
}

// Flush invalidates line (CLFLUSH). It returns true with the dirty flag
// when a writeback is required. Locked lines are not invalidated — the
// lockdown mechanism (§4.2) exists precisely so an attacker's own flushes
// cannot force the line back to DRAM; the flush is absorbed.
func (c *Cache) Flush(line uint64) (present, dirty bool) {
	set, t := c.locate(line)
	s := &c.sets[set]
	w := s.find(t)
	if w < 0 || s.locked&(1<<w) != 0 {
		return false, false
	}
	bit := uint16(1) << w
	dirty = s.dirty&bit != 0
	s.setTag(w, 0)
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
	set, t := c.locate(line)
	s := &c.sets[set]
	full := bits.OnesCount16(s.locked) >= c.cfg.MaxLockedWays
	if w := s.find(t); w >= 0 {
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
	s.fill(v, t, false, true)
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
	set, t := c.locate(line)
	s := &c.sets[set]
	if w := s.find(t); w >= 0 {
		s.locked &^= 1 << w
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
