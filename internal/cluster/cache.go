package cluster

import (
	"encoding/json"
	"fmt"
	"math/bits"
	"math/rand/v2"
	"sync"

	"hammertime/internal/journal"
)

// ResultCache is the content-addressed cell store in front of dispatch:
// an in-memory LRU bounded by bytes, optionally backed by an
// append-only JSONL spill file. Keys are harness.CellKey hashes, so a
// hit is exact by construction — same grid, config, epoch, seed and
// cell, same bytes — and Put is idempotent: re-inserting a key (a cell
// computed twice after a steal) keeps the first entry.
//
// The memory layout holds no pointers per entry: the collector sees
// three slices of scalars however many cells are cached, and an entry
// costs its bytes plus EntryOverhead.
//
//   - Every key has a 64-bit hash. A canonical CellKey — exactly 16
//     lowercase hex digits, already an FNV-64a — is its own hash and
//     stores no key bytes. Any other key is hashed with FNV-64a, and its
//     bytes are stored and compared on Get, so a canonical and a
//     non-canonical key of the same hash never return each other's value.
//   - slots holds the entries, linked into the LRU by int32 indices;
//     evicted slots go on a free list.
//   - index is an open-addressing table of slot numbers, probed linearly
//     from a seeded mix of the hash and kept at most 3/4 full.
//   - arena holds key and value bytes, append-only. Evicted bytes stay
//     until dead bytes exceed live ones; then the live bytes are copied
//     into a fresh slice. Bytes are never rewritten in place, so a slice
//     Get returned stays valid (and must be treated as read-only).
//
// With a spill file attached, entries evicted from memory remain
// retrievable: Get falls back to the file by recorded offset and
// promotes the entry back into memory. The file is an internal/journal
// log of {"key","result"} lines and survives restarts; OpenSpill indexes
// existing records without loading them. The spill index is keyed by
// the same hash, first-wins: replay keeps a key's first record, as Put
// does. A key whose hash another key's record already holds is not
// spilled; the record read back is checked against the key, so such a
// key misses on disk rather than returning the other's value.
type ResultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64

	slots      []cacheSlot
	free       int32 // head of the free-slot list
	head, tail int32 // most and least recently used entry
	n          int   // live entries

	index []int32 // slot+1 per bucket, 0 = empty; len is a power of two
	shift uint    // 64 - log2(len(index))
	seed  uint64

	arena []byte
	dead  int64 // arena bytes of evicted entries

	spill    *journal.Log
	spillIdx map[uint64]spillLoc

	hits, misses, evicted int64
}

// EntryOverhead is the memory one cached entry costs beyond its key and
// value bytes: its 32-byte slot, its index buckets and the growth slack
// of both, measured over 30 000 CellKey entries
// (TestCacheBytesTracksHeap). Bytes and the budget count it.
const EntryOverhead = 48

// noSlot marks the end of a slot list.
const noSlot = -1

// cacheSlot is one entry. Its arena bytes are klen key bytes (0 for a
// canonical CellKey) followed by vlen value bytes.
type cacheSlot struct {
	hash       uint64
	off        int64
	klen, vlen uint32
	prev, next int32 // LRU neighbours; next also links the free list
}

type spillLoc struct {
	off int64
	len int64
}

// spillRecord is one spill-file line.
type spillRecord struct {
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// NewResultCache builds a memory-only cache holding at most maxBytes of
// keys, results and EntryOverhead per entry (0 = 64 MiB; entries are
// never rejected for size — a single oversized entry evicts everything
// else and lives alone).
func NewResultCache(maxBytes int64) *ResultCache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &ResultCache{
		maxBytes: maxBytes,
		free:     noSlot,
		head:     noSlot,
		tail:     noSlot,
		seed:     rand.Uint64(),
	}
}

// keyHash returns key's hash: a canonical CellKey's own value, otherwise
// the key's FNV-64a.
func keyHash(key string) (h uint64, canonical bool) {
	if len(key) == 16 {
		canonical = true
		for i := 0; i < len(key) && canonical; i++ {
			switch c := key[i]; {
			case '0' <= c && c <= '9':
				h = h<<4 | uint64(c-'0')
			case 'a' <= c && c <= 'f':
				h = h<<4 | uint64(c-'a'+10)
			default:
				canonical = false
			}
		}
		if canonical {
			return h, true
		}
	}
	h = 14695981039346656037
	for i := 0; i < len(key); i++ {
		h ^= uint64(key[i])
		h *= 1099511628211
	}
	return h, false
}

// OpenSpill attaches (creating if needed) the JSONL spill file, indexing
// the records it already holds and trimming a killed coordinator's torn
// tail.
func (c *ResultCache) OpenSpill(path string) error {
	idx := make(map[uint64]spillLoc)
	log, err := journal.Open(path, func(off int64, line []byte) bool {
		var rec spillRecord
		if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
			return false
		}
		h, _ := keyHash(rec.Key)
		if _, dup := idx[h]; !dup {
			idx[h] = spillLoc{off: off, len: int64(len(line))}
		}
		return true
	})
	if err != nil {
		return fmt.Errorf("cluster: spill: %w", err)
	}
	c.mu.Lock()
	c.spill, c.spillIdx = log, idx
	c.mu.Unlock()
	return nil
}

// Get returns the cached result for key, read-only. Disk-only entries
// are promoted back into memory.
func (c *ResultCache) Get(key string) (json.RawMessage, bool) {
	h, canonical := keyHash(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.find(h, key, canonical); i != noSlot {
		c.unlink(i)
		c.pushFront(i)
		c.hits++
		return c.value(i), true
	}
	if loc, ok := c.spillIdx[h]; ok {
		buf := make([]byte, loc.len)
		if _, err := c.spill.ReadAt(buf, loc.off); err == nil {
			var rec spillRecord
			if json.Unmarshal(buf, &rec) == nil && rec.Key == key {
				i := c.insert(h, key, canonical, rec.Result)
				c.hits++
				return c.value(i), true
			}
		}
	}
	c.misses++
	return nil, false
}

// Put stores a computed cell, copying val. Idempotent: a key already in
// memory is left untouched and a spilled key is not appended again, so
// racing workers or a re-dispatched steal never rewrite an entry. (A key
// held only on disk is put in memory with val, which for a CellKey is
// the same bytes.)
func (c *ResultCache) Put(key string, val json.RawMessage) {
	if key == "" || val == nil {
		return
	}
	h, canonical := keyHash(key)
	c.mu.Lock()
	defer c.mu.Unlock()
	if i := c.find(h, key, canonical); i != noSlot {
		return
	}
	if _, ok := c.spillIdx[h]; !ok && c.spill != nil {
		if line, err := json.Marshal(spillRecord{Key: key, Result: val}); err == nil {
			if off, err := c.spill.Append(line); err == nil {
				c.spillIdx[h] = spillLoc{off: off, len: int64(len(line))}
			}
		}
	}
	c.insert(h, key, canonical, val)
}

// home is the index bucket a probe for hash h starts at.
func (c *ResultCache) home(h uint64) uint64 {
	return ((h ^ c.seed) * 0x9e3779b97f4a7c15) >> c.shift
}

// find returns key's slot, or noSlot. Caller holds c.mu.
func (c *ResultCache) find(h uint64, key string, canonical bool) int32 {
	if c.n == 0 {
		return noSlot
	}
	mask := uint64(len(c.index) - 1)
	for b := c.home(h); ; b = (b + 1) & mask {
		i := c.index[b] - 1
		if i == noSlot {
			return noSlot
		}
		s := &c.slots[i]
		if s.hash != h {
			continue
		}
		if canonical {
			if s.klen == 0 {
				return i
			}
		} else if s.klen != 0 && string(c.arena[s.off:s.off+int64(s.klen)]) == key {
			return i
		}
	}
}

// place puts slot i into the first empty bucket of its probe sequence.
// Caller holds c.mu.
func (c *ResultCache) place(i int32) {
	mask := uint64(len(c.index) - 1)
	b := c.home(c.slots[i].hash)
	for c.index[b] != 0 {
		b = (b + 1) & mask
	}
	c.index[b] = i + 1
}

// value returns slot i's value bytes, capped so an append cannot reach
// the arena bytes after them. Caller holds c.mu.
func (c *ResultCache) value(i int32) json.RawMessage {
	s := &c.slots[i]
	start := s.off + int64(s.klen)
	end := start + int64(s.vlen)
	return c.arena[start:end:end]
}

// size is what the entry counts against the budget.
func (s *cacheSlot) size() int64 {
	return int64(s.klen) + int64(s.vlen) + EntryOverhead
}

// insert adds a new entry as the most recently used, evicting from the
// back to stay under budget, and returns its slot. Caller holds c.mu.
func (c *ResultCache) insert(h uint64, key string, canonical bool, val []byte) int32 {
	if canonical {
		key = ""
	}
	off := int64(len(c.arena))
	c.arena = append(append(c.arena, key...), val...)

	var i int32
	if c.free != noSlot {
		i = c.free
		c.free = c.slots[i].next
	} else {
		i = int32(len(c.slots))
		c.slots = append(c.slots, cacheSlot{})
	}
	c.slots[i] = cacheSlot{hash: h, off: off, klen: uint32(len(key)), vlen: uint32(len(val))}
	c.pushFront(i)
	c.n++
	c.bytes += c.slots[i].size()
	if 4*c.n > 3*len(c.index) {
		c.rehash(max(16, 2*len(c.index)))
	} else {
		c.place(i)
	}

	for c.bytes > c.maxBytes && c.n > 1 {
		c.evict(c.tail)
	}
	if c.dead > int64(len(c.arena))-c.dead {
		c.compact()
	}
	return i
}

// rehash rebuilds the index with size buckets (a power of two) from the
// LRU list. Caller holds c.mu.
func (c *ResultCache) rehash(size int) {
	c.index = make([]int32, size)
	c.shift = uint(64 - bits.TrailingZeros(uint(size)))
	for i := c.head; i != noSlot; i = c.slots[i].next {
		c.place(i)
	}
}

// evict drops slot i from the LRU, the index and the budget, and frees
// it. Caller holds c.mu.
func (c *ResultCache) evict(i int32) {
	s := &c.slots[i]
	mask := uint64(len(c.index) - 1)
	b := c.home(s.hash)
	for c.index[b] != i+1 {
		b = (b + 1) & mask
	}
	// Backward-shift deletion: walk the cluster after the emptied bucket
	// and move back every entry whose probe sequence passes through it,
	// so no probe stops short at the hole.
	for q := (b + 1) & mask; c.index[q] != 0; q = (q + 1) & mask {
		if (q-c.home(c.slots[c.index[q]-1].hash))&mask >= (q-b)&mask {
			c.index[b] = c.index[q]
			b = q
		}
	}
	c.index[b] = 0

	c.unlink(i)
	c.bytes -= s.size()
	c.dead += int64(s.klen) + int64(s.vlen)
	c.n--
	c.evicted++
	s.next = c.free
	c.free = i
}

// compact copies the live entries' bytes into a fresh arena. The old
// one is left untouched for the slices Get returned from it. Caller
// holds c.mu.
func (c *ResultCache) compact() {
	arena := make([]byte, 0, int64(len(c.arena))-c.dead)
	for i := c.head; i != noSlot; i = c.slots[i].next {
		s := &c.slots[i]
		off := int64(len(arena))
		arena = append(arena, c.arena[s.off:s.off+int64(s.klen)+int64(s.vlen)]...)
		s.off = off
	}
	c.arena, c.dead = arena, 0
}

// pushFront links slot i in as the most recently used. Caller holds c.mu.
func (c *ResultCache) pushFront(i int32) {
	s := &c.slots[i]
	s.prev, s.next = noSlot, c.head
	if c.head != noSlot {
		c.slots[c.head].prev = i
	} else {
		c.tail = i
	}
	c.head = i
}

// unlink takes slot i out of the LRU. Caller holds c.mu.
func (c *ResultCache) unlink(i int32) {
	s := &c.slots[i]
	if s.prev != noSlot {
		c.slots[s.prev].next = s.next
	} else {
		c.head = s.next
	}
	if s.next != noSlot {
		c.slots[s.next].prev = s.prev
	} else {
		c.tail = s.prev
	}
}

// Len returns the in-memory entry count.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.n
}

// Bytes returns what the in-memory entries count against the budget:
// their key and value bytes plus EntryOverhead each.
func (c *ResultCache) Bytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.bytes
}

// Counters returns lifetime (hits, misses, evictions).
func (c *ResultCache) Counters() (hits, misses, evicted int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.hits, c.misses, c.evicted
}

// Spilled returns the number of entries the spill file holds.
func (c *ResultCache) Spilled() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return len(c.spillIdx)
}

// Close releases the spill file, reporting the sticky append error first.
func (c *ResultCache) Close() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.spill == nil {
		return nil
	}
	return c.spill.Close()
}
