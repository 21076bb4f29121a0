package cluster

import (
	"container/list"
	"encoding/json"
	"fmt"
	"sync"

	"hammertime/internal/journal"
)

// ResultCache is the content-addressed cell store in front of dispatch:
// an in-memory LRU bounded by result bytes, optionally backed by an
// append-only JSONL spill file. Keys are harness.CellKey hashes, so a
// hit is exact by construction — same grid, config, epoch, seed and
// cell, same bytes — and Put is idempotent: re-inserting a key (a cell
// computed twice after a steal) keeps the first entry.
//
// With a spill file attached, entries evicted from memory remain
// retrievable: Get falls back to the file by recorded offset and
// promotes the entry back into memory. The file is an internal/journal
// log of {"key","result"} lines and survives restarts; OpenSpill indexes
// existing records without loading them. Replay is first-wins per key,
// matching Put.
type ResultCache struct {
	mu       sync.Mutex
	maxBytes int64
	bytes    int64
	ll       *list.List // front = most recently used
	items    map[string]*list.Element

	spill    *journal.Log
	spillIdx map[string]spillLoc

	hits, misses, evicted int64
}

type cacheEntry struct {
	key string
	val json.RawMessage
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
// result JSON (0 = 64 MiB; entries are never rejected for size — a
// single oversized entry evicts everything else and lives alone).
func NewResultCache(maxBytes int64) *ResultCache {
	if maxBytes <= 0 {
		maxBytes = 64 << 20
	}
	return &ResultCache{
		maxBytes: maxBytes,
		ll:       list.New(),
		items:    make(map[string]*list.Element),
	}
}

// OpenSpill attaches (creating if needed) the JSONL spill file, indexing
// the records it already holds and trimming a killed coordinator's torn
// tail.
func (c *ResultCache) OpenSpill(path string) error {
	idx := make(map[string]spillLoc)
	log, err := journal.Open(path, func(off int64, line []byte) bool {
		var rec spillRecord
		if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
			return false
		}
		if _, dup := idx[rec.Key]; !dup {
			idx[rec.Key] = spillLoc{off: off, len: int64(len(line))}
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

// Get returns the cached result for key. Disk-only entries are promoted
// back into memory.
func (c *ResultCache) Get(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		c.ll.MoveToFront(el)
		c.hits++
		return el.Value.(*cacheEntry).val, true
	}
	if loc, ok := c.spillIdx[key]; ok {
		buf := make([]byte, loc.len)
		if _, err := c.spill.ReadAt(buf, loc.off); err == nil {
			var rec spillRecord
			if json.Unmarshal(buf, &rec) == nil && rec.Key == key {
				c.insert(key, rec.Result)
				c.hits++
				return rec.Result, true
			}
		}
	}
	c.misses++
	return nil, false
}

// Put stores a computed cell. Idempotent: a key already present (memory
// or spill) is left untouched, so racing workers or a re-dispatched
// steal never rewrite an entry.
func (c *ResultCache) Put(key string, val json.RawMessage) {
	if key == "" || val == nil {
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if _, ok := c.items[key]; ok {
		return
	}
	if _, ok := c.spillIdx[key]; !ok && c.spill != nil {
		if line, err := json.Marshal(spillRecord{Key: key, Result: val}); err == nil {
			if off, err := c.spill.Append(line); err == nil {
				c.spillIdx[key] = spillLoc{off: off, len: int64(len(line))}
			}
		}
	}
	c.insert(key, val)
}

// insert adds the entry to the memory LRU, evicting from the back to
// stay under budget. Caller holds c.mu.
func (c *ResultCache) insert(key string, val json.RawMessage) {
	c.items[key] = c.ll.PushFront(&cacheEntry{key: key, val: val})
	c.bytes += int64(len(val))
	for c.bytes > c.maxBytes && c.ll.Len() > 1 {
		back := c.ll.Back()
		e := back.Value.(*cacheEntry)
		c.ll.Remove(back)
		delete(c.items, e.key)
		c.bytes -= int64(len(e.val))
		c.evicted++
	}
}

// Len returns the in-memory entry count.
func (c *ResultCache) Len() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.ll.Len()
}

// Bytes returns the in-memory result bytes.
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
