package cluster

import (
	"encoding/json"
	"fmt"
	"hash/fnv"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
)

func raw(s string) json.RawMessage { return json.RawMessage(s) }

// entry24 is what a 24-byte value under a key of keyLen bytes counts
// against the budget.
func entry24(keyLen int) int64 { return int64(keyLen) + 24 + EntryOverhead }

func TestCacheLRUBoundsBytes(t *testing.T) {
	budget := 4*entry24(len("key-0")) + 10 // room for four entries, not five
	c := NewResultCache(budget)
	for i := 0; i < 10; i++ {
		c.Put(fmt.Sprintf("key-%d", i), raw(`{"v":"0123456789012345"}`)) // 24 bytes each
	}
	if c.Bytes() > budget {
		t.Fatalf("cache holds %d bytes, budget %d", c.Bytes(), budget)
	}
	if c.Len() != 4 {
		t.Fatalf("cache holds %d entries, want 4", c.Len())
	}
	// Newest entries survive, oldest were evicted.
	if _, ok := c.Get("key-9"); !ok {
		t.Fatal("newest entry evicted")
	}
	if _, ok := c.Get("key-0"); ok {
		t.Fatal("oldest entry survived a full wrap")
	}
	if _, _, evicted := c.Counters(); evicted != 6 {
		t.Fatalf("evicted %d, want 6", evicted)
	}
}

func TestCacheGetPromotesRecency(t *testing.T) {
	c := NewResultCache(2*entry24(1) + 1) // room for exactly two 24-byte entries
	c.Put("a", raw(`{"v":"0123456789012345"}`))
	c.Put("b", raw(`{"v":"0123456789012345"}`))
	c.Get("a") // a is now most recent
	c.Put("c", raw(`{"v":"0123456789012345"}`))
	if _, ok := c.Get("a"); !ok {
		t.Fatal("recently used entry evicted")
	}
	if _, ok := c.Get("b"); ok {
		t.Fatal("least recently used entry survived")
	}
}

func TestCachePutIdempotent(t *testing.T) {
	c := NewResultCache(0)
	c.Put("k", raw(`{"first":true}`))
	c.Put("k", raw(`{"second":true}`))
	got, ok := c.Get("k")
	if !ok || string(got) != `{"first":true}` {
		t.Fatalf("got %s, want the first insert kept", got)
	}
	if c.Len() != 1 {
		t.Fatalf("duplicate Put grew the cache to %d entries", c.Len())
	}
}

func TestCacheCounters(t *testing.T) {
	c := NewResultCache(0)
	c.Put("k", raw(`1`))
	c.Get("k")
	c.Get("k")
	c.Get("absent")
	hits, misses, _ := c.Counters()
	if hits != 2 || misses != 1 {
		t.Fatalf("hits=%d misses=%d, want 2/1", hits, misses)
	}
}

func TestCacheSpillPersistsAcrossReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	c := NewResultCache(0)
	if err := c.OpenSpill(path); err != nil {
		t.Fatal(err)
	}
	c.Put("aaaa", raw(`{"flips":3}`))
	c.Put("bbbb", raw(`{"flips":0}`))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}

	c2 := NewResultCache(0)
	if err := c2.OpenSpill(path); err != nil {
		t.Fatal(err)
	}
	defer c2.Close()
	got, ok := c2.Get("aaaa")
	if !ok || string(got) != `{"flips":3}` {
		t.Fatalf("spilled entry not restored: %s ok=%v", got, ok)
	}
	if _, ok := c2.Get("cccc"); ok {
		t.Fatal("phantom entry after reload")
	}
}

func TestCacheSpillServesEvictedEntries(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	c := NewResultCache(2*entry24(1) + 1) // two 24-byte entries max
	if err := c.OpenSpill(path); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	c.Put("a", raw(`{"v":"0123456789012345"}`))
	c.Put("b", raw(`{"v":"0123456789012345"}`))
	c.Put("c", raw(`{"v":"0123456789012345"}`)) // evicts a from memory
	got, ok := c.Get("a")
	if !ok {
		t.Fatal("evicted entry not served from spill")
	}
	if string(got) != `{"v":"0123456789012345"}` {
		t.Fatalf("spill returned %s", got)
	}
}

func TestCacheSpillTornTailTruncated(t *testing.T) {
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	line, _ := json.Marshal(spillRecord{Key: "good", Result: raw(`1`)})
	if err := os.WriteFile(path, append(append(line, '\n'), []byte(`{"key":"torn","resu`)...), 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewResultCache(0)
	if err := c.OpenSpill(path); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, ok := c.Get("good"); !ok {
		t.Fatal("intact record lost")
	}
	if _, ok := c.Get("torn"); ok {
		t.Fatal("torn record served")
	}
	// The torn tail must be gone so appends produce a clean file.
	c.Put("new", raw(`2`))
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	c2 := NewResultCache(0)
	if err := c2.OpenSpill(path); err != nil {
		t.Fatalf("file corrupt after append over torn tail: %v\n%s", err, data)
	}
	defer c2.Close()
	if _, ok := c2.Get("new"); !ok {
		t.Fatal("appended record lost after torn-tail truncate")
	}
}

// cellShaped returns the i-th of a run of distinct CellKey-shaped keys
// (16 lowercase hex digits) and an e1-shaped result of 4-12 bytes.
func cellShaped(i int) (string, json.RawMessage) {
	return fmt.Sprintf("%016x", uint64(i+1)*0x9e3779b97f4a7c15), raw(fmt.Sprintf(`"%d (%d%%)"`, i%53, i%100))
}

// TestCacheBytesTracksHeap checks that the budget counts real memory:
// Bytes is within 10% of the heap 30 000 CellKey-shaped e1 cells take.
func TestCacheBytesTracksHeap(t *testing.T) {
	const n = 30000
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	c := NewResultCache(0)
	for i := 0; i < n; i++ {
		c.Put(cellShaped(i))
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	grown := int64(after.HeapAlloc) - int64(before.HeapAlloc)
	if got := c.Bytes(); got < grown*9/10 || got > grown*11/10 {
		t.Fatalf("Bytes() = %d (%.1f B/entry), heap grew %d (%.1f B/entry): more than 10%% apart",
			got, float64(got)/n, grown, float64(grown)/n)
	}
	if c.Len() != n {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), n)
	}
}

// TestCacheHashedKeyNeverServesItsCanonicalTwin pins the two key kinds
// apart: a non-canonical key is indexed by its FNV-64a, which is also
// the value of the canonical key spelling that hash in hex. Neither may
// return the other's value, in memory, from the spill file, or after a
// reopen.
func TestCacheHashedKeyNeverServesItsCanonicalTwin(t *testing.T) {
	h := fnv.New64a()
	h.Write([]byte("key-1"))
	twin := fmt.Sprintf("%016x", h.Sum64())
	want := map[string]string{"key-1": `"hashed"`, twin: `"canonical"`}
	check := func(c *ResultCache, key string, mustHit bool) {
		t.Helper()
		got, ok := c.Get(key)
		if ok && string(got) != want[key] || !ok && mustHit {
			t.Fatalf("Get(%q) = %s, %v; want %s", key, got, ok, want[key])
		}
	}

	c := NewResultCache(0)
	c.Put("key-1", raw(want["key-1"]))
	if got, ok := c.Get(twin); ok {
		t.Fatalf("canonical twin served the hashed key's value %s", got)
	}
	c.Put(twin, raw(want[twin]))
	check(c, "key-1", true)
	check(c, twin, true)
	if c.Len() != 2 {
		t.Fatalf("cache holds %d entries, want 2", c.Len())
	}

	// One entry in memory: every Get after the first goes to disk, where
	// only the first key of the shared hash was spilled.
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	c = NewResultCache(1)
	if err := c.OpenSpill(path); err != nil {
		t.Fatal(err)
	}
	c.Put("key-1", raw(want["key-1"]))
	c.Put(twin, raw(want[twin]))
	check(c, twin, true)
	check(c, "key-1", true)
	check(c, twin, false)
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c = NewResultCache(0)
	if err := c.OpenSpill(path); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	check(c, twin, false)
	check(c, "key-1", true)
}

// TestCacheCompactionKeepsEarlierGets churns a small cache so the arena
// is compacted many times, and checks that every slice Get returned
// along the way still holds its bytes, that appending to one does not
// touch the entry stored after it, and that the arena stays bounded.
func TestCacheCompactionKeepsEarlierGets(t *testing.T) {
	const live = 8
	c := NewResultCache(live * entry24(0)) // canonical keys store no key bytes
	type held struct {
		got  json.RawMessage
		want string
	}
	var kept []held
	for i := 0; i < 5000; i++ {
		key := fmt.Sprintf("%016x", i)
		val := fmt.Sprintf(`{"v":"%016d"}`, i) // 24 bytes
		c.Put(key, raw(val))
		got, ok := c.Get(key)
		if !ok {
			t.Fatalf("entry %d missing right after Put", i)
		}
		_ = append(got, "clobber"...)
		kept = append(kept, held{got, val})
	}
	for i, h := range kept {
		if string(h.got) != h.want {
			t.Fatalf("Get result %d changed to %s, want %s", i, h.got, h.want)
		}
	}
	if c.Len() != live {
		t.Fatalf("cache holds %d entries, want %d", c.Len(), live)
	}
	if n := len(c.arena); n > 2*live*24 {
		t.Fatalf("arena holds %d bytes for %d live 24-byte entries: not compacted", n, live)
	}
	for i := 5000 - live; i < 5000; i++ {
		if got, ok := c.Get(fmt.Sprintf("%016x", i)); !ok || string(got) != kept[i].want {
			t.Fatalf("entry %d after compaction: %s, %v", i, got, ok)
		}
	}
}

// TestCacheConcurrentUse reads Get results outside the cache's lock
// while other goroutines put, evict and compact, so the race detector
// checks that arena bytes once handed out are never written again.
func TestCacheConcurrentUse(t *testing.T) {
	c := NewResultCache(16 * entry24(0))
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 2000; i++ {
				key, val := fmt.Sprintf("%016x", i%64), fmt.Sprintf(`{"v":"%016d"}`, i%64)
				c.Put(key, raw(val))
				if got, ok := c.Get(key); ok && string(got) != val {
					t.Errorf("Get(%s) = %s, want %s", key, got, val)
					return
				}
			}
		}()
	}
	wg.Wait()
}

// TestCacheReplaysStringKeyedSpill opens a spill file written by the
// string-keyed cache this layout replaced: canonical and other keys
// replay, a later Put of a replayed key keeps the first value, and new
// records append to the same file.
func TestCacheReplaysStringKeyedSpill(t *testing.T) {
	data, err := os.ReadFile(filepath.Join("testdata", "spill-string-keyed.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cells.jsonl")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	c := NewResultCache(0)
	if err := c.OpenSpill(path); err != nil {
		t.Fatal(err)
	}
	if c.Spilled() != 3 || c.Len() != 0 {
		t.Fatalf("replay indexed %d records and loaded %d, want 3 and 0", c.Spilled(), c.Len())
	}
	want := map[string]string{
		"b50d1941b4e55ebb": `"12 (3%)"`,
		"b50d1841b4e55d08": `"0"`,
		"key-1":            `{"flips":3}`,
	}
	for key, w := range want {
		if got, ok := c.Get(key); !ok || string(got) != w {
			t.Fatalf("Get(%q) = %s, %v; want %s", key, got, ok, w)
		}
		c.Put(key, raw(`"rewritten"`))
		if got, _ := c.Get(key); string(got) != w {
			t.Fatalf("Put over replayed %q: Get = %s, want %s", key, got, w)
		}
	}
	c.Put("key-2", raw(`4`))
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	c = NewResultCache(0)
	if err := c.OpenSpill(path); err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got, ok := c.Get("key-2"); !ok || string(got) != `4` || c.Spilled() != 4 {
		t.Fatalf("appended record: %s, %v, %d spilled", got, ok, c.Spilled())
	}
}

// TestCacheMatchesReferenceLRU drives random Puts and Gets over a small
// key space — CellKey-shaped keys, other keys and one hash-sharing pair
// — against a slice-kept LRU, so every eviction reshuffles the index.
func TestCacheMatchesReferenceLRU(t *testing.T) {
	h := fnv.New64a()
	h.Write([]byte("key-1"))
	keys := []string{"key-1", fmt.Sprintf("%016x", h.Sum64())}
	for i := 0; i < 40; i++ {
		key, _ := cellShaped(i)
		keys = append(keys, key, fmt.Sprintf("k%d", i))
	}
	type entry struct{ key, val string }
	cost := func(e entry) int64 {
		n := int64(len(e.val)) + EntryOverhead
		if _, canonical := keyHash(e.key); !canonical {
			n += int64(len(e.key))
		}
		return n
	}
	rng := rand.New(rand.NewPCG(1, 2))
	for _, room := range []int64{1, 3, 10, 60} {
		c := NewResultCache(room * (EntryOverhead + 24))
		var lru []entry // most recent first
		var bytes, evicted int64
		find := func(key string) int {
			for i, e := range lru {
				if e.key == key {
					return i
				}
			}
			return -1
		}
		for op := 0; op < 20000; op++ {
			key := keys[rng.IntN(len(keys))]
			i := find(key)
			if rng.IntN(2) == 0 {
				got, ok := c.Get(key)
				if ok != (i >= 0) || ok && string(got) != lru[i].val {
					t.Fatalf("room %d op %d: Get(%q) = %s, %v; model holds it: %v", room, op, key, got, ok, i >= 0)
				}
				if i >= 0 {
					e := lru[i]
					lru = append([]entry{e}, append(lru[:i:i], lru[i+1:]...)...)
				}
				continue
			}
			e := entry{key, fmt.Sprintf("%0*d", 1+rng.IntN(24), op)}
			c.Put(key, raw(e.val))
			if i >= 0 {
				continue
			}
			lru = append([]entry{e}, lru...)
			bytes += cost(e)
			for bytes > c.maxBytes && len(lru) > 1 {
				bytes -= cost(lru[len(lru)-1])
				lru = lru[:len(lru)-1]
				evicted++
			}
			if _, _, ev := c.Counters(); c.Len() != len(lru) || c.Bytes() != bytes || ev != evicted {
				t.Fatalf("room %d op %d: cache %d entries, %d bytes, %d evicted; model %d, %d, %d",
					room, op, c.Len(), c.Bytes(), ev, len(lru), bytes, evicted)
			}
		}
	}
}
