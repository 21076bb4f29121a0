package cache

import (
	"errors"
	"testing"
	"testing/quick"
)

func small(t *testing.T, sets, ways, locked int) *Cache {
	t.Helper()
	c, err := New(Config{Sets: sets, Ways: ways, MaxLockedWays: locked})
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func TestNewValidates(t *testing.T) {
	if _, err := New(Config{Sets: 0, Ways: 1}); err == nil {
		t.Fatal("zero sets accepted")
	}
	if _, err := New(Config{Sets: 1, Ways: 0}); err == nil {
		t.Fatal("zero ways accepted")
	}
	if _, err := New(Config{Sets: 1, Ways: 2, MaxLockedWays: 3}); err == nil {
		t.Fatal("lock budget above ways accepted")
	}
	if _, err := New(Config{Sets: 1, Ways: maxWays + 1}); err == nil {
		t.Fatal("17 ways accepted")
	}
	if _, err := New(Config{Sets: 1, Ways: maxWays, MaxLockedWays: maxWays}); err != nil {
		t.Fatalf("16 ways rejected: %v", err)
	}
}

func TestMissThenHit(t *testing.T) {
	c := small(t, 4, 2, 0)
	if r := c.Access(100, false); r.Hit {
		t.Fatal("cold access hit")
	}
	if r := c.Access(100, false); !r.Hit {
		t.Fatal("second access missed")
	}
	hits, misses, _, _ := c.Stats()
	if hits != 1 || misses != 1 {
		t.Fatalf("hits=%d misses=%d", hits, misses)
	}
}

func TestLRUEviction(t *testing.T) {
	c := small(t, 1, 2, 0)
	c.Access(0, false)
	c.Access(1, false)
	c.Access(0, false) // 1 is now LRU
	c.Access(2, false) // evicts 1
	if !c.Contains(0) || c.Contains(1) || !c.Contains(2) {
		t.Fatal("LRU eviction picked the wrong victim")
	}
}

func TestDirtyEvictionProducesWriteback(t *testing.T) {
	c := small(t, 1, 1, 0)
	c.Access(7, true)
	r := c.Access(8, false)
	if !r.Writeback || r.WritebackLine != 7 {
		t.Fatalf("expected writeback of line 7, got %+v", r)
	}
}

func TestCleanEvictionNoWriteback(t *testing.T) {
	c := small(t, 1, 1, 0)
	c.Access(7, false)
	if r := c.Access(8, false); r.Writeback {
		t.Fatal("clean eviction produced a writeback")
	}
}

func TestFlushRemovesLine(t *testing.T) {
	c := small(t, 4, 2, 0)
	c.Access(5, true)
	present, dirty := c.Flush(5)
	if !present || !dirty {
		t.Fatalf("flush of dirty line: present=%v dirty=%v", present, dirty)
	}
	if c.Contains(5) {
		t.Fatal("line survived flush")
	}
	if present, _ := c.Flush(5); present {
		t.Fatal("double flush found the line")
	}
}

func TestLockPinsAgainstEviction(t *testing.T) {
	c := small(t, 1, 2, 1)
	if err := c.Lock(10); err != nil {
		t.Fatal(err)
	}
	// Fill the set far beyond capacity; the locked line must survive.
	for i := uint64(0); i < 20; i++ {
		c.Access(100+i, false)
	}
	if !c.Contains(10) {
		t.Fatal("locked line was evicted")
	}
}

func TestLockedLineAbsorbsFlush(t *testing.T) {
	c := small(t, 1, 2, 1)
	if err := c.Lock(10); err != nil {
		t.Fatal(err)
	}
	// The §4.2 defense depends on this: the attacker's CLFLUSH cannot
	// push a locked aggressor line back to DRAM.
	if present, _ := c.Flush(10); present {
		t.Fatal("flush reported the locked line as removable")
	}
	if !c.Contains(10) {
		t.Fatal("flush removed a locked line")
	}
}

func TestLockBudgetEnforced(t *testing.T) {
	c := small(t, 1, 4, 2)
	if err := c.Lock(1); err != nil {
		t.Fatal(err)
	}
	if err := c.Lock(2); err != nil {
		t.Fatal(err)
	}
	err := c.Lock(3)
	if !errors.Is(err, ErrLockBudget) {
		t.Fatalf("third lock error = %v, want ErrLockBudget", err)
	}
	if c.LockedCount() != 2 {
		t.Fatalf("locked count = %d", c.LockedCount())
	}
}

func TestLockDisabled(t *testing.T) {
	c := small(t, 1, 2, 0)
	if err := c.Lock(1); !errors.Is(err, ErrLockBudget) {
		t.Fatalf("lock with budget 0: %v", err)
	}
}

func TestUnlockRestoresEvictability(t *testing.T) {
	c := small(t, 1, 1, 1)
	if err := c.Lock(10); err != nil {
		t.Fatal(err)
	}
	c.Unlock(10)
	c.Access(11, false)
	if c.Contains(10) {
		t.Fatal("unlocked line survived full-set pressure")
	}
	if c.LockedCount() != 0 {
		t.Fatal("locked count not decremented")
	}
}

func TestLockExistingLine(t *testing.T) {
	c := small(t, 1, 2, 1)
	c.Access(10, false)
	if err := c.Lock(10); err != nil {
		t.Fatal(err)
	}
	if err := c.Lock(10); err != nil {
		t.Fatalf("re-locking a locked line failed: %v", err)
	}
	if c.LockedCount() != 1 {
		t.Fatalf("locked count = %d after double lock", c.LockedCount())
	}
}

func TestFullyLockedSetBypasses(t *testing.T) {
	c := small(t, 1, 1, 1)
	if err := c.Lock(10); err != nil {
		t.Fatal(err)
	}
	r := c.Access(11, false)
	if !r.Bypassed || r.Filled {
		t.Fatalf("access to fully-locked set: %+v, want bypass", r)
	}
	if c.Contains(11) {
		t.Fatal("bypassed line was cached")
	}
}

// TestContainsMatchesAccessHistory is a property test: after any sequence
// of accesses confined to one set, the cache contains exactly the most
// recent min(ways, distinct) lines.
func TestContainsMatchesAccessHistory(t *testing.T) {
	const ways = 4
	f := func(pattern []uint8) bool {
		c, err := New(Config{Sets: 1, Ways: ways})
		if err != nil {
			return false
		}
		var history []uint64
		for _, p := range pattern {
			line := uint64(p % 16)
			c.Access(line, false)
			// Maintain LRU order of distinct lines.
			for i, h := range history {
				if h == line {
					history = append(history[:i], history[i+1:]...)
					break
				}
			}
			history = append(history, line)
		}
		start := 0
		if len(history) > ways {
			start = len(history) - ways
		}
		for i, h := range history {
			if got := c.Contains(h); got != (i >= start) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}
