package sim

import (
	"runtime"
	"testing"
)

// TestFreeListContract pins the recycling contract the per-machine
// arrays rely on: an empty list misses and allocates, a recycled array
// of the right length comes back cleared, one of another length is
// discarded, and the list never holds more than 2×GOMAXPROCS arrays.
func TestFreeListContract(t *testing.T) {
	l := NewFreeList[uint64]()

	s, reused := l.Get(8)
	if reused || len(s) != 8 {
		t.Fatalf("empty Get = len %d reused %v, want a fresh len-8 array", len(s), reused)
	}
	for i := range s {
		s[i] = uint64(i + 1)
	}
	l.Put(s)
	got, reused := l.Get(8)
	if !reused || &got[0] != &s[0] {
		t.Fatal("Get after Put did not reuse the array")
	}
	for i, v := range got {
		if v != 0 {
			t.Fatalf("recycled array not cleared: [%d] = %d", i, v)
		}
	}

	// A length mismatch (another geometry) is discarded, not kept.
	l.Put(got)
	if other, reused := l.Get(16); reused || len(other) != 16 {
		t.Fatal("Get(16) reused a len-8 array")
	}
	if _, reused := l.Get(8); reused {
		t.Fatal("the mismatched array stayed on the list")
	}

	l.Put(nil)
	if _, reused := l.Get(0); reused {
		t.Fatal("Put(nil) kept an empty array")
	}

	// Capacity bound: Puts beyond 2×GOMAXPROCS are dropped.
	limit := 2 * runtime.GOMAXPROCS(0)
	for i := 0; i <= limit; i++ {
		l.Put(make([]uint64, 4))
	}
	for i := 0; i < limit; i++ {
		if _, reused := l.Get(4); !reused {
			t.Fatalf("Get %d of %d missed on a full list", i+1, limit)
		}
	}
	if _, reused := l.Get(4); reused {
		t.Fatal("a Put into a full list was kept")
	}
}
