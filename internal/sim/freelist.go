package sim

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// FreeList recycles large per-machine working arrays between the short
// simulations of a grid, so a cell reuses the previous cell's arrays
// instead of allocating (and later garbage-collecting) its own. It is
// safe for concurrent use.
//
// The list is bounded: it holds at most 2×GOMAXPROCS arrays and drops
// any Put beyond that, so the memory it keeps alive is a few machines'
// worth whatever the grid size. That covers the machines a process runs
// at once: a local grid's GOMAXPROCS, and a cluster worker's slots'
// machines (each batch runs its cells one at a time) plus the
// coordinator audit's. (A sync.Pool would keep every recycled array
// alive until the next GC cycles and raises the heap peak.)
type FreeList[T any] struct {
	ch chan []T
}

var (
	recycled  atomic.Uint64
	listsMu   sync.Mutex
	drainable []func()
)

// NewFreeList returns an empty list holding at most 2×GOMAXPROCS arrays.
func NewFreeList[T any]() *FreeList[T] {
	l := &FreeList[T]{ch: make(chan []T, 2*runtime.GOMAXPROCS(0))}
	listsMu.Lock()
	drainable = append(drainable, l.drain)
	listsMu.Unlock()
	return l
}

// Get returns a zeroed array of length n. It reuses a recycled array
// when the list holds one of exactly that length (reused = true) and
// allocates otherwise. A recycled array of another length — a machine
// of a different geometry — is discarded rather than returned.
func (l *FreeList[T]) Get(n int) (s []T, reused bool) {
	select {
	case s = <-l.ch:
		if len(s) == n {
			clear(s)
			recycled.Add(1)
			return s, true
		}
	default:
	}
	return make([]T, n), false
}

// Put hands s back for reuse; the caller must not touch s afterwards.
// It drops s when the list is full, and ignores an empty s, so putting
// a released component's nil slice again is a no-op.
func (l *FreeList[T]) Put(s []T) {
	if len(s) == 0 {
		return
	}
	select {
	case l.ch <- s:
	default:
	}
}

func (l *FreeList[T]) drain() {
	for {
		select {
		case <-l.ch:
		default:
			return
		}
	}
}

// RecycledArrays returns how many Gets, over every free list in the
// process, were served with a recycled array.
func RecycledArrays() uint64 { return recycled.Load() }

// DrainFreeLists empties every free list in the process, so the next
// machines are built from fresh allocations.
func DrainFreeLists() {
	listsMu.Lock()
	defer listsMu.Unlock()
	for _, drain := range drainable {
		drain()
	}
}
