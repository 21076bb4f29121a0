package cache

import (
	"errors"
	"fmt"
	"math/rand/v2"
	"testing"
)

// refCache is the array-of-structs LLC with per-way LRU ticks that the
// flat Cache replaced, kept verbatim in behavior as the differential
// oracle: per-set []refWay, a linear scan for hits, first invalid way
// else the unlocked way with the oldest tick as victim.
type refCache struct {
	cfg         Config
	sets        [][]refWay
	tick        uint64
	hits        uint64
	misses      uint64
	flushes     uint64
	writebacks  uint64
	lockedLines map[uint64]bool
}

type refWay struct {
	line   uint64
	valid  bool
	dirty  bool
	locked bool
	lru    uint64
}

func newRef(cfg Config) *refCache {
	r := &refCache{cfg: cfg, sets: make([][]refWay, cfg.Sets), lockedLines: map[uint64]bool{}}
	for i := range r.sets {
		r.sets[i] = make([]refWay, cfg.Ways)
	}
	return r
}

func (r *refCache) setOf(line uint64) []refWay { return r.sets[line%uint64(r.cfg.Sets)] }

func (r *refCache) victim(set []refWay) int {
	for i := range set {
		if !set[i].valid {
			return i
		}
	}
	v, oldest := -1, ^uint64(0)
	for i := range set {
		if !set[i].locked && set[i].lru < oldest {
			oldest, v = set[i].lru, i
		}
	}
	return v
}

func (r *refCache) Access(line uint64, write bool) Result {
	r.tick++
	set := r.setOf(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			set[i].lru = r.tick
			if write {
				set[i].dirty = true
			}
			r.hits++
			return Result{Hit: true}
		}
	}
	r.misses++
	v := r.victim(set)
	if v < 0 {
		return Result{Bypassed: true}
	}
	var res Result
	if set[v].valid && set[v].dirty {
		res.Writeback, res.WritebackLine = true, set[v].line
		r.writebacks++
	}
	set[v] = refWay{line: line, valid: true, dirty: write, lru: r.tick}
	return res
}

func (r *refCache) Flush(line uint64) (bool, bool) {
	set := r.setOf(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			if set[i].locked {
				return false, false
			}
			dirty := set[i].dirty
			set[i] = refWay{}
			r.flushes++
			if dirty {
				r.writebacks++
			}
			return true, dirty
		}
	}
	return false, false
}

func (r *refCache) Lock(line uint64) error {
	if r.cfg.MaxLockedWays == 0 {
		return ErrLockBudget
	}
	set := r.setOf(line)
	locked, idx := 0, -1
	for i := range set {
		if set[i].locked {
			locked++
		}
		if set[i].valid && set[i].line == line {
			idx = i
		}
	}
	if idx >= 0 {
		if set[idx].locked {
			return nil
		}
		if locked >= r.cfg.MaxLockedWays {
			return ErrLockBudget
		}
		set[idx].locked = true
		r.lockedLines[line] = true
		return nil
	}
	if locked >= r.cfg.MaxLockedWays {
		return ErrLockBudget
	}
	r.tick++
	v := r.victim(set)
	if v < 0 {
		return ErrLockBudget
	}
	set[v] = refWay{line: line, valid: true, locked: true, lru: r.tick}
	r.lockedLines[line] = true
	return nil
}

func (r *refCache) Unlock(line uint64) {
	set := r.setOf(line)
	for i := range set {
		if set[i].valid && set[i].line == line {
			set[i].locked = false
		}
	}
	delete(r.lockedLines, line)
}

// TestCacheMatchesReference drives the flat-tag cache and the reference
// with identical seeded Access/Flush/Lock/Unlock streams and requires
// identical outcomes step by step. The configurations cover a
// non-power-of-two set count, a one-set cache, fully lockable sets (so
// all-ways-locked bypass happens), full 16-way recency stacks with and
// without a full lock budget, and the default LLC shape; the line space
// is a few ways per set so hits, LRU evictions and dirty writebacks are
// all frequent. The top configurations draw lines whose tags reach the
// 16-bit limit, with tags that differ only in their top bit, so the
// branch-free tag match is checked where a carry would show.
func TestCacheMatchesReference(t *testing.T) {
	for _, tc := range []struct {
		cfg Config
		top bool
	}{
		{cfg: Config{Sets: 7, Ways: 3, MaxLockedWays: 3}},
		{cfg: Config{Sets: 1, Ways: 4, MaxLockedWays: 4}},
		{cfg: Config{Sets: 16, Ways: 4, MaxLockedWays: 2}},
		{cfg: Config{Sets: 12, Ways: 2, MaxLockedWays: 0}},
		{cfg: Config{Sets: 3, Ways: 16, MaxLockedWays: 16}},
		{cfg: Config{Sets: 5, Ways: 16, MaxLockedWays: 4}},
		{cfg: Config{Sets: 2048, Ways: 16, MaxLockedWays: 4}},
		{cfg: DefaultConfig()},
		{cfg: Config{Sets: 6, Ways: 4, MaxLockedWays: 2}, top: true},
		{cfg: Config{Sets: 8, Ways: 8, MaxLockedWays: 8}, top: true},
	} {
		for seed := uint64(1); seed <= 4; seed++ {
			name := fmt.Sprintf("%dx%d/lock%d/seed%d", tc.cfg.Sets, tc.cfg.Ways, tc.cfg.MaxLockedWays, seed)
			if tc.top {
				name = "top/" + name
			}
			t.Run(name, func(t *testing.T) {
				diffStream(t, tc.cfg, seed, tc.top)
			})
		}
	}
}

// topQuotients are the line/Sets values a top stream draws from: the
// lowest, both sides of the tags' top-bit boundary (tag = quotient+1),
// and the highest the tags reach.
var topQuotients = []uint64{0, 1, 2, 0x7FFD, 0x7FFE, 0x7FFF, 0x8000, 0x8001, 0xFFF0, 0xFFFC, 0xFFFD, maxTag - 1}

func diffStream(t *testing.T, cfg Config, seed uint64, top bool) {
	got, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ref := newRef(cfg)
	rng := rand.New(rand.NewPCG(seed, 0x11c))
	sets := uint64(cfg.Sets)
	span := sets * uint64(cfg.Ways+2)
	nextLine := func() uint64 { return rng.Uint64N(span) }
	if top {
		nextLine = func() uint64 {
			return topQuotients[rng.IntN(len(topQuotients))]*sets + rng.Uint64N(sets)
		}
		if last := (maxTag-1)*sets + sets - 1; last != cfg.Reach()-1 {
			t.Fatalf("highest drawn line %d, reach %d", last, cfg.Reach())
		}
	}
	bypasses := 0
	step := func(i, op int, line uint64) {
		where := fmt.Sprintf("step %d (op %d, line %d)", i, op, line)
		switch {
		case op < 70:
			write := rng.IntN(3) == 0
			g, w := got.Access(line, write), ref.Access(line, write)
			if g != w {
				t.Fatalf("%s: Access = %+v, reference %+v", where, g, w)
			}
			if w.Bypassed {
				bypasses++
			}
		case op < 85:
			gp, gd := got.Flush(line)
			wp, wd := ref.Flush(line)
			if gp != wp || gd != wd {
				t.Fatalf("%s: Flush = (%v,%v), reference (%v,%v)", where, gp, gd, wp, wd)
			}
		case op < 93:
			g, w := got.Lock(line), ref.Lock(line)
			if (g == nil) != (w == nil) || (g != nil && !errors.Is(g, ErrLockBudget)) {
				t.Fatalf("%s: Lock = %v, reference %v", where, g, w)
			}
		default:
			got.Unlock(line)
			ref.Unlock(line)
		}
		if got.Contains(line) != refContains(ref, line) {
			t.Fatalf("%s: Contains disagrees", where)
		}
	}
	const steps, lockOp = 20000, 85
	for i := 0; i < steps; i++ {
		line := nextLine()
		step(i, rng.IntN(100), line)
	}
	if cfg.MaxLockedWays == cfg.Ways {
		// Pin every way of set 0 with distinct lines, then miss in it:
		// the miss must bypass. Wide sets rarely get there at random.
		for k := uint64(0); k < uint64(cfg.Ways)+2; k++ {
			step(steps, lockOp, k*sets)
		}
		step(steps, 0, span)
	}
	gh, gm, gf, gw := got.Stats()
	if gh != ref.hits || gm != ref.misses || gf != ref.flushes || gw != ref.writebacks {
		t.Fatalf("Stats = (%d,%d,%d,%d), reference (%d,%d,%d,%d)",
			gh, gm, gf, gw, ref.hits, ref.misses, ref.flushes, ref.writebacks)
	}
	if got.LockedCount() != len(ref.lockedLines) {
		t.Fatalf("LockedCount = %d, reference %d", got.LockedCount(), len(ref.lockedLines))
	}
	if ref.misses == 0 || ref.writebacks == 0 {
		t.Fatalf("stream exercised too little: %d misses, %d writebacks", ref.misses, ref.writebacks)
	}
	if cfg.MaxLockedWays == cfg.Ways && bypasses == 0 {
		t.Fatal("fully lockable sets never bypassed")
	}
}

func refContains(r *refCache, line uint64) bool {
	for _, w := range r.setOf(line) {
		if w.valid && w.line == line {
			return true
		}
	}
	return false
}
