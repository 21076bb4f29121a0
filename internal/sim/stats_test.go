package sim

import (
	"encoding/json"
	"math"
	"sort"
	"sync"
	"testing"
)

func TestStatsVectors(t *testing.T) {
	var s Stats
	s.AddVec("dram.act.bank", 3, 5)
	s.AddVec("dram.act.bank", 0, 1)
	s.AddVec("dram.act.bank", 3, 2)
	v := s.Vec("dram.act.bank")
	if len(v) != 4 || v[0] != 1 || v[3] != 7 {
		t.Fatalf("vec = %v", v)
	}
	if s.Vec("missing") != nil {
		t.Fatal("missing vector should be nil")
	}
	s.AddVec("dram.act.bank", -1, 9) // negative index ignored
	if got := s.Vec("dram.act.bank"); len(got) != 4 {
		t.Fatalf("negative index grew vector: %v", got)
	}
}

func TestStatsEnsureVecHotPath(t *testing.T) {
	var s Stats
	v := s.EnsureVec("per-bank", 8)
	if len(v) != 8 {
		t.Fatalf("len %d", len(v))
	}
	v[5]++ // direct indexing, as hot paths do
	if s.Vec("per-bank")[5] != 1 {
		t.Fatal("EnsureVec must return the live slice")
	}
	allocs := testing.AllocsPerRun(1000, func() { v[5]++ })
	if allocs != 0 {
		t.Fatalf("direct vector increment allocates %.1f", allocs)
	}
}

func TestHistogramObserve(t *testing.T) {
	var s Stats
	h := s.NewHistogram("spacing", []float64{10, 100, 1000})
	for _, v := range []float64{5, 10, 11, 500, 5000} {
		h.Observe(v)
	}
	counts := h.Counts()
	// ≤10 → bucket 0 (5, 10); ≤100 → bucket 1 (11); ≤1000 → bucket 2
	// (500); overflow (5000).
	want := []uint64{2, 1, 1, 1}
	for i, c := range counts {
		if c != want[i] {
			t.Fatalf("counts = %v, want %v", counts, want)
		}
	}
	if h.Count() != 5 || h.Sum() != 5526 {
		t.Fatalf("count=%d sum=%g", h.Count(), h.Sum())
	}
	if again := s.NewHistogram("spacing", []float64{1}); again != h {
		t.Fatal("re-registering must return the existing histogram")
	}
	allocs := testing.AllocsPerRun(1000, func() { h.Observe(50) })
	if allocs != 0 {
		t.Fatalf("Observe allocates %.1f", allocs)
	}
}

func TestStatsObserveDefaultBuckets(t *testing.T) {
	var s Stats
	s.Observe("x", 3)
	s.Observe("x", 1<<30) // far past the last default bucket
	h := s.Hist("x")
	if h == nil || h.Count() != 2 {
		t.Fatal("default-bucket histogram not created")
	}
	if h.Counts()[len(h.Counts())-1] != 1 {
		t.Fatal("large sample should land in the overflow bucket")
	}
}

func TestExpBuckets(t *testing.T) {
	b := ExpBuckets(1, 2, 4)
	want := []float64{1, 2, 4, 8}
	for i := range want {
		if b[i] != want[i] {
			t.Fatalf("buckets = %v", b)
		}
	}
}

// TestStatsMergeGaugeOverwrite pins Merge's documented gauge semantics:
// gauges are point-in-time readings, so the merged-in value REPLACES the
// receiver's — it is not summed or averaged.
func TestStatsMergeGaugeOverwrite(t *testing.T) {
	var a, b Stats
	a.SetGauge("rate", 1.5)
	b.SetGauge("rate", 9.0)
	b.SetGauge("only-b", 2.0)
	a.Merge(&b)
	if g := a.Gauge("rate"); g != 9.0 {
		t.Fatalf("gauge after merge = %g, want other's value 9.0 (overwrite, not sum)", g)
	}
	if g := a.Gauge("only-b"); g != 2.0 {
		t.Fatalf("only-b = %g", g)
	}
	// Merge order matters for gauges: merging a zero-gauge Stats back
	// does not resurrect a's original value.
	var c Stats
	c.SetGauge("rate", 0)
	a.Merge(&c)
	if g := a.Gauge("rate"); g != 0 {
		t.Fatalf("last writer must win, got %g", g)
	}
}

func TestStatsMergeVectorsAndHists(t *testing.T) {
	var a, b Stats
	a.AddVec("v", 0, 1)
	b.AddVec("v", 2, 5)
	ah := a.NewHistogram("h", []float64{10, 20})
	bh := b.NewHistogram("h", []float64{10, 20})
	ah.Observe(5)
	bh.Observe(15)
	bh.Observe(100)
	a.Merge(&b)
	if v := a.Vec("v"); len(v) != 3 || v[0] != 1 || v[2] != 5 {
		t.Fatalf("merged vec = %v", v)
	}
	h := a.Hist("h")
	if h.Count() != 3 || h.Counts()[0] != 1 || h.Counts()[1] != 1 || h.Counts()[2] != 1 {
		t.Fatalf("merged hist counts = %v", h.Counts())
	}
	// Mismatched bounds: other's histogram replaces, as a copy.
	var c Stats
	ch := c.NewHistogram("h", []float64{1})
	ch.Observe(0.5)
	a.Merge(&c)
	h = a.Hist("h")
	if len(h.Bounds()) != 1 || h.Count() != 1 {
		t.Fatalf("bounds mismatch should replace: %v count=%d", h.Bounds(), h.Count())
	}
	ch.Observe(0.25)
	if h.Count() != 1 {
		t.Fatal("replacement must be a copy, not share storage")
	}
}

func TestStatsSnapshotSortedAndDeep(t *testing.T) {
	var s Stats
	s.Add("z", 1)
	s.Add("a", 2)
	s.SetGauge("g", 0.5)
	s.AddVec("vec", 1, 3)
	s.NewHistogram("h", []float64{1, 2}).Observe(1.5)
	snap := s.Snapshot()
	if len(snap.Counters) != 2 || snap.Counters[0].Name != "a" || snap.Counters[1].Name != "z" {
		t.Fatalf("counters not sorted: %v", snap.Counters)
	}
	if len(snap.Gauges) != 1 || len(snap.Vectors) != 1 || len(snap.Histograms) != 1 {
		t.Fatalf("snapshot incomplete: %+v", snap)
	}
	// Deep copy: mutating the source must not change the snapshot.
	s.Add("a", 10)
	s.AddVec("vec", 1, 10)
	s.Hist("h").Observe(3)
	if snap.Counters[0].Value != 2 {
		t.Fatal("counter snapshot not isolated")
	}
	if snap.Vectors[0].Values[1] != 3 {
		t.Fatal("vector snapshot not isolated")
	}
	if snap.Histograms[0].Count != 1 {
		t.Fatal("histogram snapshot not isolated")
	}
	// The snapshot must serialize cleanly (the -metrics-out path).
	raw, err := json.Marshal(snap)
	if err != nil {
		t.Fatal(err)
	}
	var back StatsSnapshot
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if len(back.Histograms) != 1 || back.Histograms[0].Count != 1 {
		t.Fatalf("round-trip lost histograms: %s", raw)
	}
}

func TestStatsSnapshotEmpty(t *testing.T) {
	var s Stats
	snap := s.Snapshot()
	if len(snap.Counters) != 0 {
		t.Fatal("empty stats should snapshot empty")
	}
	if _, err := json.Marshal(snap); err != nil {
		t.Fatal(err)
	}
}

func TestStatsStringIncludesNewSections(t *testing.T) {
	var s Stats
	s.Add("c", 1)
	s.SetGauge("g", 2)
	s.AddVec("v", 1, 3)
	s.NewHistogram("h", []float64{1}).Observe(0.5)
	got := s.String()
	want := "c=1\ng=2\nv=[0 3]\nh=count:1 sum:0.5\n"
	if got != want {
		t.Fatalf("String() = %q, want %q", got, want)
	}
}

// TestHistogramObserveOutOfRange pins the edge buckets: a sample below
// the first ExpBuckets bound lands in bucket 0 (bounds are inclusive
// upper edges), a sample exactly on a bound lands in that bound's
// bucket, and a sample above the last bound lands in the overflow
// bucket — never dropped.
func TestHistogramObserveOutOfRange(t *testing.T) {
	var s Stats
	h := s.NewHistogram("lat", ExpBuckets(0.001, 10, 3)) // 0.001, 0.01, 0.1
	h.Observe(0.0000001)                                 // far below the first bound
	h.Observe(0.001)                                     // exactly on the first bound: inclusive
	h.Observe(0.01)                                      // exactly on a middle bound
	h.Observe(42)                                        // far above the last bound
	want := []uint64{2, 1, 0, 1}
	got := h.Counts()
	if len(got) != len(want) {
		t.Fatalf("counts length %d, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("counts = %v, want %v", got, want)
		}
	}
	if h.Count() != 4 {
		t.Fatalf("count = %d, want 4", h.Count())
	}
	if sum := h.Sum(); sum < 42.011 || sum > 42.0111 {
		t.Fatalf("sum = %g", sum)
	}
}

// TestHistogramObserveMatchesLinearScan pins the binary-search bucket
// choice to the linear scan it replaced (first bound >= v, else the
// overflow bucket) on every edge: each bound exactly, between bounds,
// below the first, above the last, ±Inf and NaN.
func TestHistogramObserveMatchesLinearScan(t *testing.T) {
	linear := func(bounds []float64, v float64) int {
		for i, b := range bounds {
			if v <= b {
				return i
			}
		}
		return len(bounds)
	}
	inf, nan := math.Inf(1), math.NaN()
	for _, bounds := range [][]float64{
		ExpBuckets(8, 2, 16),
		ExpBuckets(1, 2, 17),
		{5},
		{1, 1, 2}, // repeated bound: the first of the pair wins
		{},
	} {
		values := []float64{-inf, inf, nan, 0, -1, 1e300}
		for _, b := range bounds {
			values = append(values, b, b-0.5, b+0.5, math.Nextafter(b, inf))
		}
		for _, v := range values {
			var s Stats
			h := s.NewHistogram("h", bounds)
			h.Observe(v)
			want := linear(bounds, v)
			if h.Counts()[want] != 1 {
				t.Fatalf("bounds %v: Observe(%g) counts %v, want bucket %d", bounds, v, h.Counts(), want)
			}
		}
	}
}

// TestHistogramBitLengthMatchesBinarySearch drives the O(1) bucket of
// power-of-two doubling bounds against the binary search it shortcuts:
// every integer in [0, 2^20], every bound ±1, and the values the fast
// path must hand to the search (NaN, ±Inf, negative, fractional, huge).
// Other bound shapes must stay on the search.
func TestHistogramBitLengthMatchesBinarySearch(t *testing.T) {
	search := func(bounds []float64, v float64) int {
		return sort.Search(len(bounds), func(i int) bool { return v <= bounds[i] })
	}
	inf := math.Inf(1)
	for _, c := range []struct {
		bounds []float64
		k      int
	}{
		{ExpBuckets(1, 2, 17), 0}, // dram.acts_per_row
		{ExpBuckets(8, 2, 16), 3}, // mc.service_cycles, mc.inter_act_cycles
		{ExpBuckets(1, 2, 20), 0}, // Stats.Observe default
		{ExpBuckets(1, 2, 1), 0},  // a single bound
		{ExpBuckets(1<<40, 2, 4), 40},
		{ExpBuckets(3, 2, 8), -1},      // start not a power of two
		{ExpBuckets(0.5, 2, 8), -1},    // start below 1
		{ExpBuckets(8, 4, 8), -1},      // factor 4
		{ExpBuckets(0.001, 4, 12), -1}, // serve.job.seconds
		{[]float64{1, 2, 4, 9}, -1},
		{nil, -1},
	} {
		var s Stats
		h := s.NewHistogram("h", c.bounds)
		if h.log2Start != c.k {
			t.Fatalf("bounds %v: log2Start %d, want %d", c.bounds, h.log2Start, c.k)
		}
		check := func(v float64) {
			if got, want := h.bucket(v), search(c.bounds, v); got != want {
				t.Fatalf("bounds %v: bucket(%v) = %d, binary search %d", c.bounds, v, got, want)
			}
		}
		for v := 0; v <= 1<<20; v++ {
			check(float64(v))
		}
		for _, b := range c.bounds {
			check(b - 1)
			check(b)
			check(b + 1)
		}
		for _, v := range []float64{math.NaN(), inf, -inf, -1, -0.5, math.Copysign(0, -1),
			0.5, 1.5, 7.999, 8.000001, 1e300, 1 << 63, 1<<63 - 1024, 1 << 62} {
			check(v)
		}
	}
}

// TestLazyCounterBindsOnFirstAdd pins the handle contract the request
// path relies on: an unfired handle leaves no counter behind, a fired one
// is the same counter name-keyed calls see.
func TestLazyCounterBindsOnFirstAdd(t *testing.T) {
	var s Stats
	c := s.LazyCounter("mc.row_hits")
	if n := len(s.CounterNames()); n != 0 {
		t.Fatalf("unfired handle registered %d counters", n)
	}
	c.Inc()
	c.Add(4)
	s.Inc("mc.row_hits")
	if got := s.Counter("mc.row_hits"); got != 6 {
		t.Fatalf("counter = %d, want 6", got)
	}
	if allocs := testing.AllocsPerRun(1000, c.Inc); allocs != 0 {
		t.Fatalf("bound handle Inc allocates %.1f", allocs)
	}
}

// TestStatsMergeDisjointKeys merges two registries with no key overlap:
// every metric of both must survive, values unchanged.
func TestStatsMergeDisjointKeys(t *testing.T) {
	var a, b Stats
	a.Add("left.counter", 3)
	a.SetGauge("left.gauge", 1.5)
	a.AddVec("left.vec", 1, 7)
	a.NewHistogram("left.hist", ExpBuckets(1, 2, 4)).Observe(3)

	b.Add("right.counter", 5)
	b.SetGauge("right.gauge", 2.5)
	b.AddVec("right.vec", 0, 9)
	b.NewHistogram("right.hist", ExpBuckets(1, 10, 2)).Observe(100)

	a.Merge(&b)
	if a.Counter("left.counter") != 3 || a.Counter("right.counter") != 5 {
		t.Fatalf("counters: left=%d right=%d", a.Counter("left.counter"), a.Counter("right.counter"))
	}
	if a.Gauge("left.gauge") != 1.5 || a.Gauge("right.gauge") != 2.5 {
		t.Fatal("gauges lost in disjoint merge")
	}
	if v := a.Vec("left.vec"); len(v) != 2 || v[1] != 7 {
		t.Fatalf("left.vec = %v", v)
	}
	if v := a.Vec("right.vec"); len(v) != 1 || v[0] != 9 {
		t.Fatalf("right.vec = %v", v)
	}
	lh, rh := a.Hist("left.hist"), a.Hist("right.hist")
	if lh == nil || rh == nil {
		t.Fatal("histograms lost in disjoint merge")
	}
	if lh.Count() != 1 || rh.Count() != 1 || rh.Sum() != 100 {
		t.Fatalf("hist counts: left=%d right=%d sum=%g", lh.Count(), rh.Count(), rh.Sum())
	}
	// The merged-in histogram must be a copy: observing into b afterwards
	// must not move a's view.
	b.Observe("right.hist", 100)
	if rh.Count() != 1 {
		t.Fatal("merged histogram aliases the source registry")
	}
}

// TestStatsConcurrentSnapshotVsInc exercises the supported concurrent
// pattern (a Stats shared across goroutines behind a mutex, as
// serve.Manager does) under the race detector: writers Inc/Observe
// while readers Snapshot, all holding the lock; every snapshot must be
// internally consistent and safe to read after release.
func TestStatsConcurrentSnapshotVsInc(t *testing.T) {
	var (
		mu sync.Mutex
		s  Stats
	)
	s.NewHistogram("h", ExpBuckets(1, 2, 8))
	const (
		writers = 4
		perG    = 500
	)
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				mu.Lock()
				s.Inc("c")
				s.Observe("h", float64(i%32))
				mu.Unlock()
			}
		}()
	}
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < perG; i++ {
				mu.Lock()
				snap := s.Snapshot()
				mu.Unlock()
				// The deep copy is read outside the lock, racing the
				// writers only if Snapshot aliased live state.
				for _, h := range snap.Histograms {
					var n uint64
					for _, c := range h.Counts {
						n += c
					}
					if n != h.Count {
						t.Errorf("snapshot histogram internally inconsistent: buckets %d, count %d", n, h.Count)
						return
					}
				}
			}
		}()
	}
	wg.Wait()
	if got := s.Counter("c"); got != writers*perG {
		t.Fatalf("final counter %d, want %d", got, writers*perG)
	}
	if got := s.Hist("h").Count(); got != writers*perG {
		t.Fatalf("final histogram count %d, want %d", got, writers*perG)
	}
}

// TestHistogramObserveUintMatchesObserve pins ObserveUint to
// Observe(float64(u)): same bucket, count and sum bits, at 0, 1, 2^k-1,
// 2^k and 2^k+1 for every k, at 2^53 and its neighbours (where float64
// stops being exact), and at the largest uint64, for power-of-two
// doubling bounds and for shapes that take the scan.
func TestHistogramObserveUintMatchesObserve(t *testing.T) {
	values := []uint64{0, 1, 1<<53 - 1, 1 << 53, 1<<53 + 1, math.MaxUint64}
	for k := 1; k < 64; k++ {
		values = append(values, 1<<k-1, 1<<k, 1<<k+1)
	}
	for _, bounds := range [][]float64{
		ExpBuckets(8, 2, 16), // mc.service_cycles, mc.inter_act_cycles
		ExpBuckets(1, 2, 17), // dram.acts_per_row
		ExpBuckets(1, 2, 1),
		ExpBuckets(1, 2, 60), // last bound beyond 2^53
		ExpBuckets(1<<40, 2, 20),
		ExpBuckets(3, 2, 8),
		ExpBuckets(0.001, 4, 12),
		{1, 2, 4, 9},
		nil,
	} {
		var s Stats
		want := s.NewHistogram("want", bounds)
		got := s.NewHistogram("got", bounds)
		for _, u := range values {
			want.Observe(float64(u))
			got.ObserveUint(u)
			if !equalHist(want, got) {
				t.Fatalf("bounds %v: ObserveUint(%d) gives counts %v count %d sum %v, Observe %v %d %v",
					bounds, u, got.Counts(), got.Count(), got.Sum(), want.Counts(), want.Count(), want.Sum())
			}
		}
	}
}

func equalHist(a, b *Histogram) bool {
	if a.Count() != b.Count() || math.Float64bits(a.Sum()) != math.Float64bits(b.Sum()) {
		return false
	}
	for i, c := range a.Counts() {
		if b.Counts()[i] != c {
			return false
		}
	}
	return true
}
