package sim

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Stats is an ordered registry of named integer counters, float gauges,
// indexed vector counters (e.g. per-bank), and fixed-bucket histograms.
// Components of the simulator record events into a shared Stats so that
// experiments can report them uniformly.
//
// The zero value is ready to use. Stats is not safe for concurrent use;
// the simulator is single-threaded by design (determinism).
type Stats struct {
	counters map[string]*int64
	gauges   map[string]float64
	vectors  map[string][]int64
	hists    map[string]*Histogram
}

// CounterRef returns a live pointer to the named counter, creating it
// (at zero) if needed. Hot paths that increment the same counter per
// event (the DRAM command stream, the controller's refresh schedule)
// hold the pointer and increment through it, skipping the map lookup per
// event — the same pattern EnsureVec and NewHistogram establish for
// vectors and histograms. The pointer stays live until Reset.
func (s *Stats) CounterRef(name string) *int64 {
	if s.counters == nil {
		s.counters = make(map[string]*int64)
	}
	p := s.counters[name]
	if p == nil {
		p = new(int64)
		s.counters[name] = p
	}
	return p
}

// LazyCounter is a handle to one named counter that binds to the registry
// on its first Add, not when it is made. Per-request paths hold one per
// counter and skip the map lookup after the first event, while a counter
// that never fires still never appears in CounterNames or Snapshot — the
// registry's contents stay exactly what name-keyed Inc calls would leave.
// Like CounterRef's pointer, a bound handle is orphaned by Reset.
type LazyCounter struct {
	stats *Stats
	name  string
	p     *int64
}

// LazyCounter returns an unbound handle to the named counter.
func (s *Stats) LazyCounter(name string) LazyCounter {
	return LazyCounter{stats: s, name: name}
}

// Add increments the counter by delta, binding the handle first if needed.
func (c *LazyCounter) Add(delta int64) {
	if c.p == nil {
		c.p = c.stats.CounterRef(c.name)
	}
	*c.p += delta
}

// Inc increments the counter by one.
func (c *LazyCounter) Inc() { c.Add(1) }

// Add increments the named counter by delta, creating it if needed.
func (s *Stats) Add(name string, delta int64) {
	*s.CounterRef(name) += delta
}

// Inc increments the named counter by one.
func (s *Stats) Inc(name string) { s.Add(name, 1) }

// Counter returns the value of the named counter (zero if never written).
func (s *Stats) Counter(name string) int64 {
	if p := s.counters[name]; p != nil {
		return *p
	}
	return 0
}

// SetGauge records a float gauge value, overwriting any previous value.
func (s *Stats) SetGauge(name string, v float64) {
	if s.gauges == nil {
		s.gauges = make(map[string]float64)
	}
	s.gauges[name] = v
}

// Gauge returns the value of the named gauge (zero if never written).
func (s *Stats) Gauge(name string) float64 { return s.gauges[name] }

// AddVec increments element idx of the named vector counter, growing the
// vector as needed. Vectors are labeled counters indexed by a small dense
// dimension (bank number, domain id).
func (s *Stats) AddVec(name string, idx int, delta int64) {
	if idx < 0 {
		return
	}
	v := s.EnsureVec(name, idx+1)
	v[idx] += delta
}

// EnsureVec returns the named vector, grown to at least n elements. Hot
// paths that know their dimension up front (e.g. per-bank counters sized
// to the geometry) call this once and index the returned slice directly,
// skipping the map lookup per event.
func (s *Stats) EnsureVec(name string, n int) []int64 {
	if s.vectors == nil {
		s.vectors = make(map[string][]int64)
	}
	v := s.vectors[name]
	if len(v) < n {
		grown := make([]int64, n)
		copy(grown, v)
		v = grown
		s.vectors[name] = v
	}
	return v
}

// Vec returns the named vector counter (nil if never written). The
// returned slice is live; callers must not modify it.
func (s *Stats) Vec(name string) []int64 { return s.vectors[name] }

// VecNames returns all vector names in sorted order.
func (s *Stats) VecNames() []string { return sortedKeys(s.vectors) }

// Histogram is a fixed-bucket distribution: Bounds are the inclusive
// upper edges of the first len(Bounds) buckets, and one final overflow
// bucket catches everything larger, so len(counts) == len(Bounds)+1.
// Observing is allocation-free; components hold the *Histogram returned
// by Stats.NewHistogram to skip the map lookup on hot paths.
type Histogram struct {
	bounds []float64
	counts []uint64
	count  uint64
	sum    float64
	// log2Start is k when bounds are ExpBuckets(2^k, 2, n) with k >= 0,
	// else -1: an integral sample's bucket is then its bit length.
	log2Start int
	// uintFast bounds ObserveUint's closed form: an integer u with
	// u-1 < uintFast lies in [1, min(2^53, last bound)] and lands in
	// bucket bits.Len64((u-1)>>k). It is 0 unless log2Start >= 0.
	uintFast uint64
}

func newHistogram(bounds []float64) *Histogram {
	h := &Histogram{
		bounds:    append([]float64(nil), bounds...),
		counts:    make([]uint64, len(bounds)+1),
		log2Start: pow2Doubling(bounds),
	}
	if k := h.log2Start; k >= 0 {
		h.uintFast = 1 << 53
		if top := k + len(bounds) - 1; top < 53 {
			h.uintFast = 1 << top
		}
	}
	return h
}

// pow2Doubling returns k when bounds are 2^k, 2^(k+1), 2^(k+2), … for
// some k >= 0, and -1 for any other shape.
func pow2Doubling(bounds []float64) int {
	if len(bounds) == 0 || !(bounds[0] >= 1 && bounds[0] < 1<<63) {
		return -1
	}
	start := uint64(bounds[0])
	if float64(start) != bounds[0] || start&(start-1) != 0 {
		return -1
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] != 2*bounds[i-1] {
			return -1
		}
	}
	return bits.Len64(start) - 1
}

// Observe records one sample into the first bucket whose bound is >= v;
// NaN compares false against every bound and lands in the overflow
// bucket.
func (h *Histogram) Observe(v float64) {
	h.counts[h.bucket(v)]++
	h.count++
	h.sum += v
}

// ObserveUint records the integer sample u exactly as Observe(float64(u))
// would: same bucket, count and sum. Power-of-two doubling bounds place
// u in closed form, without a float round trip; every other sample —
// zero, beyond the last bound, from 2^53 up (where float64 is no longer
// exact), or any sample of other bound shapes — scans the bounds for
// float64(u) as Observe does. It is small enough to inline, so a hot
// path pays no call.
func (h *Histogram) ObserveUint(u uint64) {
	v := float64(u)
	i := 0
	if x := u - 1; x < h.uintFast {
		i = bits.Len64(x >> uint(h.log2Start))
	} else {
		for i < len(h.bounds) && v > h.bounds[i] {
			i++
		}
	}
	h.counts[i]++
	h.count++
	h.sum += v
}

// bucket returns v's bucket index. Power-of-two doubling bounds place a
// non-negative integral v in O(1): bound i is 2^(k+i), so v > 2^k lands
// in bucket bits.Len64(v-1)-k. Every other bound shape or value takes a
// binary search over the ascending bounds.
func (h *Histogram) bucket(v float64) int {
	if k := h.log2Start; k >= 0 && v >= 0 && v < 1<<63 {
		if u := uint64(v); float64(u) == v {
			if u <= 1<<k {
				return 0
			}
			return min(bits.Len64(u-1)-k, len(h.bounds))
		}
	}
	lo, hi := 0, len(h.bounds)
	for lo < hi {
		mid := int(uint(lo+hi) >> 1)
		if v <= h.bounds[mid] {
			hi = mid
		} else {
			lo = mid + 1
		}
	}
	return lo
}

// Count returns how many samples were observed.
func (h *Histogram) Count() uint64 { return h.count }

// Sum returns the sum of all observed samples.
func (h *Histogram) Sum() float64 { return h.sum }

// Bounds returns the bucket upper edges (callers must not modify).
func (h *Histogram) Bounds() []float64 { return h.bounds }

// Counts returns the per-bucket sample counts, the last entry being the
// overflow bucket (callers must not modify).
func (h *Histogram) Counts() []uint64 { return h.counts }

// ExpBuckets returns n exponentially growing bucket bounds starting at
// start and multiplying by factor — the usual shape for cycle-valued
// distributions (inter-ACT spacing, service latency).
func ExpBuckets(start, factor float64, n int) []float64 {
	out := make([]float64, n)
	v := start
	for i := range out {
		out[i] = v
		v *= factor
	}
	return out
}

// NewHistogram registers (or fetches) the named histogram. If the name is
// new, it is created with the given bucket bounds (which must be sorted
// ascending); if it already exists, the existing histogram is returned
// unchanged and bounds are ignored.
func (s *Stats) NewHistogram(name string, bounds []float64) *Histogram {
	if s.hists == nil {
		s.hists = make(map[string]*Histogram)
	}
	if h, ok := s.hists[name]; ok {
		return h
	}
	h := newHistogram(bounds)
	s.hists[name] = h
	return h
}

// Observe records a sample into the named histogram, creating it with
// default exponential buckets (1, 2, 4, … 2^19) if needed. Hot paths
// should prefer holding the *Histogram from NewHistogram.
func (s *Stats) Observe(name string, v float64) {
	h := s.hists[name]
	if h == nil {
		h = s.NewHistogram(name, ExpBuckets(1, 2, 20))
	}
	h.Observe(v)
}

// Hist returns the named histogram (nil if never created).
func (s *Stats) Hist(name string) *Histogram { return s.hists[name] }

// HistNames returns all histogram names in sorted order.
func (s *Stats) HistNames() []string { return sortedKeys(s.hists) }

// CounterNames returns all counter names in sorted order.
func (s *Stats) CounterNames() []string { return sortedKeys(s.counters) }

// GaugeNames returns all gauge names in sorted order.
func (s *Stats) GaugeNames() []string { return sortedKeys(s.gauges) }

func sortedKeys[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for n := range m {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// Reset clears all counters, gauges, vectors and histograms. Histogram
// pointers handed out earlier are orphaned, not zeroed.
func (s *Stats) Reset() {
	s.counters = nil
	s.gauges = nil
	s.vectors = nil
	s.hists = nil
}

// Merge folds other into s:
//
//   - counters and vectors are summed (vectors element-wise, growing s's
//     vector to the longer length);
//   - histograms with identical bounds are summed bucket-wise; on a
//     bounds mismatch, other's histogram replaces s's (as a copy) — the
//     caller re-registered the metric with a new shape and the old
//     samples are not comparable;
//   - gauges are OVERWRITTEN by other's value, not combined. Gauges are
//     point-in-time readings (a rate, a ratio, a final level), for which
//     addition is meaningless; last writer wins, so merge order matters.
//     Callers needing combinable values must use counters or histograms.
func (s *Stats) Merge(other *Stats) {
	for n, v := range other.counters {
		s.Add(n, *v)
	}
	for n, v := range other.gauges {
		s.SetGauge(n, v)
	}
	for n, v := range other.vectors {
		dst := s.EnsureVec(n, len(v))
		for i, x := range v {
			dst[i] += x
		}
	}
	for n, oh := range other.hists {
		sh := s.Hist(n)
		if sh != nil && boundsEqual(sh.bounds, oh.bounds) {
			for i, c := range oh.counts {
				sh.counts[i] += c
			}
			sh.count += oh.count
			sh.sum += oh.sum
			continue
		}
		if s.hists == nil {
			s.hists = make(map[string]*Histogram)
		}
		h := newHistogram(oh.bounds)
		copy(h.counts, oh.counts)
		h.count, h.sum = oh.count, oh.sum
		s.hists[n] = h
	}
}

func boundsEqual(a, b []float64) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// CounterValue is one counter in a Snapshot.
type CounterValue struct {
	Name  string `json:"name"`
	Value int64  `json:"value"`
}

// GaugeValue is one gauge in a Snapshot.
type GaugeValue struct {
	Name  string  `json:"name"`
	Value float64 `json:"value"`
}

// VectorValue is one vector counter in a Snapshot.
type VectorValue struct {
	Name   string  `json:"name"`
	Values []int64 `json:"values"`
}

// HistogramValue is one histogram in a Snapshot. Counts has one more
// entry than Bounds (the overflow bucket).
type HistogramValue struct {
	Name   string    `json:"name"`
	Bounds []float64 `json:"bounds"`
	Counts []uint64  `json:"counts"`
	Count  uint64    `json:"count"`
	Sum    float64   `json:"sum"`
}

// StatsSnapshot is a stable, sorted, deep-copied view of a Stats — safe
// to serialize, hand across goroutines, or diff, long after the source
// Stats has moved on.
type StatsSnapshot struct {
	Counters   []CounterValue   `json:"counters"`
	Gauges     []GaugeValue     `json:"gauges,omitempty"`
	Vectors    []VectorValue    `json:"vectors,omitempty"`
	Histograms []HistogramValue `json:"histograms,omitempty"`
}

// Snapshot returns a sorted, deep-copied view of every metric. Report
// call sites iterate the slices directly instead of re-sorting map keys.
func (s *Stats) Snapshot() StatsSnapshot {
	var snap StatsSnapshot
	snap.Counters = make([]CounterValue, 0, len(s.counters))
	for _, n := range s.CounterNames() {
		snap.Counters = append(snap.Counters, CounterValue{Name: n, Value: *s.counters[n]})
	}
	for _, n := range s.GaugeNames() {
		snap.Gauges = append(snap.Gauges, GaugeValue{Name: n, Value: s.gauges[n]})
	}
	for _, n := range s.VecNames() {
		snap.Vectors = append(snap.Vectors, VectorValue{
			Name:   n,
			Values: append([]int64(nil), s.vectors[n]...),
		})
	}
	for _, n := range s.HistNames() {
		h := s.hists[n]
		snap.Histograms = append(snap.Histograms, HistogramValue{
			Name:   n,
			Bounds: append([]float64(nil), h.bounds...),
			Counts: append([]uint64(nil), h.counts...),
			Count:  h.count,
			Sum:    h.sum,
		})
	}
	return snap
}

// String renders the stats as "name=value" lines in sorted order:
// counters, then gauges (the historical format), then vectors and
// histogram summaries. It is intended for debugging and test failures.
func (s *Stats) String() string {
	var b strings.Builder
	for _, n := range s.CounterNames() {
		fmt.Fprintf(&b, "%s=%d\n", n, *s.counters[n])
	}
	for _, n := range s.GaugeNames() {
		fmt.Fprintf(&b, "%s=%g\n", n, s.gauges[n])
	}
	for _, n := range s.VecNames() {
		fmt.Fprintf(&b, "%s=%v\n", n, s.vectors[n])
	}
	for _, n := range s.HistNames() {
		h := s.hists[n]
		fmt.Fprintf(&b, "%s=count:%d sum:%g\n", n, h.count, h.sum)
	}
	return b.String()
}
