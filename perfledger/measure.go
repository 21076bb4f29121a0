package main

import (
	"fmt"
	"hash/fnv"
	"math"
	"runtime/metrics"
	"sort"
	"strings"
	"sync"
	"time"

	"hammertime/internal/sim"
)

// minTail is how many samples a reported percentile must have beyond it.
// Fewer make the percentile a statement about one or two outliers.
const minTail = 10

// percentile returns the nearest-rank p-quantile of xs (0 < p < 1). It
// refuses when fewer than minTail samples lie beyond the rank, so a p90
// needs at least 100 samples and a p50 at least 20.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	rank := int(math.Ceil(p * float64(n)))
	if rank < 1 {
		rank = 1
	}
	if n-rank < minTail {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", 100*p, n, n-rank, minTail)
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s[rank-1], nil
}

// samplesFor is the sample count at which percentile(p) stops refusing.
func samplesFor(p float64) int {
	for n := minTail; ; n++ {
		if n-int(math.Ceil(p*float64(n))) >= minTail {
			return n
		}
	}
}

// median returns the middle value of xs (0 for none).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	if len(s)%2 == 1 {
		return s[len(s)/2]
	}
	return (s[len(s)/2-1] + s[len(s)/2]) / 2
}

// ms converts a duration to float milliseconds.
func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// attribute splits a measured whole among estimated parts. Negative
// estimates count as zero. When the estimates add up to more than the
// whole they are scaled down in proportion, so the returned parts never
// exceed the measurement; residual is the unexplained remainder (>= 0).
func attribute(whole float64, parts []float64) (scaled []float64, residual float64) {
	scaled = make([]float64, len(parts))
	sum := 0.0
	for i, p := range parts {
		scaled[i] = math.Max(p, 0)
		sum += scaled[i]
	}
	if whole <= 0 {
		return make([]float64, len(parts)), 0
	}
	if sum <= whole {
		return scaled, whole - sum
	}
	for i := range scaled {
		scaled[i] *= whole / sum
	}
	return scaled, 0
}

// digest hashes a cell's simulated outcome: flip counts, any extra
// values, and every mc.* and dram.* counter. Two runs of one cell agree
// on the digest exactly when they simulated the same thing.
func digest(st *sim.Stats, vals ...uint64) string {
	h := fnv.New64a()
	for _, v := range vals {
		fmt.Fprintf(h, "%d;", v)
	}
	for _, name := range st.CounterNames() {
		if strings.HasPrefix(name, "mc.") || strings.HasPrefix(name, "dram.") {
			fmt.Fprintf(h, "%s=%d;", name, st.Counter(name))
		}
	}
	return fmt.Sprintf("%016x", h.Sum64())
}

// heapSampler polls the bytes of live and not-yet-swept heap objects
// and keeps the peak of each one-second window. The median of the
// window peaks is the heap a run needs; the single highest sample is
// not used, because the garbage collector's pacing lets it double now
// and then.
type heapSampler struct {
	stop  chan struct{}
	wg    sync.WaitGroup
	peaks []float64
}

const heapWindow = time.Second

// startHeapSampler polls every 2ms until stopped.
func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{})}
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		sample := []metrics.Sample{{Name: "/memory/classes/heap/objects:bytes"}}
		tick := time.NewTicker(2 * time.Millisecond)
		defer tick.Stop()
		window := time.Now()
		var peak uint64
		for {
			metrics.Read(sample)
			if v := sample[0].Value.Uint64(); v > peak {
				peak = v
			}
			if time.Since(window) >= heapWindow {
				h.peaks = append(h.peaks, float64(peak)/(1<<20))
				window, peak = time.Now(), 0
			}
			select {
			case <-h.stop:
				if len(h.peaks) == 0 {
					h.peaks = append(h.peaks, float64(peak)/(1<<20))
				}
				return
			case <-tick.C:
			}
		}
	}()
	return h
}

// peakMB stops the sampler and returns the median window peak in MiB.
func (h *heapSampler) peakMB() float64 {
	close(h.stop)
	h.wg.Wait()
	return median(h.peaks)
}
