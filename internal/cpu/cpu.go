// Package cpu models CPU cores as sequential streams of memory accesses
// driven through the cache hierarchy into the memory controller, plus the
// per-core performance counters that existing software defenses (ANVIL)
// sample. Crucially, those counters see only CPU cache misses — DMA
// traffic never shows up in them, which is the §1 blind spot the paper's
// precise ACT interrupt closes.
package cpu

import (
	"fmt"

	"hammertime/internal/cache"
	"hammertime/internal/memctrl"
)

// Access is one step of a program: optionally flush the line first
// (CLFLUSH + fence, the standard hammering idiom), then load or store it.
type Access struct {
	Line  uint64
	Write bool
	// Flush evicts the line before the access so it must reach DRAM.
	Flush bool
	// Think is extra cycles the core spends before its next access
	// (models computation between memory operations).
	Think uint64
}

// Program generates a core's access stream. Next returns ok=false when the
// program has finished.
type Program interface {
	Next() (Access, bool)
}

// ProgramFunc adapts a function to the Program interface.
type ProgramFunc func() (Access, bool)

// Next implements Program.
func (f ProgramFunc) Next() (Access, bool) { return f() }

// PerfCounters is the per-core PMU state visible to system software.
// ANVIL-style defenses poll LLCMisses; note there is no DMA counter.
type PerfCounters struct {
	Accesses  uint64
	LLCMisses uint64
	Flushes   uint64
}

// Core executes a Program against the shared cache and memory controller.
type Core struct {
	ID     int
	Domain int

	prog  Program
	cache *cache.Cache
	mc    *memctrl.Controller

	// HitLatency is the cycle cost of an LLC hit (default 20).
	HitLatency uint64
	// FlushLatency is the cycle cost of a CLFLUSH (default 40).
	FlushLatency uint64
	// MLP is the number of independent outstanding misses the core can
	// sustain (default 1, an in-order core). An out-of-order core with
	// MLP > 1 issues up to MLP program accesses with the same arrival
	// time, so their DRAM latencies overlap when they hit different
	// banks — the bank-level parallelism §4.1's interleaving argument is
	// about.
	MLP int

	counters PerfCounters

	// samples is a PEBS-like ring of the last sampleCap LLC-miss line
	// addresses — what ANVIL-style defenses sample: sampleLen entries
	// starting at sampleHead, oldest first. Only CPU misses land here;
	// DMA traffic is invisible to core PMUs. It is nil, and misses go
	// unsampled, until EnableSampling: most cores have no PMU reader.
	samples    *[sampleCap]uint64
	sampleHead int
	sampleLen  int
	done       bool
}

// sampleCap is the depth of the PEBS-like sample ring.
const sampleCap = 256

// NewCore builds a core running prog in the given trust domain.
func NewCore(id, domain int, prog Program, c *cache.Cache, mc *memctrl.Controller) (*Core, error) {
	if prog == nil {
		return nil, fmt.Errorf("cpu: core %d needs a program", id)
	}
	if c == nil || mc == nil {
		return nil, fmt.Errorf("cpu: core %d needs a cache and a memory controller", id)
	}
	return &Core{ID: id, Domain: domain, prog: prog, cache: c, mc: mc,
		HitLatency: 20, FlushLatency: 40}, nil
}

// EnableSampling turns on the core's PEBS-like sampling buffer: from now
// on every LLC miss is recorded for Samples. A defense that reads the PMU
// calls it before the core runs. Enabling twice keeps the buffer.
func (c *Core) EnableSampling() {
	if c.samples == nil {
		c.samples = new([sampleCap]uint64)
	}
}

// Samples returns the recent LLC-miss line addresses captured by the
// core's PEBS-like sampling buffer (most recent last) and clears it. The
// returned slice belongs to the caller; it is nil when the buffer is
// empty or sampling was never enabled.
func (c *Core) Samples() []uint64 {
	if c.sampleLen == 0 {
		return nil
	}
	out := make([]uint64, c.sampleLen)
	for i := range out {
		out[i] = c.samples[(c.sampleHead+i)%sampleCap]
	}
	c.sampleHead, c.sampleLen = 0, 0
	return out
}

// recordSample appends one miss to the sample ring, overwriting the
// oldest entry when it is full.
func (c *Core) recordSample(line uint64) {
	c.samples[(c.sampleHead+c.sampleLen)%sampleCap] = line
	if c.sampleLen < sampleCap {
		c.sampleLen++
	} else {
		c.sampleHead = (c.sampleHead + 1) % sampleCap
	}
}

// Done reports whether the core's program has finished.
func (c *Core) Done() bool { return c.done }

// Counters returns the core's performance counters.
func (c *Core) Counters() PerfCounters { return c.counters }

// Step executes the program's next access (or, with MLP > 1, the next
// batch of accesses issued in parallel) starting at cycle now and returns
// the cycle at which the core is ready for its next step. ok=false means
// the program ended (and the returned cycle is now).
func (c *Core) Step(now uint64) (next uint64, ok bool, err error) {
	if c.done {
		return now, false, nil
	}
	width := c.MLP
	if width <= 1 {
		width = 1
	}
	latest := now
	issued := 0
	var think uint64
	for i := 0; i < width; i++ {
		acc, more := c.prog.Next()
		if !more {
			if issued == 0 {
				c.done = true
				return now, false, nil
			}
			break
		}
		done, err := c.access(acc, now)
		if err != nil {
			return now, false, err
		}
		if done > latest {
			latest = done
		}
		think = acc.Think
		issued++
	}
	return latest + think, true, nil
}

// access executes one program access beginning at cycle now and returns
// its completion cycle.
func (c *Core) access(acc Access, now uint64) (uint64, error) {
	t := now
	if acc.Flush {
		if present, dirty := c.cache.Flush(acc.Line); present && dirty {
			// Writeback of the dirty line to memory.
			res, err := c.mc.ServeRequest(memctrl.Request{
				Line:   acc.Line,
				Write:  true,
				Domain: c.Domain,
				Source: memctrl.Source{Kind: memctrl.SourceCPU, ID: c.ID},
			}, t)
			if err != nil {
				return 0, fmt.Errorf("cpu: core %d writeback: %w", c.ID, err)
			}
			t = res.Completion
		}
		t += c.FlushLatency
		c.counters.Flushes++
	}

	c.counters.Accesses++
	cres := c.cache.Access(acc.Line, acc.Write)
	if cres.Hit {
		t += c.HitLatency
	} else {
		c.counters.LLCMisses++
		if c.samples != nil {
			c.recordSample(acc.Line)
		}
		if cres.Writeback {
			res, err := c.mc.ServeRequest(memctrl.Request{
				Line:   cres.WritebackLine,
				Write:  true,
				Domain: c.Domain,
				Source: memctrl.Source{Kind: memctrl.SourceCPU, ID: c.ID},
			}, t)
			if err != nil {
				return 0, fmt.Errorf("cpu: core %d eviction writeback: %w", c.ID, err)
			}
			t = res.Completion
		}
		// A store miss fills the line with a read (read-for-ownership);
		// the dirty data only reaches DRAM on eviction or flush.
		res, err := c.mc.ServeRequest(memctrl.Request{
			Line:   acc.Line,
			Domain: c.Domain,
			Source: memctrl.Source{Kind: memctrl.SourceCPU, ID: c.ID},
		}, t)
		if err != nil {
			return 0, fmt.Errorf("cpu: core %d access: %w", c.ID, err)
		}
		t = res.Completion
	}
	return t, nil
}
