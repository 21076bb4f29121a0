// Package workload generates benign memory access streams — the
// multi-tenant cloud traffic whose performance Rowhammer defenses must
// not ruin. The generators work over a tenant's allocated physical lines
// (translated up front by the host OS) and implement cpu.Program.
//
// The mixes matter for experiment E2: bank-partitioning isolation kills
// bank-level parallelism for streaming tenants (>18% measured by Tang et
// al. [49]), while subarray-isolated interleaving preserves it.
package workload

import (
	"fmt"
	"math"

	"hammertime/internal/cpu"
	"hammertime/internal/sim"
)

// Lines is a tenant's list of physical lines held as page frames: line i
// is Frames[i>>Shift]<<Shift | i&(1<<Shift-1), so a page of 1<<Shift
// lines costs one entry. Shift 0 makes Frames the explicit line list.
type Lines struct {
	Frames []uint64
	Shift  uint
}

// Flat wraps an explicit line list.
func Flat(lines []uint64) Lines { return Lines{Frames: lines} }

// Len returns the number of lines.
func (l Lines) Len() int { return len(l.Frames) << l.Shift }

// At returns line i.
func (l Lines) At(i int) uint64 {
	return l.Frames[i>>l.Shift]<<l.Shift | uint64(i)&(1<<l.Shift-1)
}

// Stream returns a program that walks lines sequentially (wrapping) for
// count accesses — the bank-level-parallelism-friendly pattern.
// Every access carries the given think time.
func Stream(lines Lines, count int, think uint64) (cpu.Program, error) {
	n := lines.Len()
	if n == 0 {
		return nil, fmt.Errorf("workload: stream needs lines")
	}
	i := 0
	remaining := count
	return cpu.ProgramFunc(func() (cpu.Access, bool) {
		if remaining <= 0 {
			return cpu.Access{}, false
		}
		remaining--
		line := lines.At(i % n)
		i++
		return cpu.Access{Line: line, Think: think}, true
	}), nil
}

// Random returns a program that touches uniformly random lines for count
// accesses, with the given write fraction.
func Random(lines Lines, count int, think uint64, writeFrac float64, rng *sim.RNG) (cpu.Program, error) {
	n := lines.Len()
	if n == 0 {
		return nil, fmt.Errorf("workload: random needs lines")
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: random needs an RNG")
	}
	remaining := count
	return cpu.ProgramFunc(func() (cpu.Access, bool) {
		if remaining <= 0 {
			return cpu.Access{}, false
		}
		remaining--
		return cpu.Access{
			Line:  lines.At(rng.Intn(n)),
			Write: rng.Bool(writeFrac),
			Think: think,
		}, true
	}), nil
}

// PointerChase returns a program that follows a fixed random permutation
// of the lines — dependent accesses with no spatial locality, the
// row-buffer-hostile pattern.
func PointerChase(lines Lines, count int, think uint64, rng *sim.RNG) (cpu.Program, error) {
	if lines.Len() == 0 {
		return nil, fmt.Errorf("workload: pointer chase needs lines")
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: pointer chase needs an RNG")
	}
	order := rng.Perm(lines.Len())
	i := 0
	remaining := count
	return cpu.ProgramFunc(func() (cpu.Access, bool) {
		if remaining <= 0 {
			return cpu.Access{}, false
		}
		remaining--
		line := lines.At(order[i%len(order)])
		i++
		return cpu.Access{Line: line, Think: think}, true
	}), nil
}

// Zipfian returns a program whose accesses follow an approximate Zipf
// distribution over the lines (hot-head skew, the realistic shape for
// key-value and page-cache traffic). skew > 0 controls concentration;
// 0.99 is the YCSB default. Implemented by rejection-free inverse-power
// sampling over ranks, which matches Zipf closely for the head — the part
// that matters for row-buffer locality and ACT-counter behaviour.
func Zipfian(lines Lines, count int, think uint64, skew float64, rng *sim.RNG) (cpu.Program, error) {
	size := lines.Len()
	if size == 0 {
		return nil, fmt.Errorf("workload: zipfian needs lines")
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: zipfian needs an RNG")
	}
	if skew <= 0 || skew >= 2 {
		return nil, fmt.Errorf("workload: zipfian skew %g out of (0, 2)", skew)
	}
	n := float64(size)
	inv := 1 / (1 - skew)
	remaining := count
	return cpu.ProgramFunc(func() (cpu.Access, bool) {
		if remaining <= 0 {
			return cpu.Access{}, false
		}
		remaining--
		// Inverse-CDF of the continuous power-law approximation of Zipf:
		// rank = n * u^{1/(1-skew)} spans [0, n) with the right head mass.
		u := rng.Float64()
		rank := int(n * math.Pow(u, inv))
		if rank >= size {
			rank = size - 1
		}
		return cpu.Access{Line: lines.At(rank), Think: think}, true
	}), nil
}

// Mix interleaves the given programs round-robin into one stream,
// finishing when all of them finish.
func Mix(progs ...cpu.Program) cpu.Program {
	active := append([]cpu.Program(nil), progs...)
	i := 0
	return cpu.ProgramFunc(func() (cpu.Access, bool) {
		for len(active) > 0 {
			i %= len(active)
			acc, ok := active[i].Next()
			if ok {
				i++
				return acc, true
			}
			active = append(active[:i], active[i+1:]...)
		}
		return cpu.Access{}, false
	})
}

// Limit truncates a program to at most count accesses.
func Limit(p cpu.Program, count int) cpu.Program {
	remaining := count
	return cpu.ProgramFunc(func() (cpu.Access, bool) {
		if remaining <= 0 {
			return cpu.Access{}, false
		}
		remaining--
		return p.Next()
	})
}
