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

// At returns line i. Masking the shift to 6 bits, a no-op for any
// usable Shift, lets the compiler drop its oversized-shift checks.
func (l Lines) At(i int) uint64 {
	s := l.Shift & 63
	return l.Frames[i>>s]<<s | uint64(i)&(1<<s-1)
}

// Stream returns a program that walks lines sequentially (wrapping) for
// count accesses — the bank-level-parallelism-friendly pattern.
// Every access carries the given think time.
func Stream(lines Lines, count int, think uint64) (cpu.Program, error) {
	if lines.Len() == 0 {
		return nil, fmt.Errorf("workload: stream needs lines")
	}
	return &stream{lines: lines, left: max(count, 0), think: think}, nil
}

type stream struct {
	lines   Lines
	i, left int
	think   uint64
}

// Fill implements cpu.Program.
func (s *stream) Fill(buf []cpu.Access) int {
	k := min(len(buf), s.left)
	// Locals, not fields, in the loop: a store to buf could alias s, so
	// fields would be reloaded and stored back on every access.
	lines, i, n, think := s.lines, s.i, s.lines.Len(), s.think
	for j := range buf[:k] {
		buf[j] = cpu.Access{Line: lines.At(i), Think: think}
		if i++; i == n {
			i = 0
		}
	}
	s.i = i
	s.left -= k
	return k
}

// Random returns a program that touches uniformly random lines for count
// accesses, with the given write fraction. rng must be the program's
// own: the program draws from it whenever it fills, ahead of the
// accesses being issued.
func Random(lines Lines, count int, think uint64, writeFrac float64, rng *sim.RNG) (cpu.Program, error) {
	if lines.Len() == 0 {
		return nil, fmt.Errorf("workload: random needs lines")
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: random needs an RNG")
	}
	return &random{lines: lines, left: max(count, 0), think: think, writeFrac: writeFrac, rng: rng}, nil
}

type random struct {
	lines     Lines
	left      int
	think     uint64
	writeFrac float64
	rng       *sim.RNG
}

// Fill implements cpu.Program.
func (r *random) Fill(buf []cpu.Access) int {
	k := min(len(buf), r.left)
	lines, n, think, writeFrac, rng := r.lines, r.lines.Len(), r.think, r.writeFrac, r.rng
	for j := range buf[:k] {
		line := lines.At(rng.Intn(n))
		buf[j] = cpu.Access{Line: line, Write: rng.Bool(writeFrac), Think: think}
	}
	r.left -= k
	return k
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
	return &chase{lines: lines, order: rng.Perm(lines.Len()), left: max(count, 0), think: think}, nil
}

type chase struct {
	lines   Lines
	order   []int
	i, left int
	think   uint64
}

// Fill implements cpu.Program.
func (c *chase) Fill(buf []cpu.Access) int {
	k := min(len(buf), c.left)
	lines, order, i, think := c.lines, c.order, c.i, c.think
	for j := range buf[:k] {
		buf[j] = cpu.Access{Line: lines.At(order[i]), Think: think}
		if i++; i == len(order) {
			i = 0
		}
	}
	c.i = i
	c.left -= k
	return k
}

// Zipfian returns a program whose accesses follow an approximate Zipf
// distribution over the lines (hot-head skew, the realistic shape for
// key-value and page-cache traffic). skew > 0 controls concentration;
// 0.99 is the YCSB default. Implemented by rejection-free inverse-power
// sampling over ranks, which matches Zipf closely for the head — the part
// that matters for row-buffer locality and ACT-counter behaviour. rng
// must be the program's own, as for Random.
func Zipfian(lines Lines, count int, think uint64, skew float64, rng *sim.RNG) (cpu.Program, error) {
	if lines.Len() == 0 {
		return nil, fmt.Errorf("workload: zipfian needs lines")
	}
	if rng == nil {
		return nil, fmt.Errorf("workload: zipfian needs an RNG")
	}
	if skew <= 0 || skew >= 2 {
		return nil, fmt.Errorf("workload: zipfian skew %g out of (0, 2)", skew)
	}
	return &zipfian{lines: lines, left: max(count, 0), think: think, inv: 1 / (1 - skew), rng: rng}, nil
}

type zipfian struct {
	lines Lines
	left  int
	think uint64
	inv   float64
	rng   *sim.RNG
}

// Fill implements cpu.Program.
func (z *zipfian) Fill(buf []cpu.Access) int {
	k := min(len(buf), z.left)
	lines, size, think, inv, rng := z.lines, z.lines.Len(), z.think, z.inv, z.rng
	n := float64(size)
	for j := range buf[:k] {
		// Inverse-CDF of the continuous power-law approximation of Zipf:
		// rank = n * u^{1/(1-skew)} spans [0, n) with the right head mass.
		rank := int(n * math.Pow(rng.Float64(), inv))
		if rank >= size {
			rank = size - 1
		}
		buf[j] = cpu.Access{Line: lines.At(rank), Think: think}
	}
	z.left -= k
	return k
}

// Mix interleaves the given programs round-robin into one stream,
// finishing when all of them finish. When one finishes, the others keep
// their turns in the same order.
//
// Mix fills its children ahead of the accesses being issued, in batches
// of up to cpu.BatchLen, so every child must be a generator of this
// package (or another program whose accesses depend on nothing
// simulated).
func Mix(progs ...cpu.Program) cpu.Program {
	return &mix{active: append([]cpu.Program(nil), progs...)}
}

type mix struct {
	active []cpu.Program
	// turn indexes the child in active whose access comes next.
	turn int
	// scratch holds one batch: child j in turn order fills the segment
	// [j*rounds, (j+1)*rounds).
	scratch [cpu.BatchLen]cpu.Access
}

// Fill implements cpu.Program. The child whose turn it is fills first and
// sets the number of rounds; every other child then fills that many
// accesses, or fewer if it ends, and Fill writes them out round by round
// in turn order. A child that ended sits out the rest of the batch and
// leaves active, so the order matches asking the children one access at
// a time.
func (m *mix) Fill(buf []cpu.Access) int {
	for len(m.active) > 0 {
		k := len(m.active)
		rounds := min(len(buf), len(m.scratch)) / k
		if rounds == 0 {
			// Fewer slots than children: one access from the child whose
			// turn it is.
			if m.active[m.turn].Fill(buf[:1]) == 0 {
				m.end(m.turn)
				continue
			}
			m.turn = (m.turn + 1) % k
			return 1
		}
		rounds = m.active[m.turn].Fill(m.scratch[:rounds])
		if rounds == 0 {
			m.end(m.turn)
			continue
		}
		// got[j] is how many accesses child j (in turn order) filled; a
		// child that filled fewer than rounds has ended.
		var got [cpu.BatchLen]int
		got[0] = rounds
		for j, c := 1, m.turn; j < k; j++ {
			if c++; c == k {
				c = 0
			}
			seg := m.scratch[j*rounds : (j+1)*rounds]
			p := m.active[c]
			for got[j] < rounds {
				n := p.Fill(seg[got[j]:])
				if n == 0 {
					break
				}
				got[j] += n
			}
		}
		out := 0
		for r := 0; r < rounds; r++ {
			for j := 0; j < k; j++ {
				if r < got[j] {
					// Field by field: a struct copy reads Write and Flush
					// with one 2-byte load, which stalls when a child
					// stored them as two bytes that are still in flight.
					d, a := &buf[out], &m.scratch[j*rounds+r]
					d.Line = a.Line
					d.Write = a.Write
					d.Flush = a.Flush
					d.Think = a.Think
					out++
				}
			}
		}
		// Drop the children that ended, last in turn order first, so the
		// offsets of the rest from the turn hold; the child that filled
		// first keeps the turn.
		for j := k - 1; j > 0; j-- {
			if got[j] < rounds {
				m.end((m.turn + j) % len(m.active))
			}
		}
		return out
	}
	return 0
}

// end removes the child at index i, which has ended. The turn stays on
// the child it was on or, if that was i, passes to the child after it.
func (m *mix) end(i int) {
	m.active = append(m.active[:i], m.active[i+1:]...)
	if i < m.turn {
		m.turn--
	}
	if m.turn == len(m.active) {
		m.turn = 0
	}
}

// Limit truncates a program to at most count accesses.
func Limit(p cpu.Program, count int) cpu.Program {
	return &limit{p: p, left: max(count, 0)}
}

type limit struct {
	p    cpu.Program
	left int
}

// Fill implements cpu.Program.
func (l *limit) Fill(buf []cpu.Access) int {
	if l.left == 0 {
		return 0
	}
	n := l.p.Fill(buf[:min(len(buf), l.left)])
	l.left -= n
	return n
}
