// Package attack implements Rowhammer attack planning and execution
// against the simulated machine: single-sided, double-sided and
// many-sided (TRRespass-style) hammering from CPU or DMA, plus the
// adjacency/subarray inference probes of §2.1/§4.1 of "Stop! Hammer Time".
//
// Planners inspect real page-table ownership through the host kernel —
// with the attacker's assumed knowledge of DRAM address mappings (§2.1) —
// so isolation defenses genuinely remove cross-domain targets rather than
// being special-cased.
package attack

import (
	"fmt"
	"slices"

	"hammertime/internal/addr"
	"hammertime/internal/hostos"
	"hammertime/internal/sim"
)

// Plan is a concrete hammering plan: which lines to hammer and which rows
// are expected victims.
type Plan struct {
	Kind           string
	AggressorLines []uint64
	// AggressorVAs are the attacker-virtual addresses of the aggressor
	// lines. Attacks hammer virtual addresses — if the host migrates the
	// backing page (ACT wear-leveling, §4.2), subsequent accesses follow
	// the new mapping, exactly as on real hardware.
	AggressorVAs []uint64
	Aggressors   []addr.DDR
	VictimRows   []addr.DDR
	// CrossDomain reports whether any expected victim row holds another
	// domain's data — i.e., whether the isolation precondition of §2.2
	// holds for the attacker.
	CrossDomain bool
}

// fillVAs resolves each aggressor line to the attacker's virtual address.
func fillVAs(k *hostos.Kernel, lineBytes int, plan *Plan) error {
	plan.AggressorVAs = make([]uint64, len(plan.AggressorLines))
	for i, line := range plan.AggressorLines {
		_, vpn, ok := k.VPNOfLine(line)
		if !ok {
			return fmt.Errorf("attack: aggressor line %d has no virtual mapping", line)
		}
		offset := line * uint64(lineBytes) % hostos.PageSize
		plan.AggressorVAs[i] = vpn*hostos.PageSize + offset
	}
	return nil
}

// surveyor is the attacker's reverse-engineered view of every bank.
// Under cache-line interleaving a single DRAM row mixes lines from many
// pages (the §4.1 observation), so the attacker needs only one of its own
// lines in a row to activate it, and a row is a victim if it holds at
// least one line of another domain. Both tables are indexed by
// bank*rows + bank-local row; release hands them back for the next
// survey once the plan is built.
type surveyor struct {
	kernel   *hostos.Kernel
	mapper   addr.Mapper
	attacker int
	rows     int // rows per bank
	subRows  int // rows per subarray
	// lines holds, per row, the lowest attacker line in the row (the line
	// to hammer) plus one; 0 means the attacker owns none.
	lines []uint64
	// other marks rows containing at least one other domain's line.
	other []bool
	// owned lists the indexes of the rows the attacker owns a line in,
	// ascending: bank by bank, each bank's rows in order.
	owned []int32
	// footprint is survey's buffer for one page's rows; victims is the
	// planners' buffer for one candidate's victim rows.
	footprint []addr.RowLine
	victims   []int
}

// lineTables, otherTables and rowLists recycle finished surveys' tables
// and buffers.
var (
	lineTables  = sim.NewFreeList[uint64]()
	otherTables = sim.NewFreeList[bool]()
	rowLists    = sim.NewFreeList[addr.RowLine]()
)

// release returns the survey's tables to their free lists; the survey
// must not be used afterwards.
func (s *surveyor) release() {
	lineTables.Put(s.lines)
	otherTables.Put(s.other)
	rowLists.Put(s.footprint[:cap(s.footprint)])
	s.lines, s.other, s.footprint = nil, nil, nil
}

func newSurveyor(k *hostos.Kernel, m addr.Mapper, attacker int) *surveyor {
	return &surveyor{kernel: k, mapper: m, attacker: attacker}
}

// attackerRows returns the table indexes of bank b's attacker rows, in
// ascending order.
func (s *surveyor) attackerRows(b int) []int32 {
	i, _ := slices.BinarySearch(s.owned, int32(b*s.rows))
	j, _ := slices.BinarySearch(s.owned, int32((b+1)*s.rows))
	return s.owned[i:j:j]
}

// row returns a table index's bank-local row.
func (s *surveyor) row(i int32) int { return int(i) % s.rows }

// survey classifies every row the attacker or any other domain owns by
// walking the domains' page tables (the attacker learns adjacency via
// the established inference methods of §2.1; we grant it the result),
// so it costs O(pages mapped), not O(frames in the module). The walk
// order does not matter: each row keeps the lowest attacker line of any
// page (a footprint carries each row's lowest line in its page), and the
// ascending row list is read off the line table afterwards.
func (s *surveyor) survey() {
	g := s.mapper.Geometry()
	s.rows, s.subRows = g.RowsPerBank(), g.RowsPerSubarray
	s.lines, _ = lineTables.Get(g.Banks * s.rows)
	s.other, _ = otherTables.Get(g.Banks * s.rows)
	lpp := hostos.LinesPerPage(g)
	s.footprint, _ = rowLists.Get(int(lpp))
	owned := 0
	s.kernel.EachPage(func(owner int, frame uint64) {
		s.footprint = addr.AppendRows(s.footprint[:0], s.mapper, frame*lpp, lpp)
		for _, r := range s.footprint {
			i := r.Bank*s.rows + r.Row
			switch l := s.lines[i]; {
			case owner != s.attacker:
				s.other[i] = true
			case l == 0:
				owned++
				s.lines[i] = r.Line + 1
			case r.Line+1 < l:
				s.lines[i] = r.Line + 1
			}
		}
	})
	s.owned = make([]int32, 0, owned)
	for i, l := range s.lines {
		if l != 0 {
			s.owned = append(s.owned, int32(i))
		}
	}
}

// victimsOf sets s.victims to the cross-domain victim rows within
// radius of attacker row r (same subarray), nearest first, lower side
// first, and reports whether there are any: whether (bank, r) is a
// candidate aggressor.
func (s *surveyor) victimsOf(bank, r, radius int) bool {
	// Rows [lo, hi) form r's subarray, all valid rows of the bank.
	lo := r / s.subRows * s.subRows
	hi := lo + s.subRows
	other := s.other[bank*s.rows : (bank+1)*s.rows]
	s.victims = s.victims[:0]
	for d := 1; d <= radius; d++ {
		if v := r - d; v >= lo && other[v] {
			s.victims = append(s.victims, v)
		}
		if v := r + d; v < hi && other[v] {
			s.victims = append(s.victims, v)
		}
	}
	return len(s.victims) > 0
}

// candidates counts the attacker rows of bank with at least one
// cross-domain victim within radius.
func (s *surveyor) candidates(bank, radius int) int {
	n := 0
	for _, i := range s.attackerRows(bank) {
		if s.victimsOf(bank, s.row(i), radius) {
			n++
		}
	}
	return n
}

// anyAttackerRows returns up to n attacker rows in one bank (preferring
// the bank with the most, then the lowest-numbered), for best-effort
// hammering when no cross-domain candidates exist.
func (s *surveyor) anyAttackerRows(n int) []addr.DDR {
	var best []int32
	bestBank := 0
	for b := 0; b < s.mapper.Geometry().Banks; b++ {
		if rows := s.attackerRows(b); b == 0 || len(rows) > len(best) {
			bestBank, best = b, rows
		}
	}
	best = best[:min(n, len(best))]
	out := make([]addr.DDR, len(best))
	for k, i := range best {
		out[k] = addr.DDR{Bank: bestBank, Row: s.row(i)}
	}
	return out
}

// PlanDoubleSided builds up to `pairs` classic double-sided plans: victim
// rows sandwiched between two attacker-owned aggressors at distance 1.
// When no sandwich exists it degrades to the best single-sided candidates,
// and finally to best-effort hammering of the attacker's own rows.
func PlanDoubleSided(k *hostos.Kernel, m addr.Mapper, attacker, pairs, radius int) (Plan, error) {
	if pairs <= 0 {
		return Plan{}, fmt.Errorf("attack: double-sided needs pairs > 0")
	}
	s := newSurveyor(k, m, attacker)
	s.survey()
	defer s.release()
	g := m.Geometry()

	plan := Plan{Kind: "double-sided"}
	for bank := 0; bank < g.Banks; bank++ {
		for _, i := range s.attackerRows(bank) {
			r := s.row(i)
			v := r + 1
			r2 := r + 2
			if !g.ValidRow(r2) || !g.SameSubarray(r, r2) {
				continue
			}
			// i+1 and i+2 index rows v and r2 of the same bank.
			if !s.other[i+1] || s.lines[i+2] == 0 {
				continue
			}
			line, line2 := s.lines[i]-1, s.lines[i+2]-1
			// Each aggressor serves one sandwich.
			a1, a2 := addr.DDR{Bank: bank, Row: r}, addr.DDR{Bank: bank, Row: r2}
			if slices.Contains(plan.Aggressors, a1) || slices.Contains(plan.Aggressors, a2) {
				continue
			}
			plan.AggressorLines = append(plan.AggressorLines, line, line2)
			plan.Aggressors = append(plan.Aggressors, a1, a2)
			plan.VictimRows = append(plan.VictimRows, addr.DDR{Bank: bank, Row: v})
			plan.CrossDomain = true
			if len(plan.VictimRows) >= pairs {
				return plan, fillVAs(k, g.LineBytes, &plan)
			}
		}
	}
	if len(plan.AggressorLines) > 0 {
		return plan, fillVAs(k, g.LineBytes, &plan)
	}
	// No sandwich: fall back to single-sided candidates from the same
	// survey.
	if fallback, err := s.planSingleSided(2*pairs, radius); err == nil && len(fallback.AggressorLines) > 0 {
		fallback.Kind = "double-sided(degraded:single)"
		return fallback, nil
	}
	return bestEffort(s, "double-sided(degraded:blind)", 2*pairs)
}

// PlanSingleSided builds a plan hammering up to count attacker rows that
// each have at least one cross-domain victim within radius. Because a
// single row would simply stay in the row buffer (every access a hit, no
// ACTs), each aggressor gets a "conflict companion": an attacker line in
// the same bank, far from any victim, whose alternating accesses force a
// row-buffer conflict — the standard single-sided hammering idiom.
func PlanSingleSided(k *hostos.Kernel, m addr.Mapper, attacker, count, radius int) (Plan, error) {
	if count <= 0 {
		return Plan{}, fmt.Errorf("attack: single-sided needs count > 0")
	}
	s := newSurveyor(k, m, attacker)
	s.survey()
	defer s.release()
	return s.planSingleSided(count, radius)
}

// planSingleSided is PlanSingleSided over a completed survey. Candidate
// aggressors are taken in (bank, row) order.
func (s *surveyor) planSingleSided(count, radius int) (Plan, error) {
	g := s.mapper.Geometry()
	plan := Plan{Kind: "single-sided"}
	for bank := 0; bank < g.Banks; bank++ {
		for _, i := range s.attackerRows(bank) {
			r := s.row(i)
			if !s.victimsOf(bank, r, radius) {
				continue
			}
			comp, ok := s.conflictCompanion(bank, r, radius)
			if !ok {
				continue
			}
			plan.AggressorLines = append(plan.AggressorLines, s.lines[i]-1, s.lines[bank*s.rows+comp]-1)
			plan.Aggressors = append(plan.Aggressors,
				addr.DDR{Bank: bank, Row: r}, addr.DDR{Bank: bank, Row: comp})
			for _, v := range s.victims {
				plan.VictimRows = append(plan.VictimRows, addr.DDR{Bank: bank, Row: v})
			}
			plan.CrossDomain = true
			if len(plan.AggressorLines) >= 2*count {
				return plan, fillVAs(s.kernel, g.LineBytes, &plan)
			}
		}
	}
	if len(plan.AggressorLines) > 0 {
		return plan, fillVAs(s.kernel, g.LineBytes, &plan)
	}
	return bestEffort(s, "single-sided(degraded:blind)", count)
}

// conflictCompanion finds an attacker row in the same bank as row to
// alternate with, forcing row-buffer conflicts. It prefers a row in a
// different subarray (no disturbance interaction at all), then the
// farthest row available.
func (s *surveyor) conflictCompanion(bank, row, radius int) (int, bool) {
	g := s.mapper.Geometry()
	best, bestDist := -1, -1
	for _, i := range s.attackerRows(bank) {
		r := s.row(i)
		if r == row {
			continue
		}
		if !g.SameSubarray(r, row) {
			return r, true
		}
		dist := r - row
		if dist < 0 {
			dist = -dist
		}
		if dist > bestDist {
			best, bestDist = r, dist
		}
	}
	return best, best >= 0 && bestDist > radius
}

// PlanManySided builds a TRRespass-style plan with `aggressors` distinct
// aggressor rows in a single bank, preferring rows with cross-domain
// victims and padding with harmless attacker rows from the same bank to
// dilute in-DRAM trackers.
func PlanManySided(k *hostos.Kernel, m addr.Mapper, attacker, aggressors, radius int) (Plan, error) {
	if aggressors <= 0 {
		return Plan{}, fmt.Errorf("attack: many-sided needs aggressors > 0")
	}
	s := newSurveyor(k, m, attacker)
	s.survey()
	defer s.release()

	// Choose the bank with the most cross-domain candidates, the lowest
	// on a tie.
	bestBank, most := -1, 0
	for bank := 0; bank < m.Geometry().Banks; bank++ {
		if n := s.candidates(bank, radius); n > most {
			bestBank, most = bank, n
		}
	}
	plan := Plan{Kind: fmt.Sprintf("many-sided(%d)", aggressors)}
	if bestBank >= 0 {
		// used reports whether row is already an aggressor.
		used := func(row int) bool {
			return slices.Contains(plan.Aggressors, addr.DDR{Bank: bestBank, Row: row})
		}
		rows := s.attackerRows(bestBank)
		for _, i := range rows {
			r := s.row(i)
			if len(plan.AggressorLines) >= aggressors {
				break
			}
			if !s.victimsOf(bestBank, r, radius) {
				continue
			}
			// Space aggressors two rows apart (the TRRespass pattern):
			// the skipped rows in between become sandwiched victims
			// instead of self-refreshing aggressors.
			if used(r-1) || used(r+1) || used(r) {
				continue
			}
			plan.AggressorLines = append(plan.AggressorLines, s.lines[i]-1)
			plan.Aggressors = append(plan.Aggressors, addr.DDR{Bank: bestBank, Row: r})
			for _, v := range s.victims {
				plan.VictimRows = append(plan.VictimRows, addr.DDR{Bank: bestBank, Row: v})
			}
			plan.CrossDomain = true
		}
		// Pad with attacker rows from the same bank (tracker dilution),
		// keeping the two-apart spacing so pads do not refresh victims.
		for _, i := range rows {
			r := s.row(i)
			if len(plan.AggressorLines) >= aggressors {
				break
			}
			if used(r) || used(r-1) || used(r+1) {
				continue
			}
			plan.AggressorLines = append(plan.AggressorLines, s.lines[i]-1)
			plan.Aggressors = append(plan.Aggressors, addr.DDR{Bank: bestBank, Row: r})
		}
	}
	if len(plan.AggressorLines) > 0 {
		return plan, fillVAs(k, m.Geometry().LineBytes, &plan)
	}
	return bestEffort(s, plan.Kind+"(degraded:blind)", aggressors)
}

// bestEffort hammers the attacker's own rows when no cross-domain target
// exists (isolation in effect): the attack still burns ACTs — and may
// still corrupt the attacker's own data — but cannot reach other domains.
func bestEffort(s *surveyor, kind string, n int) (Plan, error) {
	rows := s.anyAttackerRows(n)
	if len(rows) == 0 {
		return Plan{}, fmt.Errorf("attack: attacker domain %d owns no memory to hammer", s.attacker)
	}
	plan := Plan{Kind: kind, Aggressors: rows}
	for _, d := range rows {
		plan.AggressorLines = append(plan.AggressorLines, s.lines[d.Bank*s.rows+d.Row]-1)
	}
	return plan, fillVAs(s.kernel, s.mapper.Geometry().LineBytes, &plan)
}
