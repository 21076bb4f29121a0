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

// bankMap is the attacker's reverse-engineered view of one bank. Under
// cache-line interleaving a single DRAM row mixes lines from many pages
// (the §4.1 observation), so the attacker needs only one of its own lines
// in a row to activate it, and a row is a victim if it holds at least one
// line of another domain. Both tables are indexed by bank-local row.
type bankMap struct {
	// attackerLine holds, per row, the first attacker line in the row
	// (the line to hammer) plus one; 0 means the attacker owns none.
	attackerLine []uint64
	// hasOther marks rows containing at least one other domain's line.
	hasOther []bool
	// rows lists the rows holding attacker data, ascending.
	rows []int
}

// line returns the attacker line to hammer in valid row r, if any.
func (bm *bankMap) line(r int) (uint64, bool) {
	l := bm.attackerLine[r]
	return l - 1, l != 0
}

// surveyor builds per-bank ownership maps for an attacker domain. The
// banks' row tables are views of lines and other, which release hands
// back for the next survey once the plan is built.
type surveyor struct {
	kernel   *hostos.Kernel
	mapper   addr.Mapper
	attacker int
	banks    []bankMap // indexed by bank
	lines    []uint64
	other    []bool
}

// lineTables and otherTables recycle finished surveys' row tables.
var (
	lineTables  = sim.NewFreeList[uint64]()
	otherTables = sim.NewFreeList[bool]()
)

// release returns the survey's row tables to their free lists; the
// survey must not be used afterwards.
func (s *surveyor) release() {
	lineTables.Put(s.lines)
	otherTables.Put(s.other)
	s.banks, s.lines, s.other = nil, nil, nil
}

func newSurveyor(k *hostos.Kernel, m addr.Mapper, attacker int) *surveyor {
	return &surveyor{kernel: k, mapper: m, attacker: attacker}
}

// survey classifies every row the attacker or any other domain owns by
// walking all allocated pages (the attacker learns adjacency via the
// established inference methods of §2.1; we grant it the result). Pages
// are the allocation unit, so a frame's first line names its owner, and
// unowned frames cost one lookup each.
func (s *surveyor) survey() {
	g := s.mapper.Geometry()
	rows := g.RowsPerBank()
	s.lines, _ = lineTables.Get(g.Banks * rows)
	s.other, _ = otherTables.Get(g.Banks * rows)
	s.banks = make([]bankMap, g.Banks)
	for b := range s.banks {
		s.banks[b] = bankMap{
			attackerLine: s.lines[b*rows : (b+1)*rows : (b+1)*rows],
			hasOther:     s.other[b*rows : (b+1)*rows : (b+1)*rows],
		}
	}
	lpp := hostos.LinesPerPage(g)
	frames := hostos.TotalFrames(g)
	footprint := make([]addr.RowLine, 0, lpp) // one page's rows
	for frame := uint64(0); frame < frames; frame++ {
		owner, ok := s.kernel.OwnerOfLine(frame * lpp)
		if !ok {
			continue
		}
		// Frames ascend and each footprint carries a row's lowest line
		// in the page, so the first line recorded per row is its lowest.
		for _, r := range addr.AppendRows(footprint[:0], s.mapper, frame*lpp, lpp) {
			bm := &s.banks[r.Bank]
			if owner != s.attacker {
				bm.hasOther[r.Row] = true
			} else if bm.attackerLine[r.Row] == 0 {
				bm.attackerLine[r.Row] = r.Line + 1
				bm.rows = append(bm.rows, r.Row)
			}
		}
	}
	for b := range s.banks {
		slices.Sort(s.banks[b].rows)
	}
}

// candidate is an attacker row with at least one victim row in range.
type candidate struct {
	bank, row int
	line      uint64
	victims   []int // victim rows within radius
}

// candidates returns attacker rows sorted by (bank, row) that have at
// least one cross-domain victim within radius (same subarray).
func (s *surveyor) candidates(radius int) []candidate {
	g := s.mapper.Geometry()
	var out []candidate
	for bank := range s.banks {
		bm := &s.banks[bank]
		for _, r := range bm.rows {
			var victims []int
			for d := 1; d <= radius; d++ {
				for _, v := range [2]int{r - d, r + d} {
					if g.ValidRow(v) && g.SameSubarray(r, v) && bm.hasOther[v] {
						victims = append(victims, v)
					}
				}
			}
			if len(victims) > 0 {
				line, _ := bm.line(r)
				out = append(out, candidate{bank: bank, row: r, line: line, victims: victims})
			}
		}
	}
	return out
}

// anyAttackerRows returns up to n attacker rows in one bank (preferring
// the bank with the most, then the lowest-numbered), for best-effort
// hammering when no cross-domain candidates exist.
func (s *surveyor) anyAttackerRows(n int) []candidate {
	bestBank := 0
	for b := range s.banks {
		if len(s.banks[b].rows) > len(s.banks[bestBank].rows) {
			bestBank = b
		}
	}
	rows := s.banks[bestBank].rows
	if len(rows) > n {
		rows = rows[:n]
	}
	out := make([]candidate, 0, len(rows))
	for _, r := range rows {
		line, _ := s.banks[bestBank].line(r)
		out = append(out, candidate{bank: bestBank, row: r, line: line})
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
	seen := make(map[[2]int]bool)
	for bank := range s.banks {
		bm := &s.banks[bank]
		for _, r := range bm.rows {
			v := r + 1
			r2 := r + 2
			if !g.ValidRow(r2) || !g.SameSubarray(r, r2) {
				continue
			}
			if !bm.hasOther[v] {
				continue
			}
			line2, ok := bm.line(r2)
			if !ok {
				continue
			}
			if seen[[2]int{bank, r}] || seen[[2]int{bank, r2}] {
				continue
			}
			seen[[2]int{bank, r}], seen[[2]int{bank, r2}] = true, true
			line, _ := bm.line(r)
			plan.AggressorLines = append(plan.AggressorLines, line, line2)
			plan.Aggressors = append(plan.Aggressors,
				addr.DDR{Bank: bank, Row: r}, addr.DDR{Bank: bank, Row: r2})
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

// planSingleSided is PlanSingleSided over a completed survey.
func (s *surveyor) planSingleSided(count, radius int) (Plan, error) {
	cands := s.candidates(radius)
	plan := Plan{Kind: "single-sided"}
	for _, c := range cands {
		comp, ok := s.conflictCompanion(c.bank, c.row, radius)
		if !ok {
			continue
		}
		plan.AggressorLines = append(plan.AggressorLines, c.line, comp.line)
		plan.Aggressors = append(plan.Aggressors,
			addr.DDR{Bank: c.bank, Row: c.row}, addr.DDR{Bank: comp.bank, Row: comp.row})
		for _, v := range c.victims {
			plan.VictimRows = append(plan.VictimRows, addr.DDR{Bank: c.bank, Row: v})
		}
		plan.CrossDomain = true
		if len(plan.AggressorLines) >= 2*count {
			return plan, fillVAs(s.kernel, s.mapper.Geometry().LineBytes, &plan)
		}
	}
	if len(plan.AggressorLines) > 0 {
		return plan, fillVAs(s.kernel, s.mapper.Geometry().LineBytes, &plan)
	}
	return bestEffort(s, "single-sided(degraded:blind)", count)
}

// conflictCompanion finds an attacker line in the same bank as row to
// alternate with, forcing row-buffer conflicts. It prefers a row in a
// different subarray (no disturbance interaction at all), then the
// farthest row available.
func (s *surveyor) conflictCompanion(bank, row, radius int) (candidate, bool) {
	g := s.mapper.Geometry()
	bm := &s.banks[bank]
	best, bestDist := -1, -1
	for _, r := range bm.rows {
		if r == row {
			continue
		}
		if !g.SameSubarray(r, row) {
			line, _ := bm.line(r)
			return candidate{bank: bank, row: r, line: line}, true
		}
		dist := r - row
		if dist < 0 {
			dist = -dist
		}
		if dist > bestDist {
			best, bestDist = r, dist
		}
	}
	if best >= 0 && bestDist > radius {
		line, _ := bm.line(best)
		return candidate{bank: bank, row: best, line: line}, true
	}
	return candidate{}, false
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
	cands := s.candidates(radius)

	// Choose the bank with the most cross-domain candidates, the lowest
	// on a tie: candidates come grouped by bank, ascending.
	var best []candidate
	for i := 0; i < len(cands); {
		j := i + 1
		for j < len(cands) && cands[j].bank == cands[i].bank {
			j++
		}
		if j-i > len(best) {
			best = cands[i:j]
		}
		i = j
	}
	plan := Plan{Kind: fmt.Sprintf("many-sided(%d)", aggressors)}
	if len(best) > 0 {
		bestBank := best[0].bank
		used := make(map[int]bool)
		for _, c := range best {
			if len(plan.AggressorLines) >= aggressors {
				break
			}
			// Space aggressors two rows apart (the TRRespass pattern):
			// the skipped rows in between become sandwiched victims
			// instead of self-refreshing aggressors.
			if used[c.row-1] || used[c.row+1] || used[c.row] {
				continue
			}
			plan.AggressorLines = append(plan.AggressorLines, c.line)
			plan.Aggressors = append(plan.Aggressors, addr.DDR{Bank: c.bank, Row: c.row})
			used[c.row] = true
			for _, v := range c.victims {
				plan.VictimRows = append(plan.VictimRows, addr.DDR{Bank: c.bank, Row: v})
			}
			plan.CrossDomain = true
		}
		// Pad with attacker rows from the same bank (tracker dilution),
		// keeping the two-apart spacing so pads do not refresh victims.
		bm := &s.banks[bestBank]
		for _, r := range bm.rows {
			if len(plan.AggressorLines) >= aggressors {
				break
			}
			if used[r] || used[r-1] || used[r+1] {
				continue
			}
			used[r] = true
			line, _ := bm.line(r)
			plan.AggressorLines = append(plan.AggressorLines, line)
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
	plan := Plan{Kind: kind}
	for _, c := range rows {
		plan.AggressorLines = append(plan.AggressorLines, c.line)
		plan.Aggressors = append(plan.Aggressors, addr.DDR{Bank: c.bank, Row: c.row})
	}
	return plan, fillVAs(s.kernel, s.mapper.Geometry().LineBytes, &plan)
}
