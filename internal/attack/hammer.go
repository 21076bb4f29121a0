package attack

import (
	"fmt"

	"hammertime/internal/cpu"
	"hammertime/internal/hostos"
)

// Hammer returns a program that hammers the plan's aggressor lines
// round-robin for `iterations` rounds. With flush=true each access is
// preceded by CLFLUSH so it must reach DRAM (the standard CPU hammering
// idiom); DMA attacks pass flush=false since the DMA path is uncached.
//
// Round-robin over lines in different rows of the same bank forces row
// buffer conflicts, so every access costs an ACT — the §2.1 mechanism.
func Hammer(plan Plan, iterations int, flush bool) (cpu.Program, error) {
	if len(plan.AggressorLines) == 0 {
		return nil, fmt.Errorf("attack: plan %q has no aggressor lines", plan.Kind)
	}
	if iterations <= 0 {
		return nil, fmt.Errorf("attack: iterations must be > 0")
	}
	total := iterations * len(plan.AggressorLines)
	i := 0
	return cpu.ProgramFunc(func() (cpu.Access, bool) {
		if i >= total {
			return cpu.Access{}, false
		}
		line := plan.AggressorLines[i%len(plan.AggressorLines)]
		i++
		return cpu.Access{Line: line, Flush: flush}, true
	}), nil
}

// HammerVA is like Hammer but hammers the plan's virtual addresses,
// re-translating through the attacker's page table on every access. If the
// host migrates a hammered page (ACT wear-leveling, §4.2), the attack
// follows the mapping to the new frame — it cannot keep hammering the old
// physical row.
//
// Each aggressor's line is cached with the page table's mapping
// generation (PageTable.Gen) and translated again only after a Map or
// Unmap, so a migrated or freed page is seen at exactly the access an
// uncached translation would see it.
func HammerVA(k *hostos.Kernel, domain int, plan Plan, iterations int, flush bool) (cpu.Program, error) {
	if len(plan.AggressorVAs) == 0 {
		return nil, fmt.Errorf("attack: plan %q has no aggressor virtual addresses", plan.Kind)
	}
	if iterations <= 0 {
		return nil, fmt.Errorf("attack: iterations must be > 0")
	}
	pt, err := k.PageTable(domain)
	if err != nil {
		return nil, fmt.Errorf("attack: %w", err)
	}
	vas := plan.AggressorVAs
	left := iterations * len(vas)
	j := 0
	// lines[i] is vas[i]'s line, valid while stamps[i] == pt.Gen()+1
	// (0: not translated yet).
	lines := make([]uint64, len(vas))
	stamps := make([]uint64, len(vas))
	return cpu.ProgramFunc(func() (cpu.Access, bool) {
		if left == 0 {
			return cpu.Access{}, false
		}
		left--
		i := j
		if j++; j == len(vas) {
			j = 0
		}
		if gen := pt.Gen() + 1; stamps[i] != gen {
			line, err := k.Translate(domain, vas[i])
			if err != nil {
				// The page vanished (host unmapped it); the attack is over.
				return cpu.Access{}, false
			}
			lines[i], stamps[i] = line, gen
		}
		return cpu.Access{Line: lines[i], Flush: flush}, true
	}), nil
}

// Kind names a canonical attack shape for the E1 protection matrix.
type Kind struct {
	// Name identifies the attack in reports.
	Name string
	// Sided is the number of aggressor rows to use (1, 2, or many).
	Sided int
	// DMA routes the hammering through a DMA device instead of a core,
	// making it invisible to CPU performance counters.
	DMA bool
}

// Catalog returns the attack shapes every defense is evaluated against
// in experiment E1. manySided sets the TRRespass aggressor count.
func Catalog(manySided int) []Kind {
	return []Kind{
		{Name: "single-sided", Sided: 1},
		{Name: "double-sided", Sided: 2},
		{Name: fmt.Sprintf("many-sided(%d)", manySided), Sided: manySided},
		{Name: "dma-double-sided", Sided: 2, DMA: true},
	}
}
