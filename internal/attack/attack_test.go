package attack

import (
	"fmt"
	"testing"

	"hammertime/internal/addr"
	"hammertime/internal/core"
	"hammertime/internal/hostos"
)

// tenantMachine builds a machine and allocates interleaved pages for an
// attacker (returned first) and two victims.
func tenantMachine(t *testing.T, spec core.MachineSpec, pages int) (*core.Machine, []int) {
	t.Helper()
	m, err := core.NewMachine(spec)
	if err != nil {
		t.Fatal(err)
	}
	var ids []int
	for i := 0; i < 3; i++ {
		ids = append(ids, m.Kernel.CreateDomain(fmt.Sprintf("t%d", i), false, false).ID)
	}
	for p := 0; p < pages; p++ {
		for _, id := range ids {
			if _, err := m.Kernel.AllocPages(id, uint64(p), 1); err != nil {
				t.Fatal(err)
			}
		}
	}
	return m, ids
}

func TestPlanDoubleSidedFindsSandwich(t *testing.T) {
	m, ids := tenantMachine(t, core.DefaultSpec(), 170)
	plan, err := PlanDoubleSided(m.Kernel, m.Mapper, ids[0], 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.Kind != "double-sided" || !plan.CrossDomain {
		t.Fatalf("plan = %s cross=%v", plan.Kind, plan.CrossDomain)
	}
	if len(plan.AggressorLines) != 2 || len(plan.VictimRows) != 1 {
		t.Fatalf("aggressors=%d victims=%d", len(plan.AggressorLines), len(plan.VictimRows))
	}
	a1, a2, v := plan.Aggressors[0], plan.Aggressors[1], plan.VictimRows[0]
	if a1.Bank != a2.Bank || a1.Bank != v.Bank {
		t.Fatal("aggressors and victim not in the same bank")
	}
	if a2.Row-a1.Row != 2 || v.Row != a1.Row+1 {
		t.Fatalf("not a sandwich: %d, %d around %d", a1.Row, a2.Row, v.Row)
	}
	if len(plan.AggressorVAs) != 2 {
		t.Fatal("virtual addresses missing")
	}
	// VAs must currently translate back to the planned lines.
	for i, va := range plan.AggressorVAs {
		line, err := m.Kernel.Translate(ids[0], va)
		if err != nil {
			t.Fatal(err)
		}
		if line != plan.AggressorLines[i] {
			t.Fatalf("va %d resolves to line %d, want %d", va, line, plan.AggressorLines[i])
		}
	}
}

func TestPlanSingleSidedHasConflictCompanion(t *testing.T) {
	m, ids := tenantMachine(t, core.DefaultSpec(), 170)
	plan, err := PlanSingleSided(m.Kernel, m.Mapper, ids[0], 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.AggressorLines) != 2 {
		t.Fatalf("single-sided plan has %d lines, want aggressor + companion", len(plan.AggressorLines))
	}
	if plan.Aggressors[0].Bank != plan.Aggressors[1].Bank {
		t.Fatal("companion in a different bank cannot force row conflicts")
	}
	if plan.Aggressors[0].Row == plan.Aggressors[1].Row {
		t.Fatal("companion in the same row cannot force row conflicts")
	}
}

func TestPlanManySidedSpacing(t *testing.T) {
	m, ids := tenantMachine(t, core.DefaultSpec(), 170)
	plan, err := PlanManySided(m.Kernel, m.Mapper, ids[0], 10, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(plan.Aggressors) != 10 {
		t.Fatalf("aggressors = %d", len(plan.Aggressors))
	}
	bank := plan.Aggressors[0].Bank
	rows := make(map[int]bool)
	for _, a := range plan.Aggressors {
		if a.Bank != bank {
			t.Fatal("many-sided aggressors span banks")
		}
		rows[a.Row] = true
	}
	for r := range rows {
		if rows[r+1] {
			t.Fatalf("aggressor rows %d and %d adjacent (victims must sit between)", r, r+1)
		}
	}
}

func TestPlansDegradeUnderGuardRows(t *testing.T) {
	spec := core.DefaultSpec()
	spec.Alloc = core.AllocGuardRow
	spec.GuardRadius = 2
	m, ids := tenantMachine(t, spec, 40)
	plan, err := PlanDoubleSided(m.Kernel, m.Mapper, ids[0], 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CrossDomain {
		t.Fatalf("guard-row allocation left cross-domain targets: %s", plan.Kind)
	}
}

func TestPlansDegradeUnderSubarrayIsolation(t *testing.T) {
	spec := core.DefaultSpec()
	spec.SubarrayGroups = 4
	spec.Alloc = core.AllocSubarrayAware
	m, ids := tenantMachine(t, spec, 60)
	plan, err := PlanSingleSided(m.Kernel, m.Mapper, ids[0], 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	if plan.CrossDomain {
		t.Fatalf("subarray isolation left cross-domain targets: %s", plan.Kind)
	}
}

func TestPlanErrorsWithoutMemory(t *testing.T) {
	m, err := core.NewMachine(core.DefaultSpec())
	if err != nil {
		t.Fatal(err)
	}
	d := m.Kernel.CreateDomain("empty", false, false)
	if _, err := PlanDoubleSided(m.Kernel, m.Mapper, d.ID, 1, 2); err == nil {
		t.Fatal("plan succeeded for a domain with no memory")
	}
}

func TestHammerRoundRobinWithFlush(t *testing.T) {
	plan := Plan{Kind: "test", AggressorLines: []uint64{7, 9}}
	prog, err := Hammer(plan, 2, true)
	if err != nil {
		t.Fatal(err)
	}
	want := []uint64{7, 9, 7, 9}
	for i, w := range want {
		a, ok := prog.Next()
		if !ok {
			t.Fatalf("program ended at %d", i)
		}
		if a.Line != w || !a.Flush {
			t.Fatalf("access %d = %+v", i, a)
		}
	}
	if _, ok := prog.Next(); ok {
		t.Fatal("program did not end after iterations*lines accesses")
	}
}

func TestHammerValidates(t *testing.T) {
	if _, err := Hammer(Plan{}, 1, true); err == nil {
		t.Fatal("empty plan accepted")
	}
	if _, err := Hammer(Plan{AggressorLines: []uint64{1}}, 0, true); err == nil {
		t.Fatal("zero iterations accepted")
	}
}

func TestHammerVAFollowsMigration(t *testing.T) {
	m, ids := tenantMachine(t, core.DefaultSpec(), 8)
	plan, err := PlanDoubleSided(m.Kernel, m.Mapper, ids[0], 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := HammerVA(m.Kernel, ids[0], plan, 10, true)
	if err != nil {
		t.Fatal(err)
	}
	a1, _ := prog.Next()
	if a1.Line != plan.AggressorLines[0] {
		t.Fatalf("first access line %d, want %d", a1.Line, plan.AggressorLines[0])
	}
	// Migrate the page behind the second aggressor VA; the program's
	// next access to it must land on the new frame.
	va := plan.AggressorVAs[1]
	vpn := va / hostos.PageSize
	if _, err := m.Kernel.MigratePage(ids[0], vpn, 0); err != nil {
		t.Fatal(err)
	}
	a2, _ := prog.Next()
	if a2.Line == plan.AggressorLines[1] {
		t.Fatal("attack kept hammering the old physical line after migration")
	}
	wantLine, err := m.Kernel.Translate(ids[0], va)
	if err != nil {
		t.Fatal(err)
	}
	if a2.Line != wantLine {
		t.Fatalf("post-migration access line %d, want %d", a2.Line, wantLine)
	}
}

// uncachedHammerVA is HammerVA without its translation cache: every
// access translates through the kernel. It is the reference the cached
// program must match access for access.
func uncachedHammerVA(k *hostos.Kernel, domain int, plan Plan, iterations int) func() (uint64, bool) {
	i, total := 0, iterations*len(plan.AggressorVAs)
	return func() (uint64, bool) {
		if i >= total {
			return 0, false
		}
		va := plan.AggressorVAs[i%len(plan.AggressorVAs)]
		i++
		line, err := k.Translate(domain, va)
		return line, err == nil
	}
}

// TestHammerVATranslationCache migrates one aggressor page and then frees
// it mid-stream: the cached program must emit the new frame's line on
// its very next access to the page, and must end at the same access as
// a program that translates on every access.
func TestHammerVATranslationCache(t *testing.T) {
	m, ids := tenantMachine(t, core.DefaultSpec(), 8)
	plan, err := PlanDoubleSided(m.Kernel, m.Mapper, ids[0], 1, 2)
	if err != nil {
		t.Fatal(err)
	}
	const iterations = 20
	prog, err := HammerVA(m.Kernel, ids[0], plan, iterations, true)
	if err != nil {
		t.Fatal(err)
	}
	ref := uncachedHammerVA(m.Kernel, ids[0], plan, iterations)
	step := func(n int) (int, bool) {
		for i := 0; i < n; i++ {
			acc, ok := prog.Next()
			want, wantOK := ref()
			if ok != wantOK || (ok && acc.Line != want) {
				t.Fatalf("access %d: line %d ok=%v, uncached %d ok=%v", i, acc.Line, ok, want, wantOK)
			}
			if !ok {
				return i, false
			}
		}
		return n, true
	}
	step(3) // both aggressors cached; the next access is to AggressorVAs[1]
	va := plan.AggressorVAs[1]
	vpn := va / hostos.PageSize
	mig, err := m.Kernel.MigratePage(ids[0], vpn, 0)
	if err != nil {
		t.Fatal(err)
	}
	acc, _ := prog.Next()
	ref()
	lpp := hostos.LinesPerPage(m.Mapper.Geometry())
	if acc.Line/lpp != mig.NewFrame {
		t.Fatalf("first access after migration hit frame %d, want the new frame %d", acc.Line/lpp, mig.NewFrame)
	}
	step(4) // the next access is to AggressorVAs[0], still mapped
	if err := m.Kernel.FreePage(ids[0], vpn); err != nil {
		t.Fatal(err)
	}
	if n, ok := step(2 * iterations); ok || n != 1 {
		t.Fatalf("program ran %d accesses past the freed page (ok=%v), want 1", n, ok)
	}
}

func TestCatalogShapes(t *testing.T) {
	kinds := Catalog(12)
	if len(kinds) != 4 {
		t.Fatalf("catalog size = %d", len(kinds))
	}
	dmaCount := 0
	for _, k := range kinds {
		if k.DMA {
			dmaCount++
		}
	}
	if dmaCount != 1 {
		t.Fatalf("catalog has %d DMA attacks, want 1", dmaCount)
	}
}

// TestSurveyMatchesPerLineReference checks the survey's row tables —
// per bank, each row's lowest attacker line, the rows holding another
// domain's line, and the attacker's rows in order — against mapping
// every line of every owned page, for each interleaving and for
// subarray isolation over it, in every bank.
func TestSurveyMatchesPerLineReference(t *testing.T) {
	for _, il := range []core.InterleaveKind{core.InterleaveLine, core.InterleaveRowRegion, core.InterleaveXOR} {
		spec := core.DefaultSpec()
		spec.Interleave = il
		m, ids := tenantMachine(t, spec, 40)
		part, err := addr.NewPartition(m.Mapper.Geometry(), 4)
		if err != nil {
			t.Fatal(err)
		}
		iso, err := addr.NewSubarrayIsolated(m.Mapper, part)
		if err != nil {
			t.Fatal(err)
		}
		for _, mapper := range []addr.Mapper{m.Mapper, iso} {
			s := newSurveyor(m.Kernel, mapper, ids[0])
			s.survey()
			g := mapper.Geometry()
			lpp := hostos.LinesPerPage(g)
			firstLine := map[[2]int]uint64{}
			other := map[[2]int]bool{}
			for f := uint64(0); f < hostos.TotalFrames(g); f++ {
				owner, ok := m.Kernel.OwnerOfLine(f * lpp)
				if !ok {
					continue
				}
				for l := f * lpp; l < (f+1)*lpp; l++ {
					d := mapper.Map(l)
					key := [2]int{d.Bank, d.Row}
					if owner != ids[0] {
						other[key] = true
					} else if _, seen := firstLine[key]; !seen {
						firstLine[key] = l
					}
				}
			}
			for b := 0; b < g.Banks; b++ {
				base := b * s.rows
				lines, others := s.lines[base:base+s.rows], s.other[base:base+s.rows]
				var gotRows, wantRows []int
				for _, i := range s.attackerRows(b) {
					gotRows = append(gotRows, s.row(i))
				}
				for r := 0; r < g.RowsPerBank(); r++ {
					key := [2]int{b, r}
					want, owned := firstLine[key]
					if got := lines[r]; (got != 0) != owned || owned && got-1 != want {
						t.Fatalf("%s bank %d row %d: survey line+1 %d, reference %d/%v",
							mapper.Name(), b, r, got, want, owned)
					}
					if others[r] != other[key] {
						t.Fatalf("%s bank %d row %d: other %v, reference %v", mapper.Name(), b, r, others[r], other[key])
					}
					if owned {
						wantRows = append(wantRows, r)
					}
				}
				if fmt.Sprint(gotRows) != fmt.Sprint(wantRows) {
					t.Fatalf("%s bank %d: attacker rows %v, reference %v", mapper.Name(), b, gotRows, wantRows)
				}
			}
			s.release()
		}
	}
}
