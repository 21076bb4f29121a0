package addr

import (
	"testing"
	"testing/quick"

	"hammertime/internal/dram"
)

func geom() dram.Geometry { return dram.DefaultGeometry() }

// mappers returns every scheme under test.
func mappers(t *testing.T) []Mapper {
	t.Helper()
	g := geom()
	xor, err := NewXORInterleave(g)
	if err != nil {
		t.Fatal(err)
	}
	part, err := NewPartition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := NewSubarrayIsolated(NewLineInterleave(g), part)
	if err != nil {
		t.Fatal(err)
	}
	return []Mapper{NewRowRegion(g), NewLineInterleave(g), xor, iso}
}

// TestMapperBijection is the core property: Unmap(Map(x)) == x for every
// scheme, and Map never produces out-of-range coordinates.
func TestMapperBijection(t *testing.T) {
	for _, m := range mappers(t) {
		m := m
		t.Run(m.Name(), func(t *testing.T) {
			g := m.Geometry()
			total := g.TotalLines()
			f := func(raw uint64) bool {
				line := raw % total
				d := m.Map(line)
				if !g.ValidBank(d.Bank) || !g.ValidRow(d.Row) ||
					d.Column < 0 || d.Column >= g.ColumnsPerRow {
					return false
				}
				return m.Unmap(d) == line
			}
			if err := quick.Check(f, &quick.Config{MaxCount: 2000}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

// TestMapperExhaustiveBijection walks every line of a small module and
// verifies the mapping is a bijection onto the full DDR coordinate space.
func TestMapperExhaustiveBijection(t *testing.T) {
	small := dram.Geometry{Banks: 4, SubarraysPerBank: 4, RowsPerSubarray: 8, ColumnsPerRow: 16, LineBytes: 64}
	part, err := NewPartition(small, 2)
	if err != nil {
		t.Fatal(err)
	}
	xor, err := NewXORInterleave(small)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := NewSubarrayIsolated(NewLineInterleave(small), part)
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range []Mapper{NewRowRegion(small), NewLineInterleave(small), xor, iso} {
		seen := make(map[DDR]bool)
		for line := uint64(0); line < small.TotalLines(); line++ {
			d := m.Map(line)
			if seen[d] {
				t.Fatalf("%s: duplicate DDR address %+v", m.Name(), d)
			}
			seen[d] = true
			if back := m.Unmap(d); back != line {
				t.Fatalf("%s: unmap(map(%d)) = %d", m.Name(), line, back)
			}
		}
		if uint64(len(seen)) != small.TotalLines() {
			t.Fatalf("%s: %d distinct DDR addresses, want %d", m.Name(), len(seen), small.TotalLines())
		}
	}
}

func TestLineInterleaveSpreadsAcrossBanks(t *testing.T) {
	m := NewLineInterleave(geom())
	for i := uint64(0); i < 16; i++ {
		want := int(i) % geom().Banks
		if got := m.Map(i).Bank; got != want {
			t.Fatalf("line %d bank = %d, want %d (consecutive lines must interleave)", i, got, want)
		}
	}
}

func TestRowRegionKeepsBankContiguous(t *testing.T) {
	m := NewRowRegion(geom())
	g := geom()
	linesPerBank := g.TotalLines() / uint64(g.Banks)
	if m.Map(0).Bank != 0 || m.Map(linesPerBank-1).Bank != 0 || m.Map(linesPerBank).Bank != 1 {
		t.Fatal("row-region mapping does not keep banks contiguous")
	}
}

func TestXORInterleaveRequiresPow2Banks(t *testing.T) {
	g := geom()
	g.Banks = 6
	if _, err := NewXORInterleave(g); err == nil {
		t.Fatal("non-power-of-two banks accepted")
	}
}

func TestXORInterleavePermutesBanksByRow(t *testing.T) {
	m, err := NewXORInterleave(geom())
	if err != nil {
		t.Fatal(err)
	}
	g := geom()
	stripe := uint64(g.Banks * g.ColumnsPerRow)
	// Same line offset in two consecutive row stripes should (usually)
	// land in different banks thanks to the XOR permutation.
	d0 := m.Map(0)
	d1 := m.Map(stripe)
	if d0.Bank == d1.Bank {
		t.Fatal("XOR permutation did not rotate banks across rows")
	}
}

func TestPartitionValidation(t *testing.T) {
	g := geom()
	if _, err := NewPartition(g, 0); err == nil {
		t.Fatal("0 groups accepted")
	}
	if _, err := NewPartition(g, g.SubarraysPerBank+1); err == nil {
		t.Fatal("too many groups accepted")
	}
	if _, err := NewPartition(g, 3); err == nil {
		t.Fatal("non-divisor group count accepted")
	}
}

func TestPartitionRoundRobin(t *testing.T) {
	p, err := NewPartition(geom(), 4)
	if err != nil {
		t.Fatal(err)
	}
	if p.GroupOfSubarray(0) != 0 || p.GroupOfSubarray(5) != 1 || p.GroupOfSubarray(7) != 3 {
		t.Fatal("round-robin group assignment wrong")
	}
	subs := p.SubarraysInGroup(1)
	if len(subs) != 4 {
		t.Fatalf("group 1 has %d subarrays, want 4", len(subs))
	}
	for _, s := range subs {
		if s%4 != 1 {
			t.Fatalf("subarray %d not in group 1", s)
		}
	}
}

// TestSubarrayIsolatedGroupRegions is the §4.1 property: each contiguous
// physical region maps entirely into its own subarray group, while lines
// within a page still spread across all banks.
func TestSubarrayIsolatedGroupRegions(t *testing.T) {
	g := geom()
	part, err := NewPartition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := NewSubarrayIsolated(NewLineInterleave(g), part)
	if err != nil {
		t.Fatal(err)
	}
	for grp := 0; grp < 4; grp++ {
		lo, hi, err := iso.RegionBounds(grp)
		if err != nil {
			t.Fatal(err)
		}
		for _, line := range []uint64{lo, lo + 1, (lo + hi) / 2, hi - 1} {
			if got := iso.GroupOfLine(line); got != grp {
				t.Fatalf("line %d of region %d maps to group %d", line, grp, got)
			}
		}
	}
	if _, _, err := iso.RegionBounds(99); err == nil {
		t.Fatal("bad group accepted")
	}
}

func TestSubarrayIsolatedKeepsBankInterleaving(t *testing.T) {
	g := geom()
	part, err := NewPartition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := NewSubarrayIsolated(NewLineInterleave(g), part)
	if err != nil {
		t.Fatal(err)
	}
	banks := make(map[int]bool)
	// One page (64 lines) must still hit every bank.
	for i := uint64(0); i < 64; i++ {
		banks[iso.Map(i).Bank] = true
	}
	if len(banks) != g.Banks {
		t.Fatalf("page touches %d banks under subarray isolation, want %d (Fig. 2 property)",
			len(banks), g.Banks)
	}
}

func TestSubarrayIsolatedPageStaysInOneGroup(t *testing.T) {
	g := geom()
	part, err := NewPartition(g, 4)
	if err != nil {
		t.Fatal(err)
	}
	iso, err := NewSubarrayIsolated(NewLineInterleave(g), part)
	if err != nil {
		t.Fatal(err)
	}
	linesPerPage := uint64(4096 / g.LineBytes)
	f := func(raw uint64) bool {
		page := raw % (g.TotalLines() / linesPerPage)
		grp := iso.GroupOfLine(page * linesPerPage)
		for i := uint64(1); i < linesPerPage; i++ {
			if iso.GroupOfLine(page*linesPerPage+i) != grp {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatalf("page split across subarray groups: %v", err)
	}
}

func TestSubarrayIsolatedGeometryMismatch(t *testing.T) {
	g := geom()
	small := g
	small.RowsPerSubarray = 32
	part, err := NewPartition(small, 4)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewSubarrayIsolated(NewLineInterleave(g), part); err == nil {
		t.Fatal("geometry mismatch accepted")
	}
}

func TestMapPanicsOutOfRange(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-range line did not panic")
		}
	}()
	NewLineInterleave(geom()).Map(geom().TotalLines())
}
