package addr

import (
	"testing"

	"hammertime/internal/dram"
)

// fuzzGeometry derives a small valid geometry, often with no dimension
// a power of two, from fuzzer bytes.
func fuzzGeometry(t *testing.T, banks, subs, rows, cols uint8) dram.Geometry {
	t.Helper()
	g := dram.Geometry{
		Banks:            1 + int(banks%12),
		SubarraysPerBank: 1 + int(subs%9),
		RowsPerSubarray:  1 + int(rows%13),
		ColumnsPerRow:    1 + int(cols%10),
		LineBytes:        64,
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("derived geometry invalid: %v", err)
	}
	return g
}

// schemesFor returns every mapping scheme g admits: row-region, line and
// XOR interleaving, and subarray isolation over both row-region and
// line-interleave bases for each partition g divides into.
func schemesFor(t *testing.T, g dram.Geometry) []Mapper {
	t.Helper()
	mappers := []Mapper{NewRowRegion(g), NewLineInterleave(g)}
	if x, err := NewXORInterleave(g); err == nil {
		mappers = append(mappers, x)
	}
	for _, groups := range []int{2, 3, 4} {
		part, err := NewPartition(g, groups)
		if err != nil {
			continue
		}
		for _, base := range []Mapper{NewRowRegion(g), NewLineInterleave(g)} {
			iso, err := NewSubarrayIsolated(base, part)
			if err != nil {
				t.Fatalf("subarray-isolated(%s,%d): %v", base.Name(), groups, err)
			}
			mappers = append(mappers, iso)
		}
	}
	return mappers
}

// FuzzMapperRoundTrip checks that every mapping scheme stays a bijection
// over the full line range for arbitrary — including non-power-of-two —
// geometries: Map stays in range, Unmap inverts Map, and no two lines
// collide on one DDR address.
func FuzzMapperRoundTrip(f *testing.F) {
	f.Add(uint8(8), uint8(16), uint8(4), uint8(8))
	f.Add(uint8(3), uint8(5), uint8(7), uint8(9)) // nothing a power of two
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1))
	f.Add(uint8(12), uint8(6), uint8(13), uint8(10))
	f.Fuzz(func(t *testing.T, banks, subs, rows, cols uint8) {
		g := fuzzGeometry(t, banks, subs, rows, cols)
		total := g.TotalLines()
		for _, m := range schemesFor(t, g) {
			seen := make(map[DDR]uint64, total)
			for line := uint64(0); line < total; line++ {
				d := m.Map(line)
				if !g.ValidBank(d.Bank) || !g.ValidRow(d.Row) ||
					d.Column < 0 || d.Column >= g.ColumnsPerRow {
					t.Fatalf("%s: line %d maps out of range: %+v (geometry %+v)", m.Name(), line, d, g)
				}
				if prev, dup := seen[d]; dup {
					t.Fatalf("%s: lines %d and %d collide on %+v (geometry %+v)", m.Name(), prev, line, d, g)
				}
				seen[d] = line
				if back := m.Unmap(d); back != line {
					t.Fatalf("%s: Unmap(Map(%d)) = %d (ddr %+v, geometry %+v)", m.Name(), line, back, d, g)
				}
			}
		}
	})
}

// FuzzAppendRows checks AppendRows against mapping every line of the
// range and keeping each (bank, row) pair's first line, for every scheme
// on arbitrary geometries and ranges (clipped to the module).
func FuzzAppendRows(f *testing.F) {
	f.Add(uint8(8), uint8(16), uint8(4), uint8(8), uint16(0), uint16(64))
	f.Add(uint8(3), uint8(5), uint8(7), uint8(9), uint16(25), uint16(40)) // crosses stripes
	f.Add(uint8(1), uint8(1), uint8(1), uint8(1), uint16(0), uint16(1))
	f.Add(uint8(12), uint8(6), uint8(13), uint8(10), uint16(97), uint16(500))
	f.Fuzz(func(t *testing.T, banks, subs, rows, cols uint8, start, n uint16) {
		g := fuzzGeometry(t, banks, subs, rows, cols)
		total := g.TotalLines()
		lo := uint64(start) % total
		cnt := min(uint64(n), total-lo)
		for _, m := range schemesFor(t, g) {
			checkRows(t, m, lo, cnt)
		}
	})
}
