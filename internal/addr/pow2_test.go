package addr

import (
	"testing"

	"hammertime/internal/dram"
	"hammertime/internal/sim"
)

// divisionTwin returns a copy of m forced onto the division path.
func divisionTwin(m Mapper) Mapper {
	switch m := m.(type) {
	case *RowRegion:
		c := *m
		c.f = fields{}
		return &c
	case *LineInterleave:
		c := *m
		c.f = fields{}
		return &c
	}
	return nil
}

// TestShiftMapMatchesDivision checks that, on power-of-two geometries,
// the shift/mask Map of RowRegion and LineInterleave agrees with the
// division Map on random lines and on both ends of the module.
func TestShiftMapMatchesDivision(t *testing.T) {
	geoms := []dram.Geometry{
		geom(),
		{Banks: 4, SubarraysPerBank: 4, RowsPerSubarray: 8, ColumnsPerRow: 16, LineBytes: 64},
		{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 1, ColumnsPerRow: 1, LineBytes: 64},
		{Banks: 16, SubarraysPerBank: 2, RowsPerSubarray: 512, ColumnsPerRow: 256, LineBytes: 64},
	}
	rng := sim.NewRNG(7)
	for _, g := range geoms {
		rr, li := NewRowRegion(g), NewLineInterleave(g)
		if !rr.f.pow2 || !li.f.pow2 {
			t.Fatalf("power-of-two geometry %+v took the division path", g)
		}
		for _, m := range []Mapper{rr, li} {
			div := divisionTwin(m)
			total := g.TotalLines()
			lines := []uint64{0, total - 1}
			for i := 0; i < 5000; i++ {
				lines = append(lines, rng.Uint64n(total))
			}
			for _, line := range lines {
				if got, want := m.Map(line), div.Map(line); got != want {
					t.Fatalf("%s %+v: Map(%d) = %+v, division gives %+v", m.Name(), g, line, got, want)
				}
			}
		}
	}
}

// TestNonPow2GeometryRoundTrips checks that geometries whose factors are
// not powers of two take the division path and still round-trip every
// line through Unmap.
func TestNonPow2GeometryRoundTrips(t *testing.T) {
	g := dram.Geometry{Banks: 6, SubarraysPerBank: 3, RowsPerSubarray: 10, ColumnsPerRow: 24, LineBytes: 64}
	rr, li := NewRowRegion(g), NewLineInterleave(g)
	if rr.f.pow2 || li.f.pow2 {
		t.Fatal("non-power-of-two geometry took the shift path")
	}
	for _, m := range []Mapper{rr, li} {
		for line := uint64(0); line < g.TotalLines(); line++ {
			d := m.Map(line)
			if !g.ValidBank(d.Bank) || !g.ValidRow(d.Row) || d.Column < 0 || d.Column >= g.ColumnsPerRow {
				t.Fatalf("%s: Map(%d) = %+v out of range", m.Name(), line, d)
			}
			if back := m.Unmap(d); back != line {
				t.Fatalf("%s: Unmap(Map(%d)) = %d", m.Name(), line, back)
			}
		}
	}
}
