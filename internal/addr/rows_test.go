package addr

import (
	"fmt"
	"testing"

	"hammertime/internal/dram"
	"hammertime/internal/sim"
)

// referenceRows maps every line of [start, start+n) and keeps each
// (bank, row) pair's first line, in order of first appearance.
func referenceRows(m Mapper, start, n uint64) []RowLine {
	seen := make(map[[2]int]bool)
	var rows []RowLine
	for l := start; l < start+n; l++ {
		d := m.Map(l)
		if key := [2]int{d.Bank, d.Row}; !seen[key] {
			seen[key] = true
			rows = append(rows, RowLine{Bank: d.Bank, Row: d.Row, Line: l})
		}
	}
	return rows
}

// checkRows compares AppendRows with the reference, appending after a
// sentinel so a clobbered prefix shows too.
func checkRows(t *testing.T, m Mapper, start, n uint64) {
	t.Helper()
	sentinel := RowLine{Bank: -1, Row: -1, Line: 1<<64 - 1}
	got := AppendRows([]RowLine{sentinel}, m, start, n)
	want := referenceRows(m, start, n)
	if got[0] != sentinel || fmt.Sprint(got[1:]) != fmt.Sprint(want) {
		t.Fatalf("%s %+v: AppendRows(%d, %d) = %v, per-line reference %v",
			m.Name(), m.Geometry(), start, n, got, want)
	}
}

// TestAppendRowsMatchesPerLineReference runs every scheme on power-of-two
// and other geometries (and the shift/mask mappers' division twins) over
// ranges that start and end on, just before and just after row and
// stripe boundaries.
func TestAppendRowsMatchesPerLineReference(t *testing.T) {
	geoms := []dram.Geometry{
		geom(),
		{Banks: 4, SubarraysPerBank: 4, RowsPerSubarray: 8, ColumnsPerRow: 16, LineBytes: 64},
		{Banks: 3, SubarraysPerBank: 4, RowsPerSubarray: 5, ColumnsPerRow: 7, LineBytes: 64},
		{Banks: 6, SubarraysPerBank: 6, RowsPerSubarray: 3, ColumnsPerRow: 2, LineBytes: 64},
		{Banks: 5, SubarraysPerBank: 2, RowsPerSubarray: 4, ColumnsPerRow: 64, LineBytes: 64},
		{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 1, ColumnsPerRow: 1, LineBytes: 64},
	}
	rng := sim.NewRNG(11)
	for _, g := range geoms {
		ms := append(schemesFor(t, g), divisionTwin(NewRowRegion(g)), divisionTwin(NewLineInterleave(g)))
		b, c := uint64(g.Banks), uint64(g.ColumnsPerRow)
		total := g.TotalLines()
		points := []uint64{0, 1, b - 1, b, c - 1, c, c + 1, b*c - 1, b * c, b*c + 1, total / 2, total - 1}
		lens := []uint64{1, 2, b - 1, b, b + 1, c - 1, c, c + 1, 64, b*c - 1, b * c, b*c + 1, 2*b*c + 3, 3*c + 2}
		for i := 0; i < 20; i++ {
			points = append(points, uint64(rng.Intn(int(total))))
			lens = append(lens, 1+uint64(rng.Intn(int(min(total, 4096)))))
		}
		for _, m := range ms {
			for _, start := range points {
				for _, n := range lens {
					if start < total && n > 0 {
						checkRows(t, m, start, min(n, total-start))
					}
				}
			}
			checkRows(t, m, 0, 0)
		}
	}
}

// TestAppendRowsPage pins the default geometry's page footprints: a
// 64-line page under line interleaving touches the same row of each of
// the 8 banks, first through lines 0..7, and under row-region one row.
func TestAppendRowsPage(t *testing.T) {
	g := geom()
	rows := AppendRows(nil, NewLineInterleave(g), 0, 64)
	if len(rows) != g.Banks {
		t.Fatalf("page touches %d (bank,row) pairs, want %d", len(rows), g.Banks)
	}
	for i, r := range rows {
		if r != (RowLine{Bank: i, Row: 0, Line: uint64(i)}) {
			t.Fatalf("pair %d = %+v, want bank %d row 0 line %d", i, r, i, i)
		}
	}
	if rows := AppendRows(nil, NewRowRegion(g), 3*64, 64); len(rows) != 1 || rows[0] != (RowLine{Row: 1, Line: 192}) {
		t.Fatalf("row-region page 3 touches %v, want row 1 of bank 0 from line 192", rows)
	}
}

func TestAppendRowsPanicsOutOfRange(t *testing.T) {
	for _, m := range mappers(t) {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: range past the module did not panic", m.Name())
				}
			}()
			total := m.Geometry().TotalLines()
			AppendRows(nil, m, total-10, 11)
		}()
	}
}

// TestAppendRowsAllocatesNothing checks the survey's calling pattern —
// one reused buffer, one page at a time — allocates nothing on any
// scheme, including the per-line fallback.
func TestAppendRowsAllocatesNothing(t *testing.T) {
	for _, m := range mappers(t) {
		buf := make([]RowLine, 0, 64)
		frame := uint64(0)
		allocs := testing.AllocsPerRun(100, func() {
			buf = AppendRows(buf[:0], m, frame*64, 64)
			frame = (frame + 97) % 16384
		})
		if allocs != 0 {
			t.Errorf("%s: %.1f allocs per page, want 0", m.Name(), allocs)
		}
	}
}

// TestRowRunsAndBankRegionsMatchMap checks RowRunEnd and BankRegion
// against Map on every line of every scheme: a run never crosses a row
// index change and, for the schemes that know their runs, ends exactly
// at one; a bank region holds exactly its bank's lines, and only
// row-region and subarray isolation over it report regions.
func TestRowRunsAndBankRegionsMatchMap(t *testing.T) {
	for _, g := range []dram.Geometry{
		geom(),
		{Banks: 3, SubarraysPerBank: 4, RowsPerSubarray: 5, ColumnsPerRow: 7, LineBytes: 64},
		{Banks: 6, SubarraysPerBank: 6, RowsPerSubarray: 3, ColumnsPerRow: 2, LineBytes: 64},
		{Banks: 1, SubarraysPerBank: 1, RowsPerSubarray: 1, ColumnsPerRow: 1, LineBytes: 64},
	} {
		total := g.TotalLines()
		ms := append(schemesFor(t, g), divisionTwin(NewRowRegion(g)), divisionTwin(NewLineInterleave(g)))
		for _, m := range ms {
			_, knows := m.(rowRunner)
			for l := uint64(0); l < total; {
				row, end := m.Map(l).Row, RowRunEnd(m, l)
				if end <= l || end > total {
					t.Fatalf("%s %+v: RowRunEnd(%d) = %d", m.Name(), g, l, end)
				}
				for k := l + 1; k < end; k++ {
					if m.Map(k).Row != row {
						t.Fatalf("%s %+v: run [%d, %d) changes row at %d", m.Name(), g, l, end, k)
					}
				}
				if knows && end < total && m.Map(end).Row == row && g.RowsPerBank() > 1 {
					t.Fatalf("%s %+v: run from %d ends at %d inside row %d", m.Name(), g, l, end, row)
				}
				l = end
			}
			_, contiguous := m.(bankRegioner)
			if base, ok := m.(*SubarrayIsolated); ok {
				_, contiguous = base.base.(*RowRegion)
			}
			var covered uint64
			for b := 0; b < g.Banks; b++ {
				lo, hi, ok := BankRegion(m, b)
				if ok != contiguous {
					t.Fatalf("%s: BankRegion(%d) ok=%v, want %v", m.Name(), b, ok, contiguous)
				}
				if !ok {
					continue
				}
				for l := lo; l < hi; l++ {
					if got := m.Map(l).Bank; got != b {
						t.Fatalf("%s %+v: line %d of bank %d's region [%d, %d) maps to bank %d", m.Name(), g, l, b, lo, hi, got)
					}
				}
				covered += hi - lo
			}
			if contiguous && covered != total {
				t.Fatalf("%s %+v: bank regions cover %d of %d lines", m.Name(), g, covered, total)
			}
			if _, _, ok := BankRegion(m, g.Banks); ok {
				t.Fatalf("%s: BankRegion past the last bank reported a region", m.Name())
			}
		}
	}
}
