package addr

// RowLine is one (bank, row) pair a range of physical lines maps onto,
// with the lowest line of the range that maps there.
type RowLine struct {
	Bank, Row int
	Line      uint64
}

// rowLister is implemented by mappers that can list a line range's rows
// without mapping every line of it.
type rowLister interface {
	appendRows(dst []RowLine, start, end uint64) []RowLine
}

// AppendRows appends to dst the distinct (bank, row) pairs that the n
// physical lines from start map onto — the row footprint a page
// allocator or an attacker's survey needs — and returns the extended
// slice. Each pair carries the lowest line mapping to it, and pairs are
// appended in ascending order of that line. It allocates only to grow
// dst, so a caller that reuses its buffer (buf = AppendRows(buf[:0], …))
// pays nothing per call.
//
// RowRegion and LineInterleave list their rows in time proportional to
// the footprint, and SubarrayIsolated lists its base's rows and permutes
// them; any other mapper maps each line. Like Map, it panics on a line
// outside the module.
func AppendRows(dst []RowLine, m Mapper, start, n uint64) []RowLine {
	if n == 0 {
		return dst
	}
	if rl, ok := m.(rowLister); ok {
		return rl.appendRows(dst, start, start+n)
	}
	first := len(dst)
next:
	for l := start; l < start+n; l++ {
		d := m.Map(l)
		// Consecutive lines mostly share a row, so search newest first.
		for i := len(dst) - 1; i >= first; i-- {
			if dst[i].Bank == d.Bank && dst[i].Row == d.Row {
				continue next
			}
		}
		dst = append(dst, RowLine{Bank: d.Bank, Row: d.Row, Line: l})
	}
	return dst
}

// appendRows implements rowLister: a row is ColumnsPerRow consecutive
// lines, so each row the range enters starts a new pair.
func (m *RowRegion) appendRows(dst []RowLine, start, end uint64) []RowLine {
	checkLine(end-1, m.lines)
	c := uint64(m.geom.ColumnsPerRow)
	for l := start; l < end; l = (l/c + 1) * c {
		d := m.Map(l)
		dst = append(dst, RowLine{Bank: d.Bank, Row: d.Row, Line: l})
	}
	return dst
}

// appendRows implements rowLister: within one row stripe (Banks ×
// ColumnsPerRow consecutive lines, one row index) two lines share a
// bank exactly when they are congruent modulo Banks, so the first Banks
// lines of the range's part of each stripe name every pair it touches,
// their banks counting up from the first line's.
func (m *LineInterleave) appendRows(dst []RowLine, start, end uint64) []RowLine {
	checkLine(end-1, m.lines)
	b := uint64(m.geom.Banks)
	stripe := b * uint64(m.geom.ColumnsPerRow)
	for lo := start; lo < end; {
		row, next := lo/stripe, (lo/stripe+1)*stripe
		bank := lo % b
		for l, hi := lo, min(end, next, lo+b); l < hi; l++ {
			dst = append(dst, RowLine{Bank: int(bank), Row: int(row), Line: l})
			if bank++; bank == b {
				bank = 0
			}
		}
		lo = next
	}
	return dst
}

// appendRows implements rowLister: the row permutation is a bijection at
// fixed bank, so it keeps the base's pairs distinct and in order. Under
// an interleaving base a range's pairs mostly share one row, so each
// run of equal rows is permuted once.
func (m *SubarrayIsolated) appendRows(dst []RowLine, start, end uint64) []RowLine {
	first := len(dst)
	dst = AppendRows(dst, m.base, start, end-start)
	prev, perm := -1, 0
	for i := first; i < len(dst); i++ {
		if r := dst[i].Row; r != prev {
			prev, perm = r, m.permuteRow(r)
		}
		dst[i].Row = perm
	}
	return dst
}

// bankRegioner is implemented by mappers that lay each bank out as one
// contiguous range of physical lines.
type bankRegioner interface {
	bankRegion(bank int) (lo, hi uint64, ok bool)
}

// BankRegion returns the half-open physical line range [lo, hi) bank
// occupies, and reports whether m lays every bank out as one contiguous
// range: RowRegion does, and so does SubarrayIsolated over it (its row
// permutation stays within a bank); the interleaving schemes spread
// every bank across the whole module and report false.
func BankRegion(m Mapper, bank int) (lo, hi uint64, ok bool) {
	if br, is := m.(bankRegioner); is && bank >= 0 && bank < m.Geometry().Banks {
		return br.bankRegion(bank)
	}
	return 0, 0, false
}

// bankRegion implements bankRegioner: bank b holds lines [b·C·R, (b+1)·C·R).
func (m *RowRegion) bankRegion(bank int) (lo, hi uint64, ok bool) {
	size := uint64(m.geom.ColumnsPerRow) * uint64(m.geom.RowsPerBank())
	return uint64(bank) * size, uint64(bank+1) * size, true
}

// bankRegion implements bankRegioner: permuting rows within a bank keeps
// each bank's lines those of the base.
func (m *SubarrayIsolated) bankRegion(bank int) (lo, hi uint64, ok bool) {
	return BankRegion(m.base, bank)
}

// rowRunner is implemented by mappers that know where a run of lines
// sharing one row index ends.
type rowRunner interface {
	rowRunEnd(line uint64) uint64
}

// RowRunEnd returns the end of the run of consecutive physical lines
// from line on that share line's bank-local row index: every line in
// [line, RowRunEnd(m, line)) maps to that row index, in whatever banks.
// A page allocator that rejects a frame for its row skips the rest of
// the run with it. RowRegion, the interleaving schemes and
// SubarrayIsolated over them know their runs; any other mapper reports
// line+1, a run of one.
func RowRunEnd(m Mapper, line uint64) uint64 {
	if rr, ok := m.(rowRunner); ok {
		return rr.rowRunEnd(line)
	}
	return line + 1
}

// rowRunEnd implements rowRunner: a row is ColumnsPerRow consecutive lines.
func (m *RowRegion) rowRunEnd(line uint64) uint64 {
	c := uint64(m.geom.ColumnsPerRow)
	return (line/c + 1) * c
}

// rowRunEnd implements rowRunner: a row stripe of Banks × ColumnsPerRow
// consecutive lines shares one row index.
func (m *LineInterleave) rowRunEnd(line uint64) uint64 {
	stripe := uint64(m.geom.Banks) * uint64(m.geom.ColumnsPerRow)
	return (line/stripe + 1) * stripe
}

// rowRunEnd implements rowRunner: the XOR permutes banks only, so rows
// run in stripes as under LineInterleave.
func (m *XORInterleave) rowRunEnd(line uint64) uint64 {
	stripe := uint64(m.geom.Banks) * uint64(m.geom.ColumnsPerRow)
	return (line/stripe + 1) * stripe
}

// rowRunEnd implements rowRunner: the row permutation is a function of
// the base's row index alone, so it keeps the base's runs.
func (m *SubarrayIsolated) rowRunEnd(line uint64) uint64 {
	return RowRunEnd(m.base, line)
}
