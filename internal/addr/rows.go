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
// fixed bank, so it keeps the base's pairs distinct and in order.
func (m *SubarrayIsolated) appendRows(dst []RowLine, start, end uint64) []RowLine {
	first := len(dst)
	dst = AppendRows(dst, m.base, start, end-start)
	for i := first; i < len(dst); i++ {
		dst[i].Row = m.permuteRow(dst[i].Row)
	}
	return dst
}
