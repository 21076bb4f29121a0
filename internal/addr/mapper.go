// Package addr implements the mapping between CPU physical addresses and
// DDR logical addresses (bank, row, column), including the conventional
// interleaving schemes of §2.1/§4.1 of "Stop! Hammer Time" and the
// paper's proposed subarray-isolated interleaving primitive.
//
// Addresses are handled at cache-line granularity: a "line index" is the
// physical address divided by the line size. Every scheme is a bijection
// between line indices and (bank, row, column) triples so allocation
// policies can reason in either space.
package addr

import (
	"fmt"
	"math/bits"

	"hammertime/internal/dram"
)

// DDR is a DDR logical address at cache-line granularity.
type DDR struct {
	Bank   int
	Row    int // bank-local row index
	Column int
}

// Subarray returns the subarray the address falls in, given the geometry.
func (d DDR) Subarray(g dram.Geometry) int { return g.SubarrayOf(d.Row) }

// Mapper converts between physical line indices and DDR addresses.
// Implementations must be bijections over [0, Geometry().TotalLines()).
type Mapper interface {
	// Name identifies the scheme in reports.
	Name() string
	// Geometry returns the geometry the mapper was built for.
	Geometry() dram.Geometry
	// Map converts a physical line index to a DDR address.
	Map(line uint64) DDR
	// Unmap converts a DDR address back to a physical line index.
	Unmap(d DDR) uint64
}

// checkLine panics if line is not below lines, the module's line count;
// mapping an address that does not exist is a simulator bug, not a
// runtime condition. Mappers cache Geometry.TotalLines at construction so
// the per-request check is one compare.
func checkLine(line, lines uint64) {
	if line >= lines {
		panic(fmt.Sprintf("addr: line %d out of range [0,%d)", line, lines))
	}
}

// log2 returns the base-2 logarithm of n and whether n is a power of two.
func log2(n int) (uint, bool) {
	if n <= 0 || n&(n-1) != 0 {
		return 0, false
	}
	return uint(bits.TrailingZeros(uint(n))), true
}

// fields is a two-level split of a line index into low, mid and high
// fields by shifts and masks, valid when both lower field sizes are
// powers of two (as in the default geometry).
type fields struct {
	pow2             bool
	lowBits, midBits uint
	lowMask, midMask uint64
}

func newFields(low, mid int) fields {
	lb, ok1 := log2(low)
	mb, ok2 := log2(mid)
	if !ok1 || !ok2 {
		return fields{}
	}
	return fields{pow2: true, lowBits: lb, midBits: mb, lowMask: uint64(low) - 1, midMask: uint64(mid) - 1}
}

// RowRegion maps consecutive physical lines into the same row of the same
// bank until the row is exhausted (bank interleaving disabled, as when the
// BIOS option of §4.1's strawman is turned off). Layout, low to high bits:
// column, then row, then bank — one bank holds a contiguous 1/Banks slice
// of the physical space? No: column, bank-region. Concretely:
//
//	column = line % C
//	row    = (line / C) % R
//	bank   = line / (C * R)
//
// so each bank owns one contiguous region of physical memory. This is the
// layout a bank-aware page allocator (PALLOC-style) wants: a page's bank
// is a pure function of its frame number and domains can be confined to
// disjoint banks — at the cost of bank-level parallelism for streams.
type RowRegion struct {
	geom  dram.Geometry
	lines uint64
	f     fields // column, row
}

// NewRowRegion returns a RowRegion mapper for g.
func NewRowRegion(g dram.Geometry) *RowRegion {
	return &RowRegion{geom: g, lines: g.TotalLines(), f: newFields(g.ColumnsPerRow, g.RowsPerBank())}
}

// Name implements Mapper.
func (m *RowRegion) Name() string { return "row-region" }

// Geometry implements Mapper.
func (m *RowRegion) Geometry() dram.Geometry { return m.geom }

// Map implements Mapper.
func (m *RowRegion) Map(line uint64) DDR {
	checkLine(line, m.lines)
	if f := &m.f; f.pow2 {
		return DDR{
			Column: int(line & f.lowMask),
			Row:    int(line >> f.lowBits & f.midMask),
			Bank:   int(line >> (f.lowBits + f.midBits)),
		}
	}
	c := uint64(m.geom.ColumnsPerRow)
	r := uint64(m.geom.RowsPerBank())
	return DDR{
		Column: int(line % c),
		Row:    int((line / c) % r),
		Bank:   int(line / (c * r)),
	}
}

// Unmap implements Mapper.
func (m *RowRegion) Unmap(d DDR) uint64 {
	c := uint64(m.geom.ColumnsPerRow)
	r := uint64(m.geom.RowsPerBank())
	return uint64(d.Bank)*c*r + uint64(d.Row)*c + uint64(d.Column)
}

// LineInterleave spreads consecutive physical lines across banks — the
// performance-critical interleaving of modern systems (§4.1): consecutive
// lines can be accessed in parallel in different banks.
//
//	bank   = line % B
//	column = (line / B) % C
//	row    = line / (B * C)
//
// A "row stripe" of B*C consecutive lines shares one row index across all
// banks, so physical frame number determines the row (and therefore the
// subarray) — the property subarray-aware allocation relies on.
type LineInterleave struct {
	geom  dram.Geometry
	lines uint64
	f     fields // bank, column
}

// NewLineInterleave returns a LineInterleave mapper for g.
func NewLineInterleave(g dram.Geometry) *LineInterleave {
	return &LineInterleave{geom: g, lines: g.TotalLines(), f: newFields(g.Banks, g.ColumnsPerRow)}
}

// Name implements Mapper.
func (m *LineInterleave) Name() string { return "line-interleave" }

// Geometry implements Mapper.
func (m *LineInterleave) Geometry() dram.Geometry { return m.geom }

// Map implements Mapper.
func (m *LineInterleave) Map(line uint64) DDR {
	checkLine(line, m.lines)
	if f := &m.f; f.pow2 {
		return DDR{
			Bank:   int(line & f.lowMask),
			Column: int(line >> f.lowBits & f.midMask),
			Row:    int(line >> (f.lowBits + f.midBits)),
		}
	}
	b := uint64(m.geom.Banks)
	c := uint64(m.geom.ColumnsPerRow)
	return DDR{
		Bank:   int(line % b),
		Column: int((line / b) % c),
		Row:    int(line / (b * c)),
	}
}

// Unmap implements Mapper.
func (m *LineInterleave) Unmap(d DDR) uint64 {
	b := uint64(m.geom.Banks)
	c := uint64(m.geom.ColumnsPerRow)
	return uint64(d.Row)*b*c + uint64(d.Column)*b + uint64(d.Bank)
}

// XORInterleave is LineInterleave with the bank index permuted by XOR with
// low row bits (Zhang et al., MICRO'00), reducing row-buffer conflicts for
// strided traffic. Because XOR with the row is an involution at fixed row,
// the scheme stays a bijection.
type XORInterleave struct {
	geom  dram.Geometry
	lines uint64
}

// NewXORInterleave returns an XORInterleave mapper for g. The bank count
// must be a power of two for the XOR permutation to stay within range.
func NewXORInterleave(g dram.Geometry) (*XORInterleave, error) {
	if g.Banks&(g.Banks-1) != 0 {
		return nil, fmt.Errorf("addr: xor-interleave needs power-of-two banks, got %d", g.Banks)
	}
	return &XORInterleave{geom: g, lines: g.TotalLines()}, nil
}

// Name implements Mapper.
func (m *XORInterleave) Name() string { return "xor-interleave" }

// Geometry implements Mapper.
func (m *XORInterleave) Geometry() dram.Geometry { return m.geom }

// Map implements Mapper.
func (m *XORInterleave) Map(line uint64) DDR {
	checkLine(line, m.lines)
	b := uint64(m.geom.Banks)
	c := uint64(m.geom.ColumnsPerRow)
	d := DDR{
		Bank:   int(line % b),
		Column: int((line / b) % c),
		Row:    int(line / (b * c)),
	}
	d.Bank ^= d.Row % m.geom.Banks
	return d
}

// Unmap implements Mapper.
func (m *XORInterleave) Unmap(d DDR) uint64 {
	b := uint64(m.geom.Banks)
	c := uint64(m.geom.ColumnsPerRow)
	bank := d.Bank ^ (d.Row % m.geom.Banks)
	return uint64(d.Row)*b*c + uint64(d.Column)*b + uint64(bank)
}
