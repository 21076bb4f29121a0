package dram

import (
	"encoding/binary"
	"fmt"
	"math"
	"sort"

	"hammertime/internal/ecc"
	"hammertime/internal/obs"
	"hammertime/internal/sim"
)

// FlipEvent records one Rowhammer bit flip: which bit of which line of
// which victim row flipped, when, and which aggressor row's activation
// pushed it over.
type FlipEvent struct {
	Bank      int
	Row       int // victim, bank-local
	Subarray  int
	Column    int
	Bit       int // bit offset within the line
	Cycle     uint64
	Aggressor int // aggressor row, bank-local
	// ActorDomain is the trust domain whose access triggered the
	// aggressor activation (-1 when unknown/internal).
	ActorDomain int
}

// LineAddr identifies one cache-line-sized column in the module.
type LineAddr struct {
	Bank   int
	Row    int // bank-local
	Column int
}

// Config assembles everything a Module needs. Zero-valued fields fall back
// to defaults (DefaultGeometry, DDR4Timing, DDR4Old profile).
type Config struct {
	Geometry Geometry
	Timing   Timing
	Profile  DisturbanceProfile
	// TRR, if non-nil, enables the in-DRAM blackbox Target Row Refresh
	// baseline (§3): an n-entry aggressor tracker serviced at REF time.
	TRR *TRRConfig
	// ECC enables SECDED (72,64) protection: every 64-bit word carries 8
	// check bits, flips may also land in check bits, and ReadLine/
	// ClassifyLine report corrected/detected/silent outcomes (the
	// Cojocar et al. hierarchy).
	ECC bool
	// MaxFlipRecords bounds the retained FlipEvent list (flip *counts* are
	// always exact). 0 means DefaultMaxFlipRecords.
	MaxFlipRecords int
	// Seed seeds the module's private RNG (victim bit selection).
	Seed uint64
}

// DefaultMaxFlipRecords is the default bound on retained flip events.
const DefaultMaxFlipRecords = 4096

// Module is a simulated DRAM module. It is passive: the memory controller
// drives it by calling command methods with the current cycle. Module is
// not safe for concurrent use.
type Module struct {
	geom   Geometry
	timing Timing
	prof   DisturbanceProfile

	// Per-bank dynamic state in struct-of-arrays layout: open holds each
	// bank's open row (-1 when precharged); disturb and acts are flat
	// bank-major arrays indexed [bank*rows + row]. disturb accumulates
	// distance-weighted aggressor ACTs per victim row since the victim's
	// last refresh (0 = fully charged); acts counts ACTs per row since the
	// row's last refresh (stats, TRR). The ACT hot path touches a small
	// neighborhood of rows around the aggressor, which in this layout is
	// one contiguous run of float64s/uint64s — pure indexing, zero
	// allocations, no per-bank pointer chase.
	open    []int
	disturb []float64
	acts    []uint64
	rows    int // cached Geometry.RowsPerBank()
	subRows int // cached Geometry.RowsPerSubarray
	// subMask is subRows-1 when subRows is a power of two (a subarray's
	// first row is then row &^ subMask), else -1.
	subMask int
	// amounts[d-1] is the profile's DisturbanceAt(d) for each distance d
	// in the blast radius, computed once instead of per victim per ACT.
	amounts []float64
	mac     float64 // cached float64(Profile.MAC)
	// disturbOracle, when set, replaces disturbNeighbors' fused loop. Only
	// the differential test sets it, to the retired per-victim walk.
	disturbOracle func(bankIdx, row int, cycle uint64, actorDomain int) []FlipEvent

	trr *trrEngine

	rng   *sim.RNG
	stats *sim.Stats
	rec   *obs.Recorder

	// actVec is the live "dram.act.bank" per-bank counter slice (held to
	// skip the stats map lookup on the ACT hot path); actCtr, preCtr,
	// refCtr and flipCtr are the matching live scalar counter pointers
	// (sim.Stats.CounterRef). actsPerRow is the ACTs-per-row-per-refresh-
	// window histogram, fed when a row's counter is reset by refresh.
	// lastCycle remembers the most recent command cycle for events on
	// commands that carry no cycle (PRE, RefreshRow).
	actVec     []int64
	actCtr     *int64
	preCtr     *int64
	refCtr     *int64
	flipCtr    *int64
	actsPerRow *sim.Histogram
	lastCycle  uint64
	// targeted and refNeighbors count RefreshRow / RefreshNeighbors
	// commands; bound on first use, so they stay out of the stats of a
	// module that never sees one.
	targeted, refNeighbors sim.LazyCounter

	// Refresh sweep state: refreshPtr is the next bank-local row the sweep
	// will recharge (same row index in every bank). The sweep advances
	// fractionally — refAccum accumulates RowsPerBank per REF and a row is
	// recharged each time it crosses refDenom (= REF commands per window) —
	// so one full sweep takes exactly one refresh window regardless of the
	// module's row count.
	refreshPtr  int
	refAccum    int
	refDenom    int
	flipRecords []FlipEvent
	maxRecords  int
	flipCount   uint64
	crossFlips  func(FlipEvent) // optional observer

	data map[uint64][]byte // sparse line store, key = lineKey

	// ECC state (nil maps when disabled): stored check bytes, the
	// originally-written ground truth, and the set of flipped lines.
	eccOn     bool
	checks    map[uint64][8]uint8
	originals map[uint64][]byte
	flipped   map[uint64]bool
}

// NewModule constructs a module from cfg, applying defaults for zero
// fields and validating the result.
func NewModule(cfg Config) (*Module, error) {
	if cfg.Geometry == (Geometry{}) {
		cfg.Geometry = DefaultGeometry()
	}
	if cfg.Timing == (Timing{}) {
		cfg.Timing = DDR4Timing()
	}
	if cfg.Profile == (DisturbanceProfile{}) {
		cfg.Profile = DDR4Old()
	}
	if err := cfg.Geometry.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Timing.Validate(); err != nil {
		return nil, err
	}
	if err := cfg.Profile.Validate(); err != nil {
		return nil, err
	}
	if cfg.MaxFlipRecords == 0 {
		cfg.MaxFlipRecords = DefaultMaxFlipRecords
	}
	m := &Module{
		geom:       cfg.Geometry,
		timing:     cfg.Timing,
		prof:       cfg.Profile,
		rng:        sim.NewRNG(cfg.Seed ^ 0xd2a57d4d11b2c9f3),
		stats:      &sim.Stats{},
		maxRecords: cfg.MaxFlipRecords,
		data:       make(map[uint64][]byte),
		eccOn:      cfg.ECC,
		flipped:    make(map[uint64]bool),
	}
	if cfg.ECC {
		if cfg.Geometry.LineBytes%8 != 0 {
			return nil, fmt.Errorf("dram: ECC requires 8-byte-aligned lines, got %d bytes", cfg.Geometry.LineBytes)
		}
		m.checks = make(map[uint64][8]uint8)
		m.originals = make(map[uint64][]byte)
	}
	m.actVec = m.stats.EnsureVec("dram.act.bank", cfg.Geometry.Banks)
	m.actCtr = m.stats.CounterRef("dram.act")
	m.preCtr = m.stats.CounterRef("dram.pre")
	m.refCtr = m.stats.CounterRef("dram.ref")
	m.flipCtr = m.stats.CounterRef("dram.flips")
	m.actsPerRow = m.stats.NewHistogram("dram.acts_per_row", sim.ExpBuckets(1, 2, 17))
	m.targeted = m.stats.LazyCounter("dram.targeted_refresh")
	m.refNeighbors = m.stats.LazyCounter("dram.ref_neighbors")
	m.rows = cfg.Geometry.RowsPerBank()
	m.subRows = cfg.Geometry.RowsPerSubarray
	m.subMask = -1
	if m.subRows&(m.subRows-1) == 0 {
		m.subMask = m.subRows - 1
	}
	m.mac = float64(cfg.Profile.MAC)
	m.amounts = make([]float64, cfg.Profile.BlastRadius)
	for i := range m.amounts {
		m.amounts[i] = cfg.Profile.DisturbanceAt(i + 1)
	}
	m.open = make([]int, cfg.Geometry.Banks)
	for i := range m.open {
		m.open[i] = -1
	}
	m.disturb, _ = disturbArrays.Get(cfg.Geometry.Banks * m.rows)
	m.acts, _ = actsArrays.Get(cfg.Geometry.Banks * m.rows)
	m.refDenom = cfg.Timing.RefreshCommandsPerWindow()
	if m.refDenom <= 0 {
		m.refDenom = 1
	}
	if cfg.TRR != nil {
		t, err := newTRREngine(*cfg.TRR, cfg.Geometry, cfg.Profile)
		if err != nil {
			return nil, err
		}
		m.trr = t
	}
	return m, nil
}

// disturbArrays and actsArrays recycle released modules' per-row state.
var (
	disturbArrays = sim.NewFreeList[float64]()
	actsArrays    = sim.NewFreeList[uint64]()
)

// Release hands the module's per-row arrays back for reuse by the next
// NewModule. The module must not be used afterwards: its arrays are
// gone, so an ACT panics instead of disturbing another module's rows.
// Releasing twice is a no-op.
func (m *Module) Release() {
	disturbArrays.Put(m.disturb)
	actsArrays.Put(m.acts)
	m.disturb, m.acts = nil, nil
}

// Geometry returns the module's geometry.
func (m *Module) Geometry() Geometry { return m.geom }

// Timing returns the module's timing parameters.
func (m *Module) Timing() Timing { return m.timing }

// Profile returns the module's disturbance profile.
func (m *Module) Profile() DisturbanceProfile { return m.prof }

// Stats returns the module's stats registry.
func (m *Module) Stats() *sim.Stats { return m.stats }

// SetRecorder attaches an event recorder (nil disables recording). The
// recorder is a pure observer: it never changes command behavior, timing
// or RNG consumption.
func (m *Module) SetRecorder(r *obs.Recorder) { m.rec = r }

// SetFlipObserver registers fn to be called synchronously on every bit
// flip (in addition to recording). Pass nil to remove.
func (m *Module) SetFlipObserver(fn func(FlipEvent)) { m.crossFlips = fn }

// OpenRow returns the bank's open row, or -1 if the bank is precharged.
func (m *Module) OpenRow(bankIdx int) int {
	return m.open[bankIdx]
}

// Activate issues an ACT command: it connects row to the bank's row buffer,
// recharges the row itself, and disturbs neighbors within the blast radius
// in the same subarray. Any bit flips caused by this activation are
// recorded and returned. actorDomain tags the trust domain whose access
// caused the ACT (-1 for internal/unattributed activity) so flips can be
// attributed exactly.
func (m *Module) Activate(bankIdx, row int, cycle uint64, actorDomain int) ([]FlipEvent, error) {
	if bankIdx < 0 || bankIdx >= m.geom.Banks {
		return nil, fmt.Errorf("dram: activate: bank %d out of range [0,%d)", bankIdx, m.geom.Banks)
	}
	if row < 0 || row >= m.rows {
		return nil, fmt.Errorf("dram: activate: row %d out of range [0,%d)", row, m.rows)
	}
	m.open[bankIdx] = row
	*m.actCtr++
	m.actVec[bankIdx]++
	m.lastCycle = cycle
	// Arg=1 marks a counted, controller-issued ACT (as opposed to a
	// mitigation-internal cure, which carries Arg=0 and Domain=-1). The
	// per-command sites guard on the recorder themselves: an inlined Emit
	// would still build the Event before its own nil check.
	if m.rec != nil {
		m.rec.Emit(obs.Event{Kind: obs.KindACT, Cycle: cycle, Bank: bankIdx, Row: row, Domain: actorDomain, Arg: 1})
	}
	idx := bankIdx*m.rows + row
	m.acts[idx]++
	// An ACT recharges the activated row as a side effect (§2.1).
	m.disturb[idx] = 0

	flips := m.disturbNeighbors(bankIdx, row, cycle, actorDomain)
	if m.trr != nil {
		m.trr.onActivate(bankIdx, row)
	}
	return flips, nil
}

// activateInternal performs the electrical effects of an ACT (open row,
// self-refresh, neighbor disturbance) without feeding the TRR tracker —
// used by mitigation engines whose cures are themselves activations.
func (m *Module) activateInternal(bankIdx, row int, cycle uint64) ([]FlipEvent, error) {
	if !m.geom.ValidBank(bankIdx) || row < 0 || row >= m.rows {
		return nil, fmt.Errorf("dram: internal activate: bank %d row %d out of range", bankIdx, row)
	}
	// A cure ACT cannot land on a bank with an open row — the engine
	// precharges first, and again after the cure, so the row buffer is
	// left as the controller expects (closed) rather than silently
	// holding the cure victim.
	if m.open[bankIdx] >= 0 {
		m.Precharge(bankIdx, cycle)
	}
	m.open[bankIdx] = row
	*m.actCtr++
	m.actVec[bankIdx]++
	m.lastCycle = cycle
	if m.rec != nil {
		m.rec.Emit(obs.Event{Kind: obs.KindACT, Cycle: cycle, Bank: bankIdx, Row: row, Domain: -1})
	}
	m.disturb[bankIdx*m.rows+row] = 0
	flips := m.disturbNeighbors(bankIdx, row, cycle, -1)
	m.Precharge(bankIdx, cycle)
	return flips, nil
}

// subarrayRows returns the half-open row range [lo, hi) of row's
// subarray. Disturbance never leaves it: subarrays are electromagnetically
// isolated, and the range lies within the bank by construction.
func (m *Module) subarrayRows(row int) (lo, hi int) {
	if m.subMask >= 0 {
		lo = row &^ m.subMask
	} else {
		lo = row / m.subRows * m.subRows
	}
	return lo, lo + m.subRows
}

// disturbNeighbors applies one activation of row to every victim within
// the blast radius in the row's subarray and returns the resulting flips.
// Victims are visited nearest first, row-d before row+d: excess draws
// from the RNG, so the order is part of the simulated result. A victim
// still at or below the MAC costs one add and one compare; only a
// crossing leaves the loop.
func (m *Module) disturbNeighbors(bankIdx, row int, cycle uint64, actorDomain int) []FlipEvent {
	if m.disturbOracle != nil {
		return m.disturbOracle(bankIdx, row, cycle, actorDomain)
	}
	var flips []FlipEvent
	lo, hi := m.subarrayRows(row)
	base := bankIdx * m.rows
	disturb, mac := m.disturb, m.mac
	for i, amount := range m.amounts {
		if v := row - 1 - i; v >= lo {
			old := disturb[base+v]
			now := old + amount
			disturb[base+v] = now
			if now > mac {
				flips = m.excess(flips, bankIdx, v, row, old, now, cycle, actorDomain)
			}
		}
		if v := row + 1 + i; v < hi {
			old := disturb[base+v]
			now := old + amount
			disturb[base+v] = now
			if now > mac {
				flips = m.excess(flips, bankIdx, v, row, old, now, cycle, actorDomain)
			}
		}
	}
	return flips
}

// excess generates the flips of a victim whose disturbance went from old
// to now, with now above the MAC: the expected flip count is the
// disturbance beyond the MAC added by this ACT times FlipProb, its
// fraction settled by one RNG draw. The flips are applied and appended
// to flips.
func (m *Module) excess(flips []FlipEvent, bankIdx, victim, aggressor int, old, now float64, cycle uint64, actorDomain int) []FlipEvent {
	excessDelta := now - m.mac
	if old > m.mac {
		excessDelta = now - old
	}
	expect := excessDelta * m.prof.FlipProb
	n := int(expect)
	if m.rng.Bool(expect - float64(n)) {
		n++
	}
	if n == 0 {
		return flips
	}
	bitSpace := m.geom.LineBytes * 8
	if m.eccOn {
		// Check bits are cells too: one check byte per 64-bit word, but
		// the check store holds at most 8 words' worth (applyFlip and
		// WriteLine only protect the first 8 words of wide lines).
		checkBytes := m.geom.LineBytes / 8
		if checkBytes > 8 {
			checkBytes = 8
		}
		bitSpace += checkBytes * 8
	}
	for i := 0; i < n; i++ {
		ev := FlipEvent{
			Bank:        bankIdx,
			Row:         victim,
			Subarray:    m.geom.SubarrayOf(victim),
			Column:      m.rng.Intn(m.geom.ColumnsPerRow),
			Bit:         m.rng.Intn(bitSpace),
			Cycle:       cycle,
			Aggressor:   aggressor,
			ActorDomain: actorDomain,
		}
		m.applyFlip(ev)
		flips = append(flips, ev)
	}
	return flips
}

// applyFlip records ev and corrupts the stored data, materializing the
// line if it was never written (unwritten cells still flip on hardware).
func (m *Module) applyFlip(ev FlipEvent) {
	m.flipCount++
	*m.flipCtr++
	if len(m.flipRecords) < m.maxRecords {
		m.flipRecords = append(m.flipRecords, ev)
	}
	key := m.lineKey(LineAddr{Bank: ev.Bank, Row: ev.Row, Column: ev.Column})
	m.flipped[key] = true
	m.materialize(key)
	dataBits := m.geom.LineBytes * 8
	if ev.Bit < dataBits {
		m.data[key][ev.Bit/8] ^= 1 << (ev.Bit % 8)
	} else {
		// ECC check-bit flip: word w's check byte.
		cb := ev.Bit - dataBits
		checks := m.checks[key]
		checks[cb/8] ^= 1 << (cb % 8)
		m.checks[key] = checks
	}
	m.rec.Emit(obs.Event{
		Kind:   obs.KindBitFlip,
		Cycle:  ev.Cycle,
		Bank:   ev.Bank,
		Row:    ev.Row,
		Domain: ev.ActorDomain,
		Arg:    uint64(ev.Bit),
	})
	if m.crossFlips != nil {
		m.crossFlips(ev)
	}
}

// materialize ensures the sparse stores hold state for key (zero data,
// matching check bits and ground truth when ECC is on).
func (m *Module) materialize(key uint64) {
	if _, ok := m.data[key]; !ok {
		m.data[key] = make([]byte, m.geom.LineBytes)
	}
	if !m.eccOn {
		return
	}
	if _, ok := m.checks[key]; !ok {
		var cs [8]uint8
		zero := ecc.Encode(0)
		for i := range cs {
			cs[i] = zero.Check
		}
		m.checks[key] = cs
	}
	if _, ok := m.originals[key]; !ok {
		m.originals[key] = make([]byte, m.geom.LineBytes)
	}
}

// Precharge issues a PRE command at the given cycle, closing the bank's
// open row.
func (m *Module) Precharge(bankIdx int, cycle uint64) error {
	if !m.geom.ValidBank(bankIdx) {
		return fmt.Errorf("dram: precharge: bank %d out of range [0,%d)", bankIdx, m.geom.Banks)
	}
	m.open[bankIdx] = -1
	*m.preCtr++
	m.lastCycle = cycle
	if m.rec != nil {
		m.rec.Emit(obs.Event{Kind: obs.KindPRE, Cycle: cycle, Bank: bankIdx, Row: -1, Domain: -1})
	}
	return nil
}

// Refresh issues one REF command (the periodic sweep): the next batch of
// rows is recharged in every bank, and — if TRR is enabled — the in-DRAM
// mitigation gets its chance to issue targeted neighbor refreshes.
// The memory controller is responsible for issuing Refresh every TREFI.
func (m *Module) Refresh(cycle uint64) {
	*m.refCtr++
	m.lastCycle = cycle
	if m.rec != nil {
		m.rec.Emit(obs.Event{Kind: obs.KindREF, Cycle: cycle, Bank: -1, Row: -1, Domain: -1})
	}
	m.refAccum += m.rows
	for m.refAccum >= m.refDenom {
		m.refAccum -= m.refDenom
		for b := 0; b < m.geom.Banks; b++ {
			m.refreshRowInternal(b, m.refreshPtr)
		}
		m.refreshPtr = (m.refreshPtr + 1) % m.rows
	}
	if m.trr != nil {
		m.trr.onRefresh(m, cycle)
	}
}

// RefreshBurst applies n consecutive REF commands (the last at cycle
// lastCycle) in one step, in closed form, and reports whether it did.
// It refuses — returning false with NO state change, so the caller must
// fall back to issuing single Refresh commands — when the burst would be
// observable: a recorder is attached (per-REF events must be emitted at
// their own cycles) or a TRR engine is armed with an over-threshold
// candidate (cures fire at specific REF commands).
//
// When it runs, the final state is byte-identical to n single Refresh
// calls: the fractional sweep advances refreshPtr/refAccum by exactly the
// same amounts, and because a row recharge is idempotent (disturb drops
// to 0; the acts histogram observes only the first recharge of a row with
// acts > 0) the sweep only needs min(steps, rows) physical recharges —
// beyond one full rotation, extra passes touch already-clean rows.
// A quiescent TRR tracker is untouched by onRefresh, so skipping those
// calls changes nothing either.
func (m *Module) RefreshBurst(n uint64, lastCycle uint64) bool {
	if n == 0 {
		return true
	}
	if m.rec != nil || (m.trr != nil && !m.trr.quiescent()) {
		return false
	}
	*m.refCtr += int64(n)
	m.lastCycle = lastCycle
	// Advance the fractional sweep in closed form, chunked so the
	// rows-per-REF accumulation never overflows uint64.
	rows := uint64(m.rows)
	denom := uint64(m.refDenom)
	for n > 0 {
		chunk := n
		if maxChunk := (math.MaxUint64 - uint64(m.refAccum)) / rows; chunk > maxChunk {
			chunk = maxChunk
		}
		total := uint64(m.refAccum) + chunk*rows
		m.applySweepSteps(total / denom)
		m.refAccum = int(total % denom)
		n -= chunk
	}
	return true
}

// applySweepSteps advances the refresh sweep by steps whole rows,
// recharging min(steps, rows) rows starting at refreshPtr — in sweep
// order, all banks per row, exactly as the per-REF loop would.
func (m *Module) applySweepSteps(steps uint64) {
	if steps == 0 {
		return
	}
	eff := steps
	if eff > uint64(m.rows) {
		eff = uint64(m.rows)
	}
	row := m.refreshPtr
	for i := uint64(0); i < eff; i++ {
		for b := 0; b < m.geom.Banks; b++ {
			m.refreshRowInternal(b, row)
		}
		row++
		if row == m.rows {
			row = 0
		}
	}
	m.refreshPtr = int((uint64(m.refreshPtr) + steps%uint64(m.rows)) % uint64(m.rows))
}

// refreshRowInternal recharges one row without command-timing side
// effects (used by the REF sweep and targeted refreshes).
func (m *Module) refreshRowInternal(bankIdx, row int) {
	idx := bankIdx*m.rows + row
	m.disturb[idx] = 0
	if acts := m.acts[idx]; acts > 0 {
		m.actsPerRow.ObserveUint(acts)
		m.acts[idx] = 0
	}
}

// RefreshRow performs a targeted refresh of one row, as issued by the
// proposed host refresh instruction (§4.3) after its PRE+ACT sequence, or
// by in-MC mitigations (PARA, Graphene). It recharges the row without
// disturbing neighbors — the neighbor disturbance of the instruction's ACT
// is modeled by the memory controller issuing a real Activate first.
func (m *Module) RefreshRow(bankIdx, row int) error {
	if !m.geom.ValidBank(bankIdx) {
		return fmt.Errorf("dram: refresh row: bank %d out of range [0,%d)", bankIdx, m.geom.Banks)
	}
	if !m.geom.ValidRow(row) {
		return fmt.Errorf("dram: refresh row: row %d out of range [0,%d)", row, m.geom.RowsPerBank())
	}
	m.targeted.Inc()
	m.rec.Emit(obs.Event{Kind: obs.KindTargetedRefresh, Cycle: m.lastCycle, Bank: bankIdx, Row: row, Domain: -1})
	m.refreshRowInternal(bankIdx, row)
	return nil
}

// RefreshNeighbors implements the optional REF_NEIGHBORS DDR command the
// paper proposes (§4.3): DRAM refreshes all potential victims of the given
// aggressor row up to radius rows away, within the aggressor's subarray.
func (m *Module) RefreshNeighbors(bankIdx, row, radius int, cycle uint64) error {
	if !m.geom.ValidBank(bankIdx) {
		return fmt.Errorf("dram: refresh neighbors: bank %d out of range [0,%d)", bankIdx, m.geom.Banks)
	}
	if !m.geom.ValidRow(row) {
		return fmt.Errorf("dram: refresh neighbors: row %d out of range [0,%d)", row, m.geom.RowsPerBank())
	}
	if radius <= 0 {
		return fmt.Errorf("dram: refresh neighbors: radius %d, need > 0", radius)
	}
	m.refNeighbors.Inc()
	m.lastCycle = cycle
	m.rec.Emit(obs.Event{Kind: obs.KindRefNeighbors, Cycle: cycle, Bank: bankIdx, Row: row, Domain: -1, Arg: uint64(radius)})
	lo, hi := m.subarrayRows(row)
	for dist := 1; dist <= radius; dist++ {
		if v := row - dist; v >= lo {
			m.refreshRowInternal(bankIdx, v)
		}
		if v := row + dist; v < hi {
			m.refreshRowInternal(bankIdx, v)
		}
	}
	return nil
}

// FlipCount returns the total number of bit flips so far.
func (m *Module) FlipCount() uint64 { return m.flipCount }

// Flips returns the recorded flip events (bounded by MaxFlipRecords).
// The returned slice is owned by the module; callers must not modify it.
func (m *Module) Flips() []FlipEvent { return m.flipRecords }

// Disturbance returns the accumulated disturbance of a row since its last
// refresh. Exposed for tests and for modeling idealized hardware oracles.
func (m *Module) Disturbance(bankIdx, row int) float64 {
	if !m.geom.ValidBank(bankIdx) || !m.geom.ValidRow(row) {
		return 0
	}
	return m.disturb[bankIdx*m.rows+row]
}

// SeedDisturbance sets a row's accumulated disturbance directly. It
// exists for experiments that need a specific charge state (e.g. E7's
// "victim row open while disturbed" hazard) without replaying the access
// history; it is not part of the hardware model and generates no flips.
// The injection is emitted as a KindSeedDisturb event so shadow models
// (the invariant auditor) see it.
func (m *Module) SeedDisturbance(bankIdx, row int, amount float64) {
	if !m.geom.ValidBank(bankIdx) || !m.geom.ValidRow(row) {
		return
	}
	m.disturb[bankIdx*m.rows+row] = amount
	m.rec.Emit(obs.Event{
		Kind:   obs.KindSeedDisturb,
		Cycle:  m.lastCycle,
		Bank:   bankIdx,
		Row:    row,
		Domain: -1,
		Arg:    math.Float64bits(amount),
	})
}

// ActCount returns the number of ACTs of a row since its last refresh.
func (m *Module) ActCount(bankIdx, row int) uint64 {
	if !m.geom.ValidBank(bankIdx) || !m.geom.ValidRow(row) {
		return 0
	}
	return m.acts[bankIdx*m.rows+row]
}

// lineKey packs a line address into a map key.
func (m *Module) lineKey(a LineAddr) uint64 {
	return (uint64(a.Bank)*uint64(m.geom.RowsPerBank())+uint64(a.Row))*uint64(m.geom.ColumnsPerRow) + uint64(a.Column)
}

// WriteLine stores data (copied, exactly LineBytes long) at the line.
// With ECC enabled it also computes and stores the check bits and records
// the written data as ground truth for later classification.
func (m *Module) WriteLine(a LineAddr, data []byte) error {
	if err := m.checkLine(a); err != nil {
		return err
	}
	if len(data) != m.geom.LineBytes {
		return fmt.Errorf("dram: write line: got %d bytes, want %d", len(data), m.geom.LineBytes)
	}
	key := m.lineKey(a)
	line, ok := m.data[key]
	if !ok {
		line = make([]byte, m.geom.LineBytes)
		m.data[key] = line
	}
	copy(line, data)
	delete(m.flipped, key) // a full write lays down fresh, clean cells
	if m.eccOn {
		var cs [8]uint8
		for w := 0; w < m.geom.LineBytes/8 && w < 8; w++ {
			cs[w] = ecc.Encode(binary.LittleEndian.Uint64(data[w*8:])).Check
		}
		m.checks[key] = cs
		orig, ok := m.originals[key]
		if !ok {
			orig = make([]byte, m.geom.LineBytes)
			m.originals[key] = orig
		}
		copy(orig, data)
	}
	return nil
}

// ReadLine returns a copy of the line's current contents (zeroes if never
// written, with any Rowhammer corruption applied).
func (m *Module) ReadLine(a LineAddr) ([]byte, error) {
	if err := m.checkLine(a); err != nil {
		return nil, err
	}
	out := make([]byte, m.geom.LineBytes)
	if line, ok := m.data[m.lineKey(a)]; ok {
		copy(out, line)
	}
	return out, nil
}

func (m *Module) checkLine(a LineAddr) error {
	switch {
	case !m.geom.ValidBank(a.Bank):
		return fmt.Errorf("dram: bank %d out of range [0,%d)", a.Bank, m.geom.Banks)
	case !m.geom.ValidRow(a.Row):
		return fmt.Errorf("dram: row %d out of range [0,%d)", a.Row, m.geom.RowsPerBank())
	case a.Column < 0 || a.Column >= m.geom.ColumnsPerRow:
		return fmt.Errorf("dram: column %d out of range [0,%d)", a.Column, m.geom.ColumnsPerRow)
	}
	return nil
}

// ECCEnabled reports whether the module stores check bits.
func (m *Module) ECCEnabled() bool { return m.eccOn }

// ClassifyLine decodes every 64-bit word of the line against its stored
// check bits and the originally-written ground truth, classifying each as
// clean / corrected / detected / silent corruption. Only meaningful with
// ECC enabled.
func (m *Module) ClassifyLine(a LineAddr) ([]ecc.Classification, error) {
	if !m.eccOn {
		return nil, fmt.Errorf("dram: ClassifyLine requires ECC")
	}
	if err := m.checkLine(a); err != nil {
		return nil, err
	}
	key := m.lineKey(a)
	words := m.geom.LineBytes / 8
	if words > 8 {
		words = 8
	}
	out := make([]ecc.Classification, words)
	stored, ok := m.data[key]
	if !ok {
		return out, nil // never written, never flipped: all clean
	}
	m.materialize(key)
	checks := m.checks[key]
	orig := m.originals[key]
	for w := 0; w < words; w++ {
		out[w] = ecc.Classify(
			binary.LittleEndian.Uint64(orig[w*8:]),
			ecc.Word{Data: binary.LittleEndian.Uint64(stored[w*8:]), Check: checks[w]},
		)
	}
	return out, nil
}

// ScrubLine performs one patrol-scrub pass over the line: every word is
// decoded; correctable words are rewritten with corrected data and fresh
// check bits, uncorrectable words are reported. Like real hardware the
// scrubber has no ground truth — a multi-bit word that aliases to a
// correctable pattern gets "corrected" to the wrong value and laundered
// with clean check bits (still classified as silent corruption later).
// Returns (corrected, detected) word counts.
func (m *Module) ScrubLine(a LineAddr) (corrected, detected int, err error) {
	if !m.eccOn {
		return 0, 0, fmt.Errorf("dram: ScrubLine requires ECC")
	}
	if err := m.checkLine(a); err != nil {
		return 0, 0, err
	}
	key := m.lineKey(a)
	stored, ok := m.data[key]
	if !ok {
		return 0, 0, nil // untouched line: nothing to scrub
	}
	m.materialize(key)
	checks := m.checks[key]
	words := m.geom.LineBytes / 8
	if words > 8 {
		words = 8
	}
	for w := 0; w < words; w++ {
		word := ecc.Word{Data: binary.LittleEndian.Uint64(stored[w*8:]), Check: checks[w]}
		decoded, res := ecc.Decode(word)
		switch res {
		case ecc.Corrected:
			binary.LittleEndian.PutUint64(stored[w*8:], decoded)
			checks[w] = ecc.Encode(decoded).Check
			corrected++
			m.stats.Inc("dram.scrub_corrected")
		case ecc.Detected:
			detected++
			m.stats.Inc("dram.scrub_detected")
		}
	}
	m.checks[key] = checks
	return corrected, detected, nil
}

// FlippedLines returns the addresses of every line that has absorbed at
// least one Rowhammer flip since its last full write.
func (m *Module) FlippedLines() []LineAddr {
	out := make([]LineAddr, 0, len(m.flipped))
	cols := uint64(m.geom.ColumnsPerRow)
	rows := uint64(m.geom.RowsPerBank())
	for key := range m.flipped {
		col := key % cols
		row := (key / cols) % rows
		bank := key / (cols * rows)
		out = append(out, LineAddr{Bank: int(bank), Row: int(row), Column: int(col)})
	}
	// The flipped set is a map; return a fixed order, not map order.
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Bank != b.Bank {
			return a.Bank < b.Bank
		}
		if a.Row != b.Row {
			return a.Row < b.Row
		}
		return a.Column < b.Column
	})
	return out
}

// TRRStats returns the TRR engine's cumulative targeted-refresh count, or
// 0 if TRR is disabled.
func (m *Module) TRRStats() uint64 {
	if m.trr == nil {
		return 0
	}
	return m.trr.refreshes
}
