package memctrl

import (
	"errors"
	"fmt"

	"hammertime/internal/addr"
	"hammertime/internal/dram"
	"hammertime/internal/obs"
	"hammertime/internal/sim"
)

// Config assembles a Controller.
type Config struct {
	// Mapper translates physical line indices to DDR addresses (required).
	Mapper addr.Mapper
	// DRAM is the module behind the controller (required).
	DRAM *dram.Module

	// OpenPage selects the row-buffer policy: true leaves rows open
	// (default); false auto-precharges after every access.
	OpenPage bool
	// BurstCycles is the data-bus occupancy per line transfer (default 4).
	BurstCycles uint64

	// Enforcer, when non-nil, checks each request's domain against the
	// subarray group it touches (§4.1 enforcement).
	Enforcer *DomainEnforcer

	// Plugins is the ordered chain of in-controller mitigations (PARA,
	// Graphene, BlockHammer); see Plugin.
	Plugins []Plugin
}

// Common controller errors.
var (
	// ErrPrivileged is returned when a non-permitted domain executes the
	// refresh instruction (§4.3: host-privileged).
	ErrPrivileged = errors.New("memctrl: refresh instruction requires host privilege")
)

// Controller is the integrated memory controller. It is single-threaded
// by design: the experiment runner presents requests in arrival order.
type Controller struct {
	mapper addr.Mapper
	dram   *dram.Module
	geom   dram.Geometry
	timing dram.Timing

	openPage bool
	burst    uint64

	bankReady []uint64 // cycle each bank becomes free
	lastACT   []uint64 // cycle+1 of each bank's last ACT (0 = never); tRC spacing
	busReady  uint64
	now       uint64

	nextRef    uint64
	nextWindow uint64
	// refSaturated / winSaturated latch when the corresponding deadline
	// can no longer advance without wrapping uint64 (or when the timing is
	// degenerate, TREFI == 0): the schedule has run off the end of
	// representable time and stops, instead of looping forever on a
	// wrapped deadline.
	refSaturated bool
	winSaturated bool
	// noBurst disables the refresh fast-forward (SetRefreshBurst).
	noBurst bool

	counter  actCounter
	enforcer *DomainEnforcer
	plugins  []Plugin

	// refreshPermitted gates the refresh instruction; nil means only
	// domain 0 (the host) may issue it.
	refreshPermitted func(domain int, line uint64) bool

	stats *sim.Stats
	rec   *obs.Recorder
	gate  *sim.Canceler

	// Hot-path histogram and counter handles (skip the stats map lookup
	// per request / per refresh epoch). The per-request counters bind on
	// their first event, so one that never fires stays out of the stats.
	interACT *sim.Histogram
	service  *sim.Histogram
	refCtr   *int64

	requests, writes, dmaRequests         sim.LazyCounter
	rowHits, rowEmpty, rowConflicts, acts sim.LazyCounter
	violations, throttled, throttleCycles sim.LazyCounter
}

// NewController validates cfg and builds a controller.
func NewController(cfg Config) (*Controller, error) {
	if cfg.Mapper == nil {
		return nil, fmt.Errorf("memctrl: config needs a Mapper")
	}
	if cfg.DRAM == nil {
		return nil, fmt.Errorf("memctrl: config needs a DRAM module")
	}
	if cfg.Mapper.Geometry() != cfg.DRAM.Geometry() {
		return nil, fmt.Errorf("memctrl: mapper geometry differs from DRAM geometry")
	}
	if cfg.BurstCycles == 0 {
		cfg.BurstCycles = 4
	}
	g := cfg.DRAM.Geometry()
	t := cfg.DRAM.Timing()
	c := &Controller{
		mapper:     cfg.Mapper,
		dram:       cfg.DRAM,
		geom:       g,
		timing:     t,
		openPage:   cfg.OpenPage,
		burst:      cfg.BurstCycles,
		bankReady:  make([]uint64, g.Banks),
		lastACT:    make([]uint64, g.Banks),
		busReady:   0,
		nextRef:    t.TREFI,
		nextWindow: t.RefreshWindow,
		enforcer:   cfg.Enforcer,
		plugins:    cfg.Plugins,
		stats:      &sim.Stats{},
	}
	c.interACT = c.stats.NewHistogram("mc.inter_act_cycles", sim.ExpBuckets(8, 2, 16))
	c.service = c.stats.NewHistogram("mc.service_cycles", sim.ExpBuckets(8, 2, 16))
	c.refCtr = c.stats.CounterRef("mc.ref")
	c.requests = c.stats.LazyCounter("mc.requests")
	c.writes = c.stats.LazyCounter("mc.writes")
	c.dmaRequests = c.stats.LazyCounter("mc.dma_requests")
	c.rowHits = c.stats.LazyCounter("mc.row_hits")
	c.rowEmpty = c.stats.LazyCounter("mc.row_empty")
	c.rowConflicts = c.stats.LazyCounter("mc.row_conflicts")
	c.acts = c.stats.LazyCounter("mc.acts")
	c.violations = c.stats.LazyCounter("mc.domain_violations")
	c.throttled = c.stats.LazyCounter("mc.throttled")
	c.throttleCycles = c.stats.LazyCounter("mc.throttle_cycles")
	return c, nil
}

// SetRecorder attaches an event recorder (nil disables recording). The
// recorder is a pure observer: it never changes scheduling, timing or RNG
// consumption.
func (c *Controller) SetRecorder(r *obs.Recorder) { c.rec = r }

// Stats returns the controller's stats registry.
func (c *Controller) Stats() *sim.Stats { return c.stats }

// Release hands the plugins' large arrays (a RateLimiter's per-row
// counters) back for reuse. The controller must not serve requests
// afterwards; releasing twice is a no-op.
func (c *Controller) Release() {
	for _, p := range c.plugins {
		if r, ok := p.(interface{ Release() }); ok {
			r.Release()
		}
	}
}

// Mapper returns the address mapper in use.
func (c *Controller) Mapper() addr.Mapper { return c.mapper }

// Now returns the latest completion cycle the controller has seen.
func (c *Controller) Now() uint64 { return c.now }

// EnableACTCounter configures the per-channel activation counter: overflow
// after threshold ACTs delivers an ACTEvent to handler. precise selects
// the paper's proposed address-reporting mode; legacy mode (precise=false)
// reproduces today's ACT_COUNT PMU events, which carry no address.
func (c *Controller) EnableACTCounter(precise bool, threshold uint64, handler ACTHandler) error {
	if threshold == 0 {
		return fmt.Errorf("memctrl: ACT counter threshold must be > 0")
	}
	c.counter = actCounter{enabled: true, precise: precise, threshold: threshold, handler: handler}
	return nil
}

// ACTOverflows returns how many counter overflow interrupts fired.
func (c *Controller) ACTOverflows() uint64 { return c.counter.overflows }

// SetRefreshPermission installs the privilege check for the refresh
// instruction. nil restores the default (only domain 0, the host OS).
func (c *Controller) SetRefreshPermission(fn func(domain int, line uint64) bool) {
	c.refreshPermitted = fn
}

// permitted applies the host-privilege check of the refresh instruction
// (and of the commands that share it) to domain touching line.
func (c *Controller) permitted(domain int, line uint64) bool {
	if c.refreshPermitted == nil {
		return domain == 0
	}
	return c.refreshPermitted(domain, line)
}

// Enforcer returns the domain enforcer, or nil.
func (c *Controller) Enforcer() *DomainEnforcer { return c.enforcer }

// advanceNextRef moves the refresh deadline one TREFI forward, latching
// refSaturated instead of wrapping: with TREFI == 0 the deadline cannot
// move at all, and near math.MaxUint64 the addition would wrap to a small
// value and re-arm an already-issued deadline — either way the schedule
// would loop forever.
func (c *Controller) advanceNextRef() {
	if n := c.nextRef + c.timing.TREFI; n > c.nextRef {
		c.nextRef = n
	} else {
		c.refSaturated = true
	}
}

// advanceNextWindow is advanceNextRef for the refresh-window boundary.
func (c *Controller) advanceNextWindow() {
	if n := c.nextWindow + c.timing.RefreshWindow; n > c.nextWindow {
		c.nextWindow = n
	} else {
		c.winSaturated = true
	}
}

// minBurstRefs is the span (in REF commands) below which catchUpRefresh
// doesn't bother with the bulk path. Any value is behavior-neutral — the
// bulk and per-REF paths produce identical state — this only keeps the
// bulk setup cost off the common one-REF-behind case during busy traffic.
const minBurstRefs = 4

// catchUpRefresh issues any REF commands scheduled at or before cycle, and
// runs the plugins' OnWindow at refresh-window boundaries. Nearly
// every call finds neither deadline due; that check inlines into the
// request path and the work itself stays out of line.
func (c *Controller) catchUpRefresh(cycle uint64) {
	if c.nextRef > cycle && c.nextWindow > cycle {
		return
	}
	c.catchUpDue(cycle)
}

// catchUpDue is catchUpRefresh's out-of-line body.
//
// When nothing observes individual REF commands — no recorder attached,
// and the module's TRR tracker (if any) quiescent — the whole span is
// applied in closed form via dram.RefreshBurst: one counter addition, one
// sweep advance, and one bank-busy merge to the last REF's tRFC window,
// instead of span/tREFI loop iterations. The final controller and module
// state is byte-identical to the per-REF loop (see RefreshBurst); with a
// recorder or an armed tracker the per-REF path runs so every event is
// emitted at its own cycle and cures fire at their exact REF commands.
func (c *Controller) catchUpDue(cycle uint64) {
	for !c.refSaturated && c.nextRef <= cycle {
		if t := c.timing.TREFI; t > 0 && !c.noBurst && c.rec == nil {
			if n := (cycle-c.nextRef)/t + 1; n >= minBurstRefs {
				// last <= cycle: (n-1)*t <= cycle-nextRef by construction,
				// so this cannot overflow.
				last := c.nextRef + (n-1)*t
				if c.dram.RefreshBurst(n, last) {
					*c.refCtr += int64(n)
					c.occupyForREF(last)
					c.nextRef = last
					c.advanceNextRef()
					continue
				}
			}
		}
		c.dram.Refresh(c.nextRef)
		*c.refCtr++
		c.occupyForREF(c.nextRef)
		c.advanceNextRef()
	}
	if !c.winSaturated && c.nextWindow <= cycle {
		// No ACT can land between two boundaries processed in one
		// catch-up, so k missed boundaries collapse to one call.
		for _, p := range c.plugins {
			p.OnWindow()
		}
		if w := c.timing.RefreshWindow; w == 0 {
			c.winSaturated = true
		} else {
			// Jump to the last boundary at or before cycle, then advance
			// once (saturating) — closed form instead of one iteration
			// per missed window.
			c.nextWindow += ((cycle - c.nextWindow) / w) * w
			c.advanceNextWindow()
		}
	}
}

// occupyForREF keeps every bank and the bus busy through the tRFC window
// of a REF issued at cycle ref.
func (c *Controller) occupyForREF(ref uint64) {
	busyUntil := ref + c.timing.TRFC
	if busyUntil < ref {
		busyUntil = ^uint64(0) // saturate
	}
	for b := range c.bankReady {
		if c.bankReady[b] < busyUntil {
			c.bankReady[b] = busyUntil
		}
	}
	if c.busReady < busyUntil {
		c.busReady = busyUntil
	}
}

// Commands settle schedules either always activate (the refresh
// instruction), never activate (REF_NEIGHBORS), or activate exactly when
// the target row is not already open (ordinary requests, which pass the
// row itself).
const (
	settleACTAlways = -1
	settleNoACT     = -2
)

// settle advances start past every constraint gating a command on the
// bank, iterating to a fixpoint: REF commands scheduled at or before the
// issue cycle are issued first (so a throttle or bank-busy delay that
// crosses a tREFI boundary never causes the REF to be issued after — and
// back-dated behind — the delayed command), then the bank-busy window
// applies, then tRC spacing from the bank's last ACT when the command
// would activate. Each lift can push start across another refresh
// boundary, hence the loop; it terminates because tRFC < tREFI.
func (c *Controller) settle(bank, actRow int, start uint64) uint64 {
	for {
		prev := start
		c.catchUpRefresh(start)
		if br := c.bankReady[bank]; br > start {
			start = br
		}
		if actRow != settleNoACT && (actRow == settleACTAlways || c.dram.OpenRow(bank) != actRow) {
			if last := c.lastACT[bank]; last > 0 && start < last-1+c.timing.TRC {
				start = last - 1 + c.timing.TRC
			}
		}
		if start == prev {
			return start
		}
	}
}

// ServeRequest services one request arriving at the given cycle and
// returns scheduling details. Bit flips caused by any activation are
// visible through the DRAM module's flip observer and counters.
func (c *Controller) ServeRequest(req Request, arrival uint64) (ServiceResult, error) {
	c.catchUpRefresh(arrival)
	d := c.mapper.Map(req.Line)

	var res ServiceResult
	if c.enforcer != nil {
		res.Violation = !c.enforcer.Allowed(req.Domain, d.Row)
		if res.Violation {
			c.violations.Inc()
		}
	}

	start := arrival
	for _, p := range c.plugins {
		if delay := p.Admit(req, d.Bank, d.Row, c.dram.OpenRow(d.Bank) != d.Row, arrival); delay > res.ThrottleDelay {
			res.ThrottleDelay = delay
		}
	}
	if res.ThrottleDelay > 0 {
		c.throttleCycles.Add(int64(res.ThrottleDelay))
		c.throttled.Inc()
		c.rec.Emit(obs.Event{Kind: obs.KindThrottle, Cycle: arrival, Bank: d.Bank, Row: d.Row, Domain: req.Domain, Arg: res.ThrottleDelay})
		start += res.ThrottleDelay
	}

	// Settle the issue cycle, then classify the row-buffer outcome
	// against the post-refresh state (a TRR cure during a caught-up REF
	// can close or change the open row).
	start = c.settle(d.Bank, d.Row, start)
	open := c.dram.OpenRow(d.Bank)
	wouldAct := open != d.Row

	var lat uint64
	outcome := obs.KindRowHit
	switch {
	case !wouldAct:
		lat = c.timing.RowHitLatency()
		res.RowHit = true
		c.rowHits.Inc()
	case open < 0:
		lat = c.timing.RowEmptyLatency()
		c.rowEmpty.Inc()
		outcome = obs.KindRowEmpty
	default:
		lat = c.timing.RowMissLatency()
		c.rowConflicts.Inc()
		outcome = obs.KindRowConflict
	}
	// Guarded here, not only inside Emit: the inlined call would build
	// the Event before its own nil check.
	if c.rec != nil {
		c.rec.Emit(obs.Event{Kind: outcome, Cycle: start, Bank: d.Bank, Row: d.Row, Domain: req.Domain})
	}

	if wouldAct {
		if open >= 0 {
			// The conflict path really closes the old row: issue the PRE
			// so DRAM row-buffer state and the event stream match the
			// RowMissLatency (PRE+ACT+CAS) the controller charges.
			if err := c.dram.Precharge(d.Bank, start); err != nil {
				return ServiceResult{}, err
			}
		}
		if err := c.activate(d.Bank, d.Row, start, req); err != nil {
			return ServiceResult{}, err
		}
		res.Activated = true
	}

	// Serialize data transfer on the shared channel bus.
	dataReady := start + lat
	if c.busReady > dataReady {
		dataReady = c.busReady
	}
	completion := dataReady + c.burst
	c.busReady = completion

	// Merge rather than overwrite: activate's plugin chain may already
	// have charged the bank busy past start+lat.
	if br := start + lat; br > c.bankReady[d.Bank] {
		c.bankReady[d.Bank] = br
	}
	if c.openPage {
		// Row stays open for locality.
	} else {
		if err := c.dram.Precharge(d.Bank, start+lat); err != nil {
			return ServiceResult{}, err
		}
		c.bankReady[d.Bank] += c.timing.TRP
	}

	if completion > c.now {
		c.now = completion
	}
	res.Start = start
	res.Completion = completion
	c.service.ObserveUint(completion - arrival)
	c.requests.Inc()
	if req.Write {
		c.writes.Inc()
	}
	if req.Source.Kind == SourceDMA {
		c.dmaRequests.Inc()
	}
	return res, nil
}

// activate performs the ACT command, then the activation counter, then
// the plugin chain in order.
func (c *Controller) activate(bank, row int, start uint64, req Request) error {
	if _, err := c.dram.Activate(bank, row, start, req.Domain); err != nil {
		return err
	}
	if last := c.lastACT[bank]; last > 0 {
		c.interACT.ObserveUint(start - (last - 1))
	}
	c.lastACT[bank] = start + 1
	c.acts.Inc()

	if c.counter.enabled {
		c.counter.onACT(ACTEvent{
			Cycle:   start,
			HasAddr: true,
			Line:    req.Line,
			Bank:    bank,
			Row:     row,
			Domain:  req.Domain,
			Source:  req.Source,
		}, c.rec)
	}

	var busy uint64
	var err error
	for _, p := range c.plugins {
		var b uint64
		if b, err = p.OnACT(c, bank, row, start); err != nil {
			break
		}
		busy += b
	}
	// The one charge site for mitigation bank time. Known gap: the base is
	// the bank's busy-until before this request, so an idle bank loses it.
	c.bankReady[bank] += busy
	return err
}

// RefreshInstruction implements the proposed host-privileged refresh
// instruction (§4.3): translate line to its row, PRE the bank, ACT the row
// (which recharges it), and optionally PRE again. The ACT is a real
// activation — it disturbs the row's own neighbors, which is exactly why
// the instruction must be privileged.
func (c *Controller) RefreshInstruction(line uint64, autoPrecharge bool, domain int, now uint64) (ServiceResult, error) {
	if !c.permitted(domain, line) {
		c.stats.Inc("mc.refresh_instr_denied")
		return ServiceResult{}, fmt.Errorf("%w (domain %d)", ErrPrivileged, domain)
	}
	c.catchUpRefresh(now)
	d := c.mapper.Map(line)
	start := c.settle(d.Bank, settleACTAlways, now)

	lat := c.timing.TRP + c.timing.TRCD // PRE + ACT settle
	if c.dram.OpenRow(d.Bank) >= 0 {
		// Only an actually-open bank gets the leading PRE command; the
		// charged latency stays the conservative PRE+ACT worst case
		// either way (software cannot see the buffer state, §4.3).
		if err := c.dram.Precharge(d.Bank, start); err != nil {
			return ServiceResult{}, err
		}
	}
	if err := c.activate(d.Bank, d.Row, start, Request{Line: line, Domain: domain, Source: Source{Kind: SourceKernel}}); err != nil {
		return ServiceResult{}, err
	}
	if autoPrecharge {
		if err := c.dram.Precharge(d.Bank, start+lat); err != nil {
			return ServiceResult{}, err
		}
		lat += c.timing.TRP
	}
	if br := start + lat; br > c.bankReady[d.Bank] {
		c.bankReady[d.Bank] = br
	}
	completion := start + lat
	if completion > c.now {
		c.now = completion
	}
	c.stats.Inc("mc.refresh_instr")
	return ServiceResult{Start: start, Completion: completion, Outcome: Outcome{Activated: true}}, nil
}

// UncoreMove implements the §4.2 proposed uncore move instruction: the
// controller copies one line DRAM-to-DRAM through its internal buffers.
// Compared with a software copy the read and the write overlap (they
// are issued with the same arrival, so different banks proceed in
// parallel) and no data crosses to the core or pollutes the cache.
// Host-privileged like the refresh instruction.
func (c *Controller) UncoreMove(src, dst uint64, domain int, now uint64) (ServiceResult, error) {
	if !c.permitted(domain, src) || !c.permitted(domain, dst) {
		return ServiceResult{}, fmt.Errorf("%w (domain %d)", ErrPrivileged, domain)
	}
	rd, err := c.ServeRequest(Request{Line: src, Domain: domain, Source: Source{Kind: SourceKernel}}, now)
	if err != nil {
		return ServiceResult{}, fmt.Errorf("memctrl: uncore move read: %w", err)
	}
	wr, err := c.ServeRequest(Request{Line: dst, Write: true, Domain: domain, Source: Source{Kind: SourceKernel}}, now)
	if err != nil {
		return ServiceResult{}, fmt.Errorf("memctrl: uncore move write: %w", err)
	}
	completion := rd.Completion
	if wr.Completion > completion {
		completion = wr.Completion
	}
	c.stats.Inc("mc.uncore_moves")
	return ServiceResult{Start: now, Completion: completion, Outcome: Outcome{Activated: rd.Activated || wr.Activated}}, nil
}

// RefreshNeighborsCmd issues the optional REF_NEIGHBORS DDR command
// (§4.3): DRAM internally refreshes the potential victims of the line's
// row up to radius rows away. Requires DRAM-side support; exposed so
// defenses can compare against the refresh-instruction path.
func (c *Controller) RefreshNeighborsCmd(line uint64, radius int, domain int, now uint64) (ServiceResult, error) {
	if !c.permitted(domain, line) {
		return ServiceResult{}, fmt.Errorf("%w (domain %d)", ErrPrivileged, domain)
	}
	c.catchUpRefresh(now)
	d := c.mapper.Map(line)
	start := c.settle(d.Bank, settleNoACT, now)
	if err := c.dram.RefreshNeighbors(d.Bank, d.Row, radius, start); err != nil {
		return ServiceResult{}, err
	}
	lat := c.timing.TRC * uint64(2*radius)
	c.bankReady[d.Bank] = start + lat
	completion := start + lat
	if completion > c.now {
		c.now = completion
	}
	c.stats.Inc("mc.ref_neighbors_cmd")
	return ServiceResult{Start: start, Completion: completion}, nil
}

// SetCanceler installs (or, with nil, removes) the cooperative
// cancellation gate honored by long idle advances. The gate never alters
// which commands are issued at which cycles — a cancelled advance issues
// a prefix of the refreshes an uncancelled one would, all fully applied —
// so simulation results are byte-identical whenever the gate stays open.
func (c *Controller) SetCanceler(g *sim.Canceler) { c.gate = g }

// advanceChunkRefs bounds the REF commands issued between cancellation
// polls during an idle advance: a multi-second catch-up (a huge horizon
// jump) observes cancellation within ~1k refresh epochs instead of
// running to completion.
const advanceChunkRefs = 1024

// AdvanceTo runs the refresh schedule forward to cycle without serving any
// request (idle time). With a cancellation gate installed the advance is
// chunked so a cancelled run stops within advanceChunkRefs refresh epochs;
// every refresh issued before the stop is fully applied, leaving
// auditor-consistent state. Without a gate the whole span is handed to
// catchUpRefresh in one call, where the bulk fast path collapses it to a
// handful of operations.
func (c *Controller) AdvanceTo(cycle uint64) {
	if c.gate != nil {
		for !c.refSaturated && c.nextRef <= cycle {
			if c.gate.Tripped() {
				return
			}
			limit := c.nextRef + (advanceChunkRefs-1)*c.timing.TREFI
			if limit > cycle || limit < c.nextRef { // clamp (and guard overflow)
				limit = cycle
			}
			c.catchUpRefresh(limit)
		}
	}
	c.catchUpRefresh(cycle)
	if cycle > c.now {
		c.now = cycle
	}
}

// SetRefreshBurst enables (the default) or disables catchUpRefresh's bulk
// fast path. The two paths produce byte-identical state; the knob exists
// so differential tests and baseline benchmarks can force the per-REF
// reference path.
func (c *Controller) SetRefreshBurst(on bool) { c.noBurst = !on }

// NextEvent returns the next cycle at which the controller (or one of its
// plugins) will change state on its own, with no request arriving: the
// next refresh deadline, each plugin's NextEvent, and the nearest pending
// bank-ready / bus-ready transition. It returns
// math.MaxUint64 when nothing is pending. The value may be conservative
// (an event time at which nothing observable happens) but is never later
// than the next real event — the contract the event-driven scheduler in
// internal/core relies on to fast-forward idle spans.
func (c *Controller) NextEvent() uint64 {
	next := ^uint64(0)
	if !c.refSaturated && c.nextRef < next {
		next = c.nextRef
	}
	window := c.nextWindow
	if c.winSaturated {
		window = ^uint64(0)
	}
	for _, p := range c.plugins {
		if e := p.NextEvent(c.now, window); e < next {
			next = e
		}
	}
	for _, br := range c.bankReady {
		if br > c.now && br < next {
			next = br
		}
	}
	if c.busReady > c.now && c.busReady < next {
		next = c.busReady
	}
	return next
}
