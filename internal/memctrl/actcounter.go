package memctrl

import "hammertime/internal/obs"

// ACTEvent is delivered to the registered interrupt handler when the
// controller's ACT counter overflows its threshold.
//
// In legacy mode (what today's Intel uncore PMUs provide, §4.2) the event
// carries no address: HasAddr is false and system software cannot tell
// which row is being hammered. In precise mode — the paper's proposed
// primitive — the event reports the physical line address of the most
// recent read/write that triggered an activation, plus its decoded bank
// and row.
type ACTEvent struct {
	// Cycle is when the overflow occurred.
	Cycle uint64
	// HasAddr is true in precise mode.
	HasAddr bool
	// Line is the physical line address of the ACT-triggering access
	// (valid only when HasAddr).
	Line uint64
	// Bank and Row are the decoded DDR coordinates (valid only when
	// HasAddr).
	Bank int
	Row  int
	// Domain is the trust domain of the triggering access (valid only
	// when HasAddr; the MC knows it from the request's ASID tag).
	Domain int
	// Source is the agent whose access triggered the ACT. Unlike CPU
	// performance counters, the memory controller sees DMA traffic too.
	Source Source
}

// ACTHandler consumes ACT-counter overflow interrupts. It runs
// synchronously inside request service, like a (fast) interrupt handler;
// it may issue refresh instructions and reconfigure the counter, and must
// return the value to load into the counter next (the host OS resets it
// "to an arbitrary value", optionally randomized, §4.2).
type ACTHandler func(ev ACTEvent) (resetTo uint64)

// actCounter implements the per-channel activation counter with
// host-configurable overflow interrupts.
type actCounter struct {
	enabled   bool
	precise   bool
	threshold uint64
	count     uint64
	handler   ACTHandler
	// inHandler suppresses nested overflow delivery while the handler
	// itself causes activations (its ACTs still count).
	inHandler bool
	overflows uint64
}

// onACT records one activation and fires the handler on overflow. The
// recorder observes each delivered interrupt exactly as the handler sees
// it (legacy-mode deliveries carry no address). The controller calls it
// only while the counter is enabled, so a disabled counter costs no
// ACTEvent.
func (c *actCounter) onACT(ev ACTEvent, rec *obs.Recorder) {
	c.count++
	if c.count < c.threshold || c.inHandler {
		return
	}
	// The hardware counter overflows whether or not software registered a
	// handler: count it and reset, so ACTOverflows and stats snapshots
	// reflect every overflow and count cannot grow without bound.
	c.overflows++
	if !c.precise {
		ev = ACTEvent{Cycle: ev.Cycle, Source: ev.Source}
	}
	if rec.Wants(obs.KindACTInterrupt) {
		out := obs.Event{Kind: obs.KindACTInterrupt, Cycle: ev.Cycle, Bank: -1, Row: -1, Domain: -1}
		if ev.HasAddr {
			out.Bank, out.Row, out.Domain, out.Line = ev.Bank, ev.Row, ev.Domain, ev.Line
		}
		rec.Emit(out)
	}
	if c.handler == nil {
		c.count = 0
		return
	}
	c.inHandler = true
	c.count = c.handler(ev)
	c.inHandler = false
}
