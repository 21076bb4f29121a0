package memctrl

// Plugin is one in-controller mitigation in Config.Plugins, the ordered
// chain of the hardware baselines the paper compares against (Table 1,
// §2.2): PARA, Graphene and the BlockHammer rate limiter. The controller
// calls each hook down the chain and keeps the generic work itself: it
// applies and counts the admission delay, and it charges the chain's bank
// time at one site. On an activating request the order is Admit, the
// DRAM ACT, the §4.2 ACT counter (whose handler may issue nested refresh
// instructions), then OnACT.
type Plugin interface {
	// Admit returns the extra cycles a request arriving at now must wait;
	// wouldAct says whether its service will activate (bank, row). The
	// request waits for the longest delay any plugin asks for.
	Admit(req Request, bank, row int, wouldAct bool, now uint64) uint64
	// OnACT acts on the activation of (bank, row) at start and returns
	// the bank cycles its mitigation occupied.
	OnACT(c *Controller, bank, row int, start uint64) (busy uint64, err error)
	// OnWindow runs at refresh-window boundaries: once per catch-up,
	// however many boundaries it crossed (no ACT lands between them).
	OnWindow()
	// NextEvent returns the next cycle after now at which the plugin
	// changes state with no request arriving (early is harmless, late is
	// not), or math.MaxUint64 when nothing is pending. window is the
	// controller's next refresh-window boundary (math.MaxUint64 once that
	// schedule has saturated).
	NextEvent(now, window uint64) uint64
}
