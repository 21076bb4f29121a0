package memctrl

import "hammertime/internal/obs"

// Graphene is the in-controller hardware baseline of Park et al.
// (MICRO'20): a Misra-Gries frequency summary over row activations that
// issues a targeted neighbor refresh whenever a row's estimated count
// crosses a threshold. Correct protection requires one table entry per
// threshold-quantum of the per-window ACT budget — SRAM/CAM area that
// grows as the MAC shrinks (the §3 scaling problem the paper highlights;
// experiment E3 reports this cost model).
type Graphene struct {
	// Entries is the Misra-Gries table size per bank.
	Entries int
	// Threshold is the estimated-count trigger for a neighbor refresh
	// (typically MAC/2 to tolerate estimation slack).
	Threshold uint64
	// Radius is the neighbor refresh radius.
	Radius int

	tables [][]mgEntry
	spill  []uint64 // per-bank Misra-Gries decrement floor
}

// mgEntry is one Misra-Gries table slot. The table is a flat slice of at
// most Entries slots per bank — a CAM, like the SRAM structure it models —
// so the per-ACT path is a short linear scan with no map hashing and no
// allocation in the steady state.
type mgEntry struct {
	row   int
	count uint64
}

// NewGraphene returns a tracker with the given per-bank table size,
// trigger threshold and refresh radius.
func NewGraphene(banks, entries int, threshold uint64, radius int) *Graphene {
	// A bank's table grows to the rows it actually tracks, never past
	// entries: short runs touch a few rows of a table sized for a full
	// refresh window's ACT budget.
	return &Graphene{
		Entries:   entries,
		Threshold: threshold,
		Radius:    radius,
		tables:    make([][]mgEntry, banks),
		spill:     make([]uint64, banks),
	}
}

// RequiredEntries returns the table size Graphene needs per bank for
// complete protection: the per-window per-bank ACT budget divided by the
// threshold. This is the SRAM-cost model of experiment E3.
func RequiredEntries(actBudgetPerWindow, threshold uint64) int {
	if threshold == 0 {
		return 0
	}
	return int((actBudgetPerWindow + threshold - 1) / threshold)
}

// Admit implements Plugin: Graphene never delays a request.
func (*Graphene) Admit(Request, int, int, bool, uint64) uint64 { return 0 }

// OnACT implements Plugin: when the tracker fires it refreshes the hot
// row's neighbors within Radius, occupying the bank for 2·Radius·tRC.
func (g *Graphene) OnACT(c *Controller, bank, row int, start uint64) (uint64, error) {
	hot := g.track(bank, row)
	if hot < 0 {
		return 0, nil
	}
	c.rec.Emit(obs.Event{Kind: obs.KindGrapheneTrigger, Cycle: start, Bank: bank, Row: hot, Domain: -1})
	if err := c.dram.RefreshNeighbors(bank, hot, g.Radius, start); err != nil {
		return 0, err
	}
	c.stats.Inc("mc.graphene_refreshes")
	return c.timing.TRC * uint64(2*g.Radius), nil
}

// track feeds one activation; it returns the row to neighbor-refresh
// (>= 0) when the threshold fires, or -1.
func (g *Graphene) track(bank, row int) int {
	t := g.tables[bank]
	idx := -1
	for i := range t {
		if t[i].row == row {
			idx = i
			break
		}
	}
	switch {
	case idx >= 0:
		t[idx].count++
	case len(t) < g.Entries:
		idx = len(t)
		t = append(t, mgEntry{row: row, count: g.spill[bank] + 1})
		g.tables[bank] = t
	default:
		// Misra-Gries: raise the floor instead of decrementing every
		// entry; evict entries at the floor.
		g.spill[bank]++
		w := 0
		for _, e := range t {
			if e.count > g.spill[bank] {
				t[w] = e
				w++
			}
		}
		g.tables[bank] = t[:w]
		return -1
	}
	if t[idx].count-g.spill[bank] >= g.Threshold {
		// Trigger: refresh neighbors and rearm the entry.
		t[idx].count = g.spill[bank]
		return row
	}
	return -1
}

// OnWindow implements Plugin: it clears the tables at refresh-window
// boundaries, keeping the allocated slots for reuse. A reset is a pure,
// idempotent clear, so one call covers any number of missed boundaries.
func (g *Graphene) OnWindow() {
	for i := range g.tables {
		g.tables[i] = g.tables[i][:0]
		g.spill[i] = 0
	}
}

// NextEvent implements Plugin: the tables reset at the next window.
func (*Graphene) NextEvent(_, window uint64) uint64 { return window }
