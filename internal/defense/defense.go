// Package defense implements Rowhammer mitigations over the machine model
// of internal/core, organized by the taxonomy of "Stop! Hammer Time"
// (HotOS '21) §2.2:
//
//   - isolation-centric: ZebRAM guard rows, PALLOC bank partitioning, and
//     the paper's subarray-isolated interleaving (§4.1);
//   - frequency-centric: BlockHammer-style in-MC rate limiting, and the
//     paper's precise-ACT-interrupt software responses — page remapping
//     (wear-leveling) and cache-line locking (§4.2);
//   - refresh-centric: in-DRAM TRR, in-MC PARA and Graphene baselines,
//     ANVIL-style counter sampling on legacy hardware, and software
//     targeted refresh over the paper's refresh instruction (§4.3).
//
// Each defense either reconfigures the machine spec (hardware features,
// BIOS options, allocator policy) or attaches software hooks (interrupt
// handlers, daemons), or both.
package defense

import (
	"fmt"
	"sort"

	"hammertime/internal/core"
	"hammertime/internal/dram"
	"hammertime/internal/memctrl"
)

// New returns the named defense with canonical parameters. Names:
//
//	none, trr, trr16, para, graphene, blockhammer, zebram, bankpart,
//	subarray, subarray-noenforce, actremap, actlock, swrefresh,
//	swrefresh-refneighbors, anvil
func New(name string) (core.Defense, error) {
	switch name {
	case "none":
		return None{}, nil
	case "trr":
		return TRR{Config: dram.DefaultTRR()}, nil
	case "trr16":
		cfg := dram.DefaultTRR()
		cfg.TrackerEntries = 16
		return TRR{Config: cfg}, nil
	case "para":
		return PARA{Prob: 0.001}, nil
	case "graphene":
		return Graphene{}, nil
	case "blockhammer":
		return BlockHammer{}, nil
	case "zebram":
		return ZebRAM{}, nil
	case "bankpart":
		return BankPartition{Partitions: 4}, nil
	case "subarray":
		return SubarrayIsolation{Groups: 4, Enforce: true}, nil
	case "subarray-noenforce":
		return SubarrayIsolation{Groups: 4}, nil
	case "actremap":
		return &ACTRemap{}, nil
	case "actlock":
		return &ACTLock{}, nil
	case "swrefresh":
		return &SWRefresh{}, nil
	case "swrefresh-refneighbors":
		return &SWRefresh{UseRefNeighbors: true}, nil
	case "anvil":
		return &ANVIL{}, nil
	case "ecc":
		return ECC{}, nil
	case "ecc-scrub":
		return &ECCScrub{}, nil
	case "refreshx2":
		return RefreshRate{Factor: 2}, nil
	case "refreshx4":
		return RefreshRate{Factor: 4}, nil
	case "actremap-uncore":
		return &ACTRemap{UncoreMove: true}, nil
	default:
		return nil, fmt.Errorf("defense: unknown defense %q (have %v)", name, Names())
	}
}

// Names returns every registered defense name, sorted.
func Names() []string {
	names := []string{
		"none", "trr", "trr16", "para", "graphene", "blockhammer",
		"zebram", "bankpart", "subarray", "subarray-noenforce",
		"actremap", "actlock", "swrefresh", "swrefresh-refneighbors", "anvil",
		"ecc", "ecc-scrub", "refreshx2", "refreshx4", "actremap-uncore",
	}
	sort.Strings(names)
	return names
}

// None is the undefended baseline.
type None struct{}

// Name implements core.Defense.
func (None) Name() string { return "none" }

// Class implements core.Defense.
func (None) Class() core.Class { return core.ClassNone }

// Configure implements core.Defense.
func (None) Configure(*core.MachineSpec) error { return nil }

// Attach implements core.Defense.
func (None) Attach(*core.Machine) error { return nil }

// ECC enables SECDED (72,64) protection. It is not a Rowhammer defense
// proper — Cojocar et al. [12] showed multi-flip words bypass it — but it
// reshapes outcomes: single flips per word are corrected, double flips
// crash the machine (DoS), triples can silently corrupt. Experiment E9
// measures exactly that hierarchy.
type ECC struct{}

// Name implements core.Defense.
func (ECC) Name() string { return "ecc(secded)" }

// Class implements core.Defense.
func (ECC) Class() core.Class { return core.ClassInDRAM }

// Configure implements core.Defense.
func (ECC) Configure(spec *core.MachineSpec) error {
	spec.ECC = true
	return nil
}

// Attach implements core.Defense.
func (ECC) Attach(*core.Machine) error { return nil }

// RefreshRate multiplies the baseline refresh rate — the first mitigation
// vendors deployed after Kim et al. ISCA'14. Halving/quartering the
// refresh window halves/quarters the attacker's per-window ACT budget,
// but the budget needed at modern MACs is reached in well under even a
// 16 ms window, so the mitigation stopped scaling generations ago (§3) —
// while its REF overhead (tRFC stalls, refresh energy) scales linearly.
type RefreshRate struct {
	Factor int
}

// Name implements core.Defense.
func (d RefreshRate) Name() string { return fmt.Sprintf("refresh-x%d", d.Factor) }

// Class implements core.Defense.
func (RefreshRate) Class() core.Class { return core.ClassRefresh }

// Configure implements core.Defense.
func (d RefreshRate) Configure(spec *core.MachineSpec) error {
	if d.Factor < 2 {
		return fmt.Errorf("defense: refresh rate factor %d, need >= 2", d.Factor)
	}
	f := uint64(d.Factor)
	spec.Timing.TREFI /= f
	spec.Timing.RefreshWindow /= f
	if err := spec.Timing.Validate(); err != nil {
		return fmt.Errorf("defense: refresh-x%d: %w", d.Factor, err)
	}
	return nil
}

// Attach implements core.Defense.
func (RefreshRate) Attach(*core.Machine) error { return nil }

// TRR enables the vendor-style in-DRAM blackbox tracker (§3): it defeats
// attacks with at most TrackerEntries aggressors and is bypassed by
// many-sided attacks — the TRRespass result.
type TRR struct {
	Config dram.TRRConfig
}

// Name implements core.Defense.
func (d TRR) Name() string { return fmt.Sprintf("trr(n=%d)", d.Config.TrackerEntries) }

// Class implements core.Defense.
func (TRR) Class() core.Class { return core.ClassInDRAM }

// Configure implements core.Defense.
func (d TRR) Configure(spec *core.MachineSpec) error {
	cfg := d.Config
	if cfg.RefreshRadius < spec.Profile.BlastRadius {
		// The vendor knows its own technology's blast radius and cures
		// that far (the tracker capacity, not the radius, is the flaw).
		cfg.RefreshRadius = spec.Profile.BlastRadius
	}
	spec.TRR = &cfg
	return nil
}

// Attach implements core.Defense.
func (TRR) Attach(*core.Machine) error { return nil }

// PARA enables probabilistic adjacent-row activation in the controller
// (Kim et al., ISCA'14): each ACT refreshes a random neighbor with
// probability Prob. Stateless, but its protection weakens as the MAC
// shrinks unless Prob (and thus overhead) rises.
type PARA struct {
	// Prob is the per-ACT refresh probability (0 means 0.001).
	Prob float64
	// Radius is the neighbor radius (0 means the profile's blast radius).
	Radius int
}

// Name implements core.Defense.
func (d PARA) Name() string { return fmt.Sprintf("para(p=%g)", d.prob()) }

func (d PARA) prob() float64 {
	if d.Prob == 0 {
		return 0.001
	}
	return d.Prob
}

// Class implements core.Defense.
func (PARA) Class() core.Class { return core.ClassInMC }

// Configure implements core.Defense.
func (d PARA) Configure(spec *core.MachineSpec) error {
	spec.PARAProb = d.prob()
	spec.PARARadius = d.Radius
	if d.Radius == 0 {
		spec.PARARadius = spec.Profile.BlastRadius
	}
	return nil
}

// Attach implements core.Defense.
func (PARA) Attach(*core.Machine) error { return nil }

// Graphene enables the in-MC Misra-Gries tracker baseline (Park et al.,
// MICRO'20). Entries=0 sizes the table for complete protection at the
// spec's MAC — the SRAM cost that scales badly with density (§3);
// Threshold=0 means MAC/4. The radius is the profile's blast radius.
type Graphene struct {
	Entries   int
	Threshold uint64
}

// Name implements core.Defense.
func (d Graphene) Name() string { return "graphene" }

// Class implements core.Defense.
func (Graphene) Class() core.Class { return core.ClassInMC }

// Configure implements core.Defense.
func (d Graphene) Configure(spec *core.MachineSpec) error {
	th := d.Threshold
	if th == 0 {
		// MAC/4 leaves margin for multiple aggressors summing at a victim.
		th = spec.Profile.MAC / 4
		if th == 0 {
			return fmt.Errorf("defense: graphene threshold underflow (MAC %d)", spec.Profile.MAC)
		}
	}
	entries := d.Entries
	if entries == 0 {
		entries = memctrl.RequiredEntries(spec.Timing.MaxActsPerWindowPerBank(), th)
	}
	spec.Graphene = &core.GrapheneSpec{Entries: entries, Threshold: th, Radius: spec.Profile.BlastRadius}
	return nil
}

// Attach implements core.Defense.
func (Graphene) Attach(*core.Machine) error { return nil }

// BlockHammer enables the in-MC admission-control rate limiter
// (Yağlıkçı et al., HPCA'21): no row may be activated more than the
// budget within a refresh window; suspects are delayed, benign traffic
// mostly unaffected.
type BlockHammer struct {
	// MaxActsPerWindow is the per-row budget (0 means MAC/4).
	MaxActsPerWindow uint64
	// WatchThreshold starts throttling after this count (0 means budget/2).
	WatchThreshold uint64
}

// Name implements core.Defense.
func (BlockHammer) Name() string { return "blockhammer" }

// Class implements core.Defense.
func (BlockHammer) Class() core.Class { return core.ClassFrequency }

// Configure implements core.Defense.
func (d BlockHammer) Configure(spec *core.MachineSpec) error {
	spec.RateLimit = &core.RateLimitSpec{
		MaxActsPerWindow: d.MaxActsPerWindow,
		WatchThreshold:   d.WatchThreshold,
	}
	return nil
}

// Attach implements core.Defense.
func (BlockHammer) Attach(*core.Machine) error { return nil }

// ZebRAM applies guard-row allocation (Konoth et al., OSDI'18): every
// allocated row is separated from every other by blast-radius guard rows.
// Complete — including intra-domain — but sacrifices 1-1/(b+1) of
// capacity and all row-level locality between pages.
type ZebRAM struct {
	// Radius overrides the guard spacing (0 means the profile's blast
	// radius).
	Radius int
}

// Name implements core.Defense.
func (ZebRAM) Name() string { return "zebram" }

// Class implements core.Defense.
func (ZebRAM) Class() core.Class { return core.ClassIsolation }

// Configure implements core.Defense.
func (d ZebRAM) Configure(spec *core.MachineSpec) error {
	spec.Alloc = core.AllocGuardRow
	spec.GuardRadius = d.Radius
	return nil
}

// Attach implements core.Defense.
func (ZebRAM) Attach(*core.Machine) error { return nil }

// BankPartition applies PALLOC-style bank-aware allocation: the BIOS
// disables bank interleaving and each domain gets private banks. No
// cross-domain pairs — but the §4.1 objection applies: every domain loses
// bank-level parallelism (measured in experiment E2).
type BankPartition struct {
	Partitions int
}

// Name implements core.Defense.
func (d BankPartition) Name() string { return fmt.Sprintf("bankpart(%d)", d.Partitions) }

// Class implements core.Defense.
func (BankPartition) Class() core.Class { return core.ClassIsolation }

// Configure implements core.Defense.
func (d BankPartition) Configure(spec *core.MachineSpec) error {
	if d.Partitions <= 0 {
		return fmt.Errorf("defense: bank partition needs > 0 partitions")
	}
	spec.Interleave = core.InterleaveRowRegion
	spec.Alloc = core.AllocBankAware
	spec.BankPartitions = d.Partitions
	return nil
}

// Attach implements core.Defense.
func (BankPartition) Attach(*core.Machine) error { return nil }

// SubarrayIsolation applies the paper's §4.1 primitive: subarray-isolated
// interleaving plus subarray-aware allocation, with optional MC-side
// domain enforcement. Domains keep full bank-level parallelism while
// being electromagnetically isolated from each other.
type SubarrayIsolation struct {
	Groups  int
	Enforce bool
}

// Name implements core.Defense.
func (d SubarrayIsolation) Name() string {
	if d.Enforce {
		return fmt.Sprintf("subarray(%d,enforced)", d.Groups)
	}
	return fmt.Sprintf("subarray(%d)", d.Groups)
}

// Class implements core.Defense.
func (SubarrayIsolation) Class() core.Class { return core.ClassIsolation }

// Configure implements core.Defense.
func (d SubarrayIsolation) Configure(spec *core.MachineSpec) error {
	if d.Groups <= 0 {
		return fmt.Errorf("defense: subarray isolation needs > 0 groups")
	}
	spec.SubarrayGroups = d.Groups
	spec.Alloc = core.AllocSubarrayAware
	spec.EnforceDomains = d.Enforce
	return nil
}

// Attach implements core.Defense.
func (SubarrayIsolation) Attach(*core.Machine) error { return nil }
