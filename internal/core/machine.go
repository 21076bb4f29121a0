// Package core assembles the simulated machine — DRAM module, memory
// controller, cache, cores/DMA, host kernel — and runs deterministic
// multi-agent simulations over it. It also defines the Defense interface
// and the paper's mitigation taxonomy (§2.2): isolation-centric,
// frequency-centric and refresh-centric.
package core

import (
	"fmt"

	"hammertime/internal/addr"
	"hammertime/internal/cache"
	"hammertime/internal/check"
	"hammertime/internal/dram"
	"hammertime/internal/hostos"
	"hammertime/internal/memctrl"
	"hammertime/internal/obs"
	"hammertime/internal/sim"
)

// Class is the paper's taxonomy of Rowhammer mitigations plus the
// hardware-baseline classes used for comparison.
type Class int

const (
	// ClassNone is the undefended baseline.
	ClassNone Class = iota
	// ClassIsolation removes cross-domain aggressor-victim pairs (§2.2).
	ClassIsolation
	// ClassFrequency prevents dangerously-frequent ACTs (§2.2).
	ClassFrequency
	// ClassRefresh refreshes potential victims before they flip (§2.2).
	ClassRefresh
	// ClassInDRAM marks blackbox in-DRAM baselines (TRR).
	ClassInDRAM
	// ClassInMC marks in-memory-controller hardware baselines
	// (PARA, Graphene, BlockHammer).
	ClassInMC
)

// String returns the class name.
func (c Class) String() string {
	switch c {
	case ClassNone:
		return "none"
	case ClassIsolation:
		return "isolation"
	case ClassFrequency:
		return "frequency"
	case ClassRefresh:
		return "refresh"
	case ClassInDRAM:
		return "in-dram"
	case ClassInMC:
		return "in-mc"
	default:
		return fmt.Sprintf("Class(%d)", int(c))
	}
}

// InterleaveKind selects the BIOS-configured address mapping.
type InterleaveKind int

const (
	// InterleaveLine spreads consecutive lines across banks (default).
	InterleaveLine InterleaveKind = iota
	// InterleaveRowRegion disables bank interleaving (each bank owns a
	// contiguous region) — what bank-aware allocation requires.
	InterleaveRowRegion
	// InterleaveXOR is line interleaving with XOR bank permutation.
	InterleaveXOR
)

// AllocKind selects the host page-allocation policy.
type AllocKind int

const (
	// AllocLinear is the Rowhammer-oblivious default.
	AllocLinear AllocKind = iota
	// AllocBankAware confines each domain to its own banks (PALLOC).
	AllocBankAware
	// AllocGuardRow separates all data rows by guard rows (ZebRAM).
	AllocGuardRow
	// AllocSubarrayAware confines each domain to a subarray group (§4.1).
	AllocSubarrayAware
)

// RateLimitSpec configures the BlockHammer-style admission controller.
// MaxActsPerWindow 0 means MAC/4.
type RateLimitSpec struct {
	MaxActsPerWindow uint64
	WatchThreshold   uint64
}

// GrapheneSpec configures the in-MC Misra-Gries tracker baseline, used as
// given (defense.Graphene derives it from the profile and timing).
type GrapheneSpec struct {
	Entries   int
	Threshold uint64
	Radius    int
}

// MachineSpec is the buildable description of a machine. Defenses mutate
// it in Configure before the machine is built.
type MachineSpec struct {
	Geometry dram.Geometry
	Timing   dram.Timing
	Profile  dram.DisturbanceProfile
	Seed     uint64

	// TRR enables the in-DRAM blackbox baseline.
	TRR *dram.TRRConfig
	// ECC enables SECDED (72,64) protection in the module (the Cojocar
	// et al. threat-landscape baseline; experiment E9).
	ECC bool

	Interleave InterleaveKind
	// SubarrayGroups > 0 wraps the interleave with subarray-isolated
	// interleaving over that many groups (§4.1).
	SubarrayGroups int
	// EnforceDomains installs the MC-side domain/group check (§4.1).
	EnforceDomains bool

	Alloc AllocKind
	// BankPartitions is the partition count for AllocBankAware.
	BankPartitions int
	// GuardRadius is the guard-row spacing for AllocGuardRow
	// (0 means the profile's blast radius).
	GuardRadius int

	// PARAProb > 0 enables PARA with that per-ACT probability.
	PARAProb   float64
	PARARadius int

	Graphene  *GrapheneSpec
	RateLimit *RateLimitSpec

	Cache cache.Config
	// ClosedPage auto-precharges after every access (ablation).
	ClosedPage bool
}

// DefaultSpec returns an undefended machine: default geometry and DDR4
// timing, old-DDR4 susceptibility, line interleaving, linear allocation.
func DefaultSpec() MachineSpec {
	return MachineSpec{
		Geometry: dram.DefaultGeometry(),
		Timing:   dram.DDR4Timing(),
		Profile:  dram.DDR4Old(),
		Cache:    cache.DefaultConfig(),
		Seed:     1,
	}
}

// Agent is anything the runner can schedule: cores, DMA devices, and
// defense daemons. Step executes the agent's next action beginning at
// cycle now and returns when the agent is next ready; ok=false means the
// agent has finished.
type Agent interface {
	Step(now uint64) (next uint64, ok bool, err error)
	Done() bool
}

// Machine is a fully-wired simulated host.
type Machine struct {
	Spec   MachineSpec
	DRAM   *dram.Module
	MC     *memctrl.Controller
	Cache  *cache.Cache
	Kernel *hostos.Kernel
	Mapper addr.Mapper
	RNG    *sim.RNG

	daemons []Agent
	rec     *obs.Recorder
	aud     *check.Auditor

	// Flip accounting (attributed via the kernel's ownership tables).
	flips           uint64
	crossFlips      uint64
	mitigationFlips uint64
	byVictim        map[int]uint64
	byAggressor     map[int]uint64
	unattributed    uint64
}

// NewMachine builds and wires a machine from spec.
func NewMachine(spec MachineSpec) (*Machine, error) {
	if spec.Geometry == (dram.Geometry{}) {
		spec.Geometry = dram.DefaultGeometry()
	}
	if spec.Timing == (dram.Timing{}) {
		spec.Timing = dram.DDR4Timing()
	}
	if spec.Profile == (dram.DisturbanceProfile{}) {
		spec.Profile = dram.DDR4Old()
	}
	if spec.Cache == (cache.Config{}) {
		spec.Cache = cache.DefaultConfig()
	}

	mod, err := dram.NewModule(dram.Config{
		Geometry: spec.Geometry,
		Timing:   spec.Timing,
		Profile:  spec.Profile,
		TRR:      spec.TRR,
		ECC:      spec.ECC,
		Seed:     spec.Seed,
	})
	if err != nil {
		return nil, fmt.Errorf("core: build DRAM: %w", err)
	}

	var mapper addr.Mapper
	switch spec.Interleave {
	case InterleaveLine:
		mapper = addr.NewLineInterleave(spec.Geometry)
	case InterleaveRowRegion:
		mapper = addr.NewRowRegion(spec.Geometry)
	case InterleaveXOR:
		mapper, err = addr.NewXORInterleave(spec.Geometry)
		if err != nil {
			return nil, fmt.Errorf("core: build mapper: %w", err)
		}
	default:
		return nil, fmt.Errorf("core: unknown interleave kind %d", spec.Interleave)
	}

	var enforcer *memctrl.DomainEnforcer
	if spec.SubarrayGroups > 0 {
		part, err := addr.NewPartition(spec.Geometry, spec.SubarrayGroups)
		if err != nil {
			return nil, fmt.Errorf("core: subarray partition: %w", err)
		}
		iso, err := addr.NewSubarrayIsolated(mapper, part)
		if err != nil {
			return nil, fmt.Errorf("core: subarray-isolated mapper: %w", err)
		}
		mapper = iso
		if spec.EnforceDomains {
			enforcer = memctrl.NewDomainEnforcer(part)
		}
	}

	// In-controller mitigations, in chain order.
	var plugins []memctrl.Plugin
	if spec.PARAProb != 0 {
		para, err := memctrl.NewPARA(spec.PARAProb, spec.PARARadius, spec.Seed)
		if err != nil {
			return nil, fmt.Errorf("core: build controller: %w", err)
		}
		plugins = append(plugins, para)
	}
	if g := spec.Graphene; g != nil {
		plugins = append(plugins, memctrl.NewGraphene(spec.Geometry.Banks, g.Entries, g.Threshold, g.Radius))
	}
	if spec.RateLimit != nil {
		rl := *spec.RateLimit
		if rl.MaxActsPerWindow == 0 {
			// MAC/4 leaves margin for multiple aggressors summing at a victim.
			rl.MaxActsPerWindow = spec.Profile.MAC / 4
		}
		plugins = append(plugins, memctrl.NewRateLimiter(spec.Geometry, rl.MaxActsPerWindow, spec.Timing.RefreshWindow, rl.WatchThreshold))
	}

	mc, err := memctrl.NewController(memctrl.Config{
		Mapper:   mapper,
		DRAM:     mod,
		OpenPage: !spec.ClosedPage,
		Enforcer: enforcer,
		Plugins:  plugins,
	})
	if err != nil {
		return nil, fmt.Errorf("core: build controller: %w", err)
	}

	llc, err := cache.New(spec.Cache)
	if err != nil {
		return nil, fmt.Errorf("core: build cache: %w", err)
	}

	var alloc hostos.Allocator
	switch spec.Alloc {
	case AllocLinear:
		alloc = hostos.NewLinear(spec.Geometry)
	case AllocBankAware:
		n := spec.BankPartitions
		if n == 0 {
			n = 4
		}
		alloc, err = hostos.NewBankAware(mapper, n)
		if err != nil {
			return nil, fmt.Errorf("core: bank-aware allocator: %w", err)
		}
	case AllocGuardRow:
		r := spec.GuardRadius
		if r == 0 {
			r = spec.Profile.BlastRadius
		}
		alloc, err = hostos.NewGuardRow(mapper, r)
		if err != nil {
			return nil, fmt.Errorf("core: guard-row allocator: %w", err)
		}
	case AllocSubarrayAware:
		iso, ok := mapper.(*addr.SubarrayIsolated)
		if !ok {
			return nil, fmt.Errorf("core: subarray-aware allocation requires SubarrayGroups > 0")
		}
		alloc, err = hostos.NewSubarrayAware(iso)
		if err != nil {
			return nil, fmt.Errorf("core: subarray-aware allocator: %w", err)
		}
	default:
		return nil, fmt.Errorf("core: unknown allocator kind %d", spec.Alloc)
	}

	kern, err := hostos.NewKernel(mc, alloc)
	if err != nil {
		return nil, fmt.Errorf("core: build kernel: %w", err)
	}

	m := &Machine{
		Spec:        spec,
		DRAM:        mod,
		MC:          mc,
		Cache:       llc,
		Kernel:      kern,
		Mapper:      mapper,
		RNG:         sim.NewRNG(spec.Seed),
		byVictim:    make(map[int]uint64),
		byAggressor: make(map[int]uint64),
	}
	mod.SetFlipObserver(m.onFlip)
	if CheckingEnabled() {
		m.aud = check.New(check.Config{
			Geometry: spec.Geometry,
			Timing:   spec.Timing,
			Profile:  spec.Profile,
		})
		if enforcer != nil {
			m.aud.SetEnforcer(enforcer)
		}
		// Attach from cycle 0 so setup traffic, direct controller driving
		// and seeded disturbance are all in the shadow model.
		m.SetRecorder(nil)
	}
	return m, nil
}

// Release hands the machine's large working arrays — the LLC's way
// state, the DRAM module's per-row state, the rate limiter's per-row
// counters and the kernel's frame-owner table — back to their free
// lists, so the next machine of the same geometry reuses them instead of
// allocating. Call it once the machine's results have been read; the
// machine must not be used afterwards (an LLC access or DRAM activation
// panics). Skipping it is safe, only slower. Releasing twice is a no-op.
func (m *Machine) Release() {
	m.Cache.Release()
	m.DRAM.Release()
	m.MC.Release()
	m.Kernel.Release()
}

// SetRecorder threads an event recorder through every component of the
// machine: DRAM commands, memory-controller scheduling, cache line
// locking (timestamped with the controller's clock), and kernel page
// migrations. Software defenses read the recorder lazily via Recorder(),
// so attaching it before or after BuildWithDefense both work. nil
// detaches. Recording is observer-only — simulation results are
// byte-identical with or without it.
func (m *Machine) SetRecorder(r *obs.Recorder) {
	m.rec = r
	eff := r
	if m.aud != nil {
		// The invariant auditor stays first in the chain whatever the
		// user attaches or detaches; it forwards to r (mask-filtered).
		eff = m.aud.Chain(r)
	}
	m.DRAM.SetRecorder(eff)
	m.MC.SetRecorder(eff)
	m.Kernel.SetRecorder(eff)
	m.Cache.SetRecorder(eff, m.MC.Now)
}

// Recorder returns the user-attached event recorder (nil when detached).
// The invariant auditor's internal chaining is not visible here.
func (m *Machine) Recorder() *obs.Recorder { return m.rec }

// Auditor returns the machine's invariant auditor, or nil when checking
// is disabled.
func (m *Machine) Auditor() *check.Auditor { return m.aud }

// CheckInvariants verifies the auditor's online invariants and the
// end-of-run shadow/state agreement. It is a no-op (nil) when checking
// is disabled. Run calls it automatically at the end of every run;
// experiments that drive the controller directly call it themselves.
func (m *Machine) CheckInvariants() error {
	if m.aud == nil {
		return nil
	}
	if err := m.aud.Verify(m.DRAM, m.MC); err != nil {
		return fmt.Errorf("core: invariant check: %w", err)
	}
	return nil
}

// onFlip attributes every bit flip to aggressor and victim domains. The
// aggressor domain is known exactly: the memory controller tags each
// activation with the requesting domain (ASID).
func (m *Machine) onFlip(ev dram.FlipEvent) {
	m.flips++
	if ev.ActorDomain < 0 {
		// Caused by an internal mitigation activation (e.g. an
		// ACT-based TRR cure) — the Half-Double relay (E10).
		m.mitigationFlips++
	}
	aggressor := ev.ActorDomain
	victim, cross := m.Kernel.ReportFlip(ev, aggressor)
	if victim < 0 {
		m.unattributed++
		return
	}
	m.byVictim[victim]++
	if aggressor >= 0 {
		m.byAggressor[aggressor]++
	}
	if cross && aggressor >= 0 {
		m.crossFlips++
	}
}

// Flips returns total observed bit flips.
func (m *Machine) Flips() uint64 { return m.flips }

// CrossDomainFlips returns flips whose victim domain differed from the
// (unique) aggressor domain — the cloud-provider disaster metric.
func (m *Machine) CrossDomainFlips() uint64 { return m.crossFlips }

// MitigationFlips returns flips caused by mitigation-internal
// activations rather than any domain's accesses (the Half-Double relay).
func (m *Machine) MitigationFlips() uint64 { return m.mitigationFlips }

// FlipsByVictim returns per-victim-domain flip counts.
func (m *Machine) FlipsByVictim() map[int]uint64 { return m.byVictim }

// AddDaemon registers a defense daemon agent included in every Run.
func (m *Machine) AddDaemon(a Agent) { m.daemons = append(m.daemons, a) }

// Daemons returns the registered daemon agents.
func (m *Machine) Daemons() []Agent { return m.daemons }

// Defense is a pluggable mitigation. Configure adjusts the hardware spec
// before the machine is built (BIOS options, in-MC/in-DRAM features);
// Attach installs software hooks (interrupt handlers, daemons) afterward.
type Defense interface {
	Name() string
	Class() Class
	Configure(spec *MachineSpec) error
	Attach(m *Machine) error
}

// BuildWithDefense constructs a machine with the defense applied
// (nil defense builds the spec unchanged).
func BuildWithDefense(spec MachineSpec, d Defense) (*Machine, error) {
	if d != nil {
		if err := d.Configure(&spec); err != nil {
			return nil, fmt.Errorf("core: configure defense %s: %w", d.Name(), err)
		}
	}
	m, err := NewMachine(spec)
	if err != nil {
		return nil, err
	}
	if d != nil {
		if err := d.Attach(m); err != nil {
			return nil, fmt.Errorf("core: attach defense %s: %w", d.Name(), err)
		}
	}
	return m, nil
}
