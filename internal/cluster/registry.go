package cluster

import (
	"sort"
	"sync"
	"time"

	"hammertime/internal/cluster/resilience"
)

// Registry tracks the worker fleet by heartbeat. Workers self-register
// (POST /v1/cluster/register) and re-register on an interval; an entry
// whose heartbeat is older than the TTL is treated as dead and skipped
// by dispatch.
//
// Health beyond liveness is a per-worker circuit breaker (the old binary
// fail mark's replacement): dispatch reports each batch outcome, a
// worker accumulating Threshold consecutive failures opens its breaker
// and leaves the live set, and after the cooldown it half-opens — the
// dispatcher routes it exactly one probe batch, whose outcome either
// closes the breaker or re-opens it. A heartbeat refreshes liveness but
// deliberately does NOT reset the breaker: a worker that keeps failing
// batches while heartbeating happily is precisely the failure mode the
// breaker exists for.
//
// Quarantine is the harshest state, reserved for workers caught
// returning corrupt bytes: their heartbeats are ignored outright for the
// penalty window (re-registering under the same name cannot shortcut
// it), and when the window ends the breaker requires a clean probe batch
// before real traffic resumes.
//
// The registry is bounded: entries silent for SweepAfter×TTL are swept
// on registration, so flapping workers re-registering under fresh names
// cannot grow the map forever. Quarantined entries survive the sweep
// until their penalty expires — eviction must not launder a quarantine.
type Registry struct {
	ttl        time.Duration
	breakerCfg resilience.BreakerConfig
	sweepAfter int
	now        func() time.Time // test hook

	mu      sync.Mutex
	workers map[string]*regEntry
	evicted int64
}

// RegistryConfig parametrizes a Registry; zero values get defaults.
type RegistryConfig struct {
	// TTL is the heartbeat time-to-live (0 = 15s).
	TTL time.Duration
	// Breaker configures every worker's circuit breaker.
	Breaker resilience.BreakerConfig
	// SweepAfter×TTL of silence deletes an entry (0 = 8; <0 disables
	// sweeping).
	SweepAfter int
}

type regEntry struct {
	addr             string
	slots            int
	lastSeen         time.Time
	breaker          *resilience.Breaker
	quarantinedUntil time.Time
}

// Worker is one live registry entry as dispatch sees it.
type Worker struct {
	Name string
	Addr string
	// Slots is how many batch RPCs the worker may hold at once: the cores
	// it advertised, or 1 while it is a probe.
	Slots int
	// Probe marks a half-open worker: the dispatcher routes it at most
	// one batch per round until its breaker closes again.
	Probe bool
}

// NewRegistryConfig builds a registry, filling config defaults.
func NewRegistryConfig(cfg RegistryConfig) *Registry {
	if cfg.TTL <= 0 {
		cfg.TTL = 15 * time.Second
	}
	if cfg.SweepAfter == 0 {
		cfg.SweepAfter = 8
	}
	return &Registry{
		ttl:        cfg.TTL,
		breakerCfg: cfg.Breaker,
		sweepAfter: cfg.SweepAfter,
		now:        time.Now,
		workers:    make(map[string]*regEntry),
	}
}

// Register adds or refreshes a worker with the number of batches it runs
// at once (below 1 counts as 1). It reports whether the heartbeat was
// accepted: a quarantined worker's heartbeats are ignored (false) until
// its penalty window ends. Accepting a heartbeat refreshes liveness and
// slots only — breaker state recovers through probe batches, not through
// the worker's own claim that it is fine.
func (r *Registry) Register(name, addr string, slots int) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	r.sweepLocked(now)
	e := r.workers[name]
	if e == nil {
		e = &regEntry{breaker: resilience.NewBreaker(r.breakerCfg)}
		r.workers[name] = e
	}
	if now.Before(e.quarantinedUntil) {
		return false
	}
	e.addr, e.slots = addr, max(slots, 1)
	e.lastSeen = now
	return true
}

// Deregister removes a worker from dispatch immediately — the final
// heartbeat of a draining worker, so the coordinator stops routing to it
// without waiting out the TTL. The entry is aged out rather than deleted
// so an active quarantine survives a deregister/re-register cycle.
func (r *Registry) Deregister(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.workers[name]; ok {
		e.lastSeen = time.Time{}
	}
}

// ReportFailure records a failed batch exchange against the worker's
// breaker: consecutive failures open it and the worker leaves the live
// set until the cooldown's probe.
func (r *Registry) ReportFailure(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.workers[name]; ok {
		e.breaker.Failure(r.now())
	}
}

// ReportSuccess records a verified batch exchange: it closes a half-open
// breaker (the probe passed) and resets the failure streak.
func (r *Registry) ReportSuccess(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	if e, ok := r.workers[name]; ok {
		e.breaker.Success(r.now())
	}
}

// Quarantine bars the worker for the penalty window: it leaves the live
// set, its heartbeats are ignored until the window ends, and its breaker
// is forced open so rejoining requires a clean probe batch. Reports
// whether the worker was known.
func (r *Registry) Quarantine(name string, penalty time.Duration) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.workers[name]
	if !ok {
		return false
	}
	until := r.now().Add(penalty)
	e.quarantinedUntil = until
	e.breaker.ForceOpen(until)
	return true
}

// Live returns the dispatchable workers — heartbeat within TTL, breaker
// closed or half-open (Probe), not quarantined — sorted by name so round
// partitioning is stable.
func (r *Registry) Live() []Worker {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]Worker, 0, len(r.workers))
	for name, e := range r.workers {
		state, live := r.stateLocked(e, now)
		if !live {
			continue
		}
		w := Worker{Name: name, Addr: e.addr, Slots: e.slots}
		if state == resilience.HalfOpen {
			w.Slots, w.Probe = 1, true
		}
		out = append(out, w)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// IsLive reports whether one worker is in the live set — the check a
// batch makes after waiting for the worker's credit.
func (r *Registry) IsLive(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.workers[name]
	if !ok {
		return false
	}
	_, live := r.stateLocked(e, r.now())
	return live
}

// stateLocked resolves an entry's breaker state at now and whether the
// entry is dispatchable. Caller holds r.mu.
func (r *Registry) stateLocked(e *regEntry, now time.Time) (resilience.State, bool) {
	state := e.breaker.State(now)
	live := !e.lastSeen.Before(now.Add(-r.ttl)) && !now.Before(e.quarantinedUntil) && state != resilience.Open
	return state, live
}

// Views returns every registry entry (live or not) for the coordinator's
// /v1/cluster/workers listing, sorted by name.
func (r *Registry) Views() []WorkerView {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	out := make([]WorkerView, 0, len(r.workers))
	for name, e := range r.workers {
		quarantined := now.Before(e.quarantinedUntil)
		state, live := r.stateLocked(e, now)
		breaker := state.String()
		if quarantined {
			breaker = "quarantined"
		}
		out = append(out, WorkerView{
			Name:        name,
			Addr:        e.addr,
			Slots:       e.slots,
			LastSeen:    e.lastSeen,
			Live:        live,
			Breaker:     breaker,
			Quarantined: quarantined,
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Name < out[j].Name })
	return out
}

// IsQuarantined reports whether one worker is currently serving a
// penalty — the merge path consults it so a response already in flight
// when its worker was quarantined is discarded, not trusted.
func (r *Registry) IsQuarantined(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	e, ok := r.workers[name]
	return ok && r.now().Before(e.quarantinedUntil)
}

// Quarantined returns how many workers are currently serving a penalty.
func (r *Registry) Quarantined() int {
	r.mu.Lock()
	defer r.mu.Unlock()
	now := r.now()
	n := 0
	for _, e := range r.workers {
		if now.Before(e.quarantinedUntil) {
			n++
		}
	}
	return n
}

// Evicted returns the lifetime count of entries removed by the sweep.
func (r *Registry) Evicted() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.evicted
}

// sweepLocked deletes entries silent for longer than SweepAfter×TTL.
// Silence served under quarantine does not count — the worker's
// heartbeats were being rejected, so the sweep clock starts at the
// penalty's end. That both spares active quarantines and keeps the
// probe-batch gate intact right after one expires. Caller holds r.mu.
func (r *Registry) sweepLocked(now time.Time) {
	if r.sweepAfter < 0 {
		return
	}
	cutoff := now.Add(-time.Duration(r.sweepAfter) * r.ttl)
	for name, e := range r.workers {
		seen := e.lastSeen
		if e.quarantinedUntil.After(seen) {
			seen = e.quarantinedUntil
		}
		if seen.Before(cutoff) {
			delete(r.workers, name)
			r.evicted++
		}
	}
}
