// Package cluster is the coordinator/worker split of hammerd: a
// coordinator partitions a job's experiment grid across registered
// worker nodes by content-addressed cell key, fronted by a result cache,
// and merges the returned cells into a table byte-identical to a serial
// run. The split rides the harness's distribution hooks — a GridDelegate
// on the coordinator, a CellCapture on each worker — so the experiment
// code itself never changes.
//
// The protocol is deliberately idempotent: cells are pure functions of
// (experiment, opts, epoch, seed, index), so a cell dispatched twice —
// after a worker death, a deadline miss, a duplicate job — merges to the
// same bytes. Stealing a straggler's cells back and re-dispatching them
// is therefore always safe, and the cache can serve any node's work to
// any later job.
package cluster

import (
	"encoding/json"
	"time"

	"hammertime/internal/harness"
)

// Opts is the serializable subset of harness.AttackOpts — exactly the
// fields that determine grid results, so a worker rebuilding a grid from
// an Opts produces the same GridSpec.Config (and therefore the same cell
// keys) as the coordinator. Observer-only fields (Observer, AttackTrace)
// never cross the wire, and neither does the harness.Run: each node
// parallelizes for its own cores, and jobs carrying non-serializable
// state are not distributable.
type Opts struct {
	Horizon         uint64   `json:"horizon,omitempty"`
	Tenants         int      `json:"tenants,omitempty"`
	PagesPerTenant  int      `json:"pages_per_tenant,omitempty"`
	BenignThink     uint64   `json:"benign_think,omitempty"`
	VictimIntegrity bool     `json:"victim_integrity,omitempty"`
	Defenses        []string `json:"defenses,omitempty"`
	ManySided       int      `json:"many_sided,omitempty"`
}

// OptsFrom extracts the wire subset of o.
func OptsFrom(o harness.AttackOpts) Opts {
	return Opts{
		Horizon:         o.Horizon,
		Tenants:         o.Tenants,
		PagesPerTenant:  o.PagesPerTenant,
		BenignThink:     o.BenignThink,
		VictimIntegrity: o.VictimIntegrity,
		Defenses:        o.Defenses,
		ManySided:       o.ManySided,
	}
}

// Attack expands the wire form back into harness options.
func (o Opts) Attack() harness.AttackOpts {
	return harness.AttackOpts{
		Horizon:         o.Horizon,
		Tenants:         o.Tenants,
		PagesPerTenant:  o.PagesPerTenant,
		BenignThink:     o.BenignThink,
		VictimIntegrity: o.VictimIntegrity,
		Defenses:        o.Defenses,
		ManySided:       o.ManySided,
	}
}

// Distributable reports whether a job described by opts can be sharded
// across workers: replayed traces, trace recording and event observers
// are process-local state a remote worker cannot reproduce, so those
// jobs run where they were submitted.
func Distributable(o harness.AttackOpts) bool {
	return o.ReplayAttack == nil && o.AttackTrace == nil && o.Observer == nil
}

// CellRequest asks a worker to compute a subset of one grid's cells.
// The worker rebuilds the exact grid from (Experiment, Horizon, Opts),
// runs only Cells, and echoes each cell's content key so the coordinator
// can detect a config/epoch/seed skew between nodes before merging.
type CellRequest struct {
	Experiment string `json:"experiment"`
	Horizon    uint64 `json:"horizon,omitempty"`
	Opts       Opts   `json:"opts"`
	// Grid and Config identify the target grid (GridSpec.ID and .Config
	// as the coordinator computed them).
	Grid   string `json:"grid"`
	Config string `json:"config"`
	Cells  []int  `json:"cells"`
	// Epoch is the coordinator's sim.DeterminismEpoch: a version-skewed
	// worker rejects the request outright instead of computing cells
	// whose keys can never match.
	Epoch int `json:"epoch"`
	// TraceID propagates the submitting job's trace across the RPC; the
	// worker's spans come back in CellResponse.Spans and are grafted into
	// the job's trace.
	TraceID string `json:"trace_id,omitempty"`
}

// CellResult is one computed cell: its index in the grid, its content
// key, and the exact JSON its value marshalled to.
type CellResult struct {
	Index  int             `json:"index"`
	Key    string          `json:"key"`
	Result json.RawMessage `json:"result"`
}

// CellResponse is the worker's answer: every requested cell, the grid
// config as the worker computed it, and the worker-side trace spans.
type CellResponse struct {
	Worker string       `json:"worker"`
	Config string       `json:"config"`
	Cells  []CellResult `json:"cells"`
	// Spans holds the worker's spans in telemetry's frozen encoding
	// (telemetry.EncodeSpans; base64 in the JSON body). The coordinator
	// decodes them with telemetry.DecodeSpans, which rejects a
	// truncated or corrupted payload, and the batch then fails like any
	// other malformed response.
	Spans []byte `json:"spans,omitempty"`
}

// RegisterRequest announces (and re-announces — registration doubles as
// the heartbeat) a worker to the coordinator.
type RegisterRequest struct {
	Name string `json:"name"`
	// Addr is the worker's base URL, e.g. "http://10.0.0.7:9091". Must be
	// an absolute http(s) URL; the coordinator rejects anything else with
	// a 400 at registration rather than failing dispatches later.
	Addr string `json:"addr"`
	// Deregister, when true, is a draining worker's goodbye: the
	// coordinator drops it from dispatch immediately instead of waiting
	// out the heartbeat TTL.
	Deregister bool `json:"deregister,omitempty"`
}

// WorkerView is one registry entry as reported by the coordinator's
// /v1/cluster/workers endpoint.
type WorkerView struct {
	Name     string    `json:"name"`
	Addr     string    `json:"addr"`
	LastSeen time.Time `json:"last_seen"`
	Live     bool      `json:"live"`
	// Breaker is the worker's circuit-breaker state: "closed", "open",
	// "half-open", or "quarantined".
	Breaker string `json:"breaker"`
	// Quarantined marks a worker serving a corrupt-result penalty.
	Quarantined bool `json:"quarantined,omitempty"`
}

// errorBody is the JSON error envelope of the worker and coordinator
// HTTP endpoints.
type errorBody struct {
	Error string `json:"error"`
}
