package harness

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"sync"

	"hammertime/internal/core"
	"hammertime/internal/journal"
	"hammertime/internal/sim"
)

// Checkpoint persists completed grid cells as JSON lines so an
// interrupted run resumes instead of recomputing. One record per cell:
//
//	{"key":"9f86d081deadbeef","grid":"e1","cell":17,"result":<json>}
//
// key is an FNV-64a hash of (grid ID, grid config, DeterminismEpoch,
// machine seed, cell index): a run with a different horizon, sweep, seed
// or RNG epoch never restores a stale cell. The file is an
// internal/journal log, replayed last-wins per key (a cell whose stored
// result no longer decodes is recomputed and appended again). Results
// are exact JSON round trips of the cell values, so a resumed run's
// tables are byte-identical to an uninterrupted run's.
type Checkpoint struct {
	log    *journal.Log
	loaded int

	mu    sync.Mutex
	done  map[string]json.RawMessage
	added int
}

// ckRecord is the wire form of one checkpointed cell. Grid and Cell are
// informational (debugging a checkpoint by eye); lookups go by Key.
type ckRecord struct {
	Key    string          `json:"key"`
	Grid   string          `json:"grid"`
	Cell   int             `json:"cell"`
	Result json.RawMessage `json:"result"`
}

// OpenCheckpoint opens (creating if needed) a checkpoint file, loads its
// valid records, and positions it for appending. A torn or corrupt tail
// — the signature of a killed run — is truncated away.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	ck := &Checkpoint{done: make(map[string]json.RawMessage)}
	log, err := journal.Open(path, func(_ int64, line []byte) bool {
		var rec ckRecord
		if json.Unmarshal(line, &rec) != nil || rec.Key == "" {
			return false
		}
		ck.done[rec.Key] = rec.Result
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	ck.log, ck.loaded = log, len(ck.done)
	return ck, nil
}

// Loaded returns how many distinct completed cells the file held at open.
func (c *Checkpoint) Loaded() int { return c.loaded }

// Added returns how many cells this run appended.
func (c *Checkpoint) Added() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.added
}

// Close closes the file, reporting the first error met while recording
// cells: a checkpoint that cannot be written must fail the run loudly —
// a silently truncated checkpoint would resume wrong. A nil checkpoint
// closes to nil, so callers can close Run.Checkpoint unconditionally.
func (c *Checkpoint) Close() error {
	if c == nil {
		return nil
	}
	return c.log.Close()
}

// lookup returns the recorded result for key, if any.
func (c *Checkpoint) lookup(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.done[key]
	return raw, ok
}

// record appends one completed cell, unless its key already holds
// exactly these bytes (the coordinator's local fallback records its
// cells as it computes them, before its grid's delegate returns). Errors
// are sticky and surfaced by Close; the in-memory map is updated
// regardless so the current run stays consistent.
func (c *Checkpoint) record(spec GridSpec, cell int, result any) {
	key := CellKey(spec, cell)
	raw, err := json.Marshal(result)
	var line []byte
	if err == nil {
		line, err = json.Marshal(ckRecord{Key: key, Grid: spec.ID, Cell: cell, Result: raw})
	}
	if err != nil {
		c.log.Fail(fmt.Errorf("checkpoint: %s cell %d: %w", spec.ID, cell, err))
		return
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	if held, ok := c.done[key]; ok && bytes.Equal(held, raw) {
		return
	}
	c.done[key] = raw
	c.added++
	c.log.Append(line)
}

// CellKey hashes everything that determines a cell's result — the FNV-64a
// of (grid ID, grid config, DeterminismEpoch, machine seed, cell index),
// rendered as 16 lowercase hex digits. The machine seed enters via
// core.DefaultSpec (experiments build their machines from it); grids that
// vary the seed must fold it into Config.
//
// The key is a public contract: besides checkpoint resume it is the
// shard and content-address of the distributed cluster (internal/cluster)
// — the coordinator partitions cells by it, the result cache stores
// under it, and workers echo it back so a config/epoch/seed skew between
// nodes is detected instead of silently merging mismatched results.
// TestCellKeyGolden pins the exact hash; changing the format or any
// input invalidates every checkpoint and cache on disk.
func CellKey(spec GridSpec, cell int) string {
	// The same bytes as hashing
	// fmt.Sprintf("%s|%s|epoch=%d|seed=%d|cell=%d", ...), fed through an
	// inline FNV-64a with the numbers formatted into a stack buffer, so
	// the returned string is the only allocation.
	var num [20]byte
	h := fnvAdd(fnvOffset64, spec.ID)
	h = fnvAdd(h, "|")
	h = fnvAdd(h, spec.Config)
	h = fnvAdd(h, "|epoch=")
	h = fnvAdd(h, strconv.AppendUint(num[:0], uint64(sim.DeterminismEpoch), 10))
	h = fnvAdd(h, "|seed=")
	h = fnvAdd(h, strconv.AppendUint(num[:0], core.DefaultSpec().Seed, 10))
	h = fnvAdd(h, "|cell=")
	h = fnvAdd(h, strconv.AppendInt(num[:0], int64(cell), 10))
	const hexDigits = "0123456789abcdef"
	var out [16]byte
	for i := len(out) - 1; i >= 0; i-- {
		out[i] = hexDigits[h&0xf]
		h >>= 4
	}
	return string(out[:])
}

// FNV-64a parameters (hash/fnv), for CellKey's allocation-free hashing.
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnvAdd folds s into the running FNV-64a hash h.
func fnvAdd[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h ^= uint64(s[i])
		h *= fnvPrime64
	}
	return h
}
