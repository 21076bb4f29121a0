package harness

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"strconv"
	"sync"

	"hammertime/internal/core"
	"hammertime/internal/sim"
)

// Checkpoint persists completed grid cells as JSON lines so an
// interrupted run resumes instead of recomputing. One record per cell:
//
//	{"key":"9f86d081deadbeef","grid":"e1","cell":17,"result":<json>}
//
// key is an FNV-64a hash of (grid ID, grid config, DeterminismEpoch,
// machine seed, cell index): a run with a different horizon, sweep, seed
// or RNG epoch never restores a stale cell. Records are appended and
// flushed as cells complete, so a SIGKILL loses at most the in-flight
// cells; the loader tolerates (and trims) a torn final line. Results are
// exact JSON round trips of the cell values, so a resumed run's tables
// are byte-identical to an uninterrupted run's.
type Checkpoint struct {
	mu     sync.Mutex
	f      *os.File
	done   map[string]json.RawMessage
	err    error // sticky: first write/flush failure
	loaded int
	added  int
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
// — the signature of a killed run — is truncated away so subsequent
// appends produce a clean file.
func OpenCheckpoint(path string) (*Checkpoint, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	ck := &Checkpoint{f: f, done: make(map[string]json.RawMessage)}
	r := bufio.NewReader(f)
	var offset int64
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			// EOF with a leftover fragment means a write died mid-line
			// (a record's line and '\n' are written in one call): the
			// fragment is debris of the interrupted run, trimmed below.
			break
		}
		var rec ckRecord
		if json.Unmarshal([]byte(line), &rec) != nil || rec.Key == "" {
			// First corrupt line: stop loading and truncate it away so
			// appends produce a clean file.
			break
		}
		offset += int64(len(line))
		ck.done[rec.Key] = rec.Result
		ck.loaded++
	}
	if err := f.Truncate(offset); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: trim torn tail: %w", err)
	}
	if _, err := f.Seek(offset, io.SeekStart); err != nil {
		f.Close()
		return nil, fmt.Errorf("checkpoint: %w", err)
	}
	return ck, nil
}

// Loaded returns how many completed cells the file held at open.
func (c *Checkpoint) Loaded() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.loaded
}

// Added returns how many cells this run appended.
func (c *Checkpoint) Added() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.added
}

// Err returns the first write error encountered while recording cells.
// A checkpoint that cannot be written must fail the run loudly — a
// silently truncated checkpoint would resume wrong.
func (c *Checkpoint) Err() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.err
}

// Close closes the file, reporting the sticky write error first. A nil
// checkpoint closes to nil, so callers can close Run.Checkpoint
// unconditionally.
func (c *Checkpoint) Close() error {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	first := c.err
	if c.f != nil {
		if err := c.f.Close(); err != nil && first == nil {
			first = err
		}
		c.f = nil
	}
	return first
}

// lookup returns the recorded result for key, if any.
func (c *Checkpoint) lookup(key string) (json.RawMessage, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	raw, ok := c.done[key]
	return raw, ok
}

// record appends one completed cell. Write errors are sticky and
// surfaced by Err/Close; the in-memory map is updated regardless so the
// current run stays consistent.
func (c *Checkpoint) record(grid string, cell int, key string, result any) {
	raw, err := json.Marshal(result)
	if err != nil {
		c.fail(fmt.Errorf("checkpoint: %s cell %d: %w", grid, cell, err))
		return
	}
	line, err := json.Marshal(ckRecord{Key: key, Grid: grid, Cell: cell, Result: raw})
	if err != nil {
		c.fail(fmt.Errorf("checkpoint: %s cell %d: %w", grid, cell, err))
		return
	}
	line = append(line, '\n')
	c.mu.Lock()
	defer c.mu.Unlock()
	c.done[key] = raw
	c.added++
	if c.f == nil || c.err != nil {
		return
	}
	if _, err := c.f.Write(line); err != nil {
		c.err = fmt.Errorf("checkpoint: %s cell %d: %w", grid, cell, err)
	}
}

func (c *Checkpoint) fail(err error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.err == nil {
		c.err = err
	}
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
