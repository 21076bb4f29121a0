package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"

	"hammertime/internal/journal"
)

// The persistent job store behind hammerd's -state-dir. The paper's
// evaluation grids are minutes-long batch jobs; a daemon that loses
// every accepted job on a crash forces clients to resubmit and the
// simulator to recompute. The store makes the registry durable with the
// same machinery the harness already trusts for cells:
//
//   - jobs.jsonl is an append-only journal (internal/journal) of job
//     snapshots. Every lifecycle transition (queued, running,
//     done/failed/cancelled) appends one full JobRecord line, so the
//     last record per job id is the job's state at the instant the
//     daemon died; a SIGKILL loses at most the in-flight line.
//
//   - checkpoints/<job-id>.ckpt is the job's harness checkpoint
//     (FNV-keyed JSONL of completed grid cells), threaded into the
//     job's run as its harness.Run's Checkpoint. A job found "running" or
//     "queued" at startup is an orphan of the previous process: the
//     manager resubmits it under the same id and trace, and the grid
//     restores every cell the dead process completed — the resumed
//     table is byte-identical to an uninterrupted run because restored
//     cells are exact JSON round trips (see DESIGN.md, "Durable jobs").
//
// The store keeps no registry of its own: OpenStore replays the
// journal once, the manager takes those records (replayed), loads them
// into its registry, applies retention there, and rewrites the journal
// once from what survived (rewrite). Between starts the journal only
// grows, by one line per lifecycle transition.

// JobRecord is the journaled snapshot of one job — everything needed to
// rebuild its registry entry (terminal jobs) or resubmit it (orphans).
type JobRecord struct {
	ID        string     `json:"id"`
	Client    string     `json:"client,omitempty"`
	Request   JobRequest `json:"request"`
	State     JobState   `json:"state"`
	TraceID   string     `json:"trace_id,omitempty"`
	Restarts  int        `json:"restarts,omitempty"`
	Submitted time.Time  `json:"submitted"`
	Started   time.Time  `json:"started,omitempty"`
	Finished  time.Time  `json:"finished,omitempty"`
	Table     string     `json:"table,omitempty"`
	Error     string     `json:"error,omitempty"`
}

// Store owns the journal file and the checkpoint directory. Append is
// safe for concurrent use (sessions journal transitions while HTTP
// handlers submit); replayed and rewrite belong to the manager's
// startup, before its sessions run.
type Store struct {
	dir string
	log *journal.Log
	// recs is the journal's replay, the last record per job in journal
	// order, held only until the manager takes it.
	recs []JobRecord
}

// storeJournal is the journal's file name inside the state dir.
const storeJournal = "jobs.jsonl"

// OpenStore opens (creating if needed) the state directory and replays
// the journal, keeping the last record per job for the manager to take.
// A torn final line — the signature of a SIGKILL mid-append — is
// dropped, and any line after the first corrupt one is ignored.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir}
	at := make(map[string]int)
	log, err := journal.Open(filepath.Join(dir, storeJournal), func(_ int64, line []byte) bool {
		var rec JobRecord
		if json.Unmarshal(line, &rec) != nil || rec.ID == "" {
			return false
		}
		if i, seen := at[rec.ID]; seen {
			s.recs[i] = rec
		} else {
			at[rec.ID] = len(s.recs)
			s.recs = append(s.recs, rec)
		}
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.log = log
	return s, nil
}

// replayed hands over the records OpenStore replayed and drops the
// store's reference to them: a second call returns nil.
func (s *Store) replayed() []JobRecord {
	recs := s.recs
	s.recs = nil
	return recs
}

// rewrite replaces the journal with recs, one line each. The manager
// calls it once per start, after recovery applies retention, so jobs
// evicted since the last start leave the disk. When it fails the store
// goes on appending to the old journal.
func (s *Store) rewrite(recs []JobRecord) error {
	lines := make([][]byte, len(recs))
	for i, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			return fmt.Errorf("store: compact %s: %w", rec.ID, err)
		}
		lines[i] = line
	}
	if err := s.log.Rewrite(lines); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

// Append journals one job snapshot. Write errors are sticky and
// surfaced by Err — the manager's registry is unaffected, so the
// running daemon keeps serving; only durability across the next
// restart is lost.
func (s *Store) Append(rec JobRecord) {
	line, err := json.Marshal(rec)
	if err != nil {
		s.log.Fail(fmt.Errorf("store: job %s: %w", rec.ID, err))
		return
	}
	s.log.Append(line)
}

// Err returns the first append failure, if any.
func (s *Store) Err() error { return s.log.Err() }

// Close closes the journal, reporting the sticky append error first.
func (s *Store) Close() error { return s.log.Close() }

// CheckpointPath returns the per-job harness checkpoint path. Job ids
// are daemon-minted ("job-N"), never client input, so they are safe as
// file names.
func (s *Store) CheckpointPath(jobID string) string {
	return filepath.Join(s.dir, "checkpoints", jobID+".ckpt")
}

// RemoveCheckpoint deletes a job's checkpoint file (missing is fine):
// a terminal job never resumes, so its cell-level state is dead weight.
func (s *Store) RemoveCheckpoint(jobID string) {
	_ = os.Remove(s.CheckpointPath(jobID))
}

// SweepCheckpoints removes checkpoint files whose job id is not in
// keep — debris of jobs that reached a terminal state (or were evicted)
// without getting to delete their checkpoint before the process died.
func (s *Store) SweepCheckpoints(keep map[string]bool) {
	entries, err := os.ReadDir(filepath.Join(s.dir, "checkpoints"))
	if err != nil {
		return
	}
	for _, e := range entries {
		id := strings.TrimSuffix(e.Name(), ".ckpt")
		if id == e.Name() || keep[id] {
			continue
		}
		_ = os.Remove(filepath.Join(s.dir, "checkpoints", e.Name()))
	}
}
