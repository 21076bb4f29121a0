package serve

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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
// The journal is compacted at open (one surviving record per job,
// oldest first) so it stays proportional to the registry rather than to
// the daemon's lifetime submission count; the in-memory registry itself
// is bounded by the manager's retention sweep.

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

// Store owns the journal file and the checkpoint directory. Safe for
// concurrent use: sessions journal transitions while HTTP handlers
// submit.
type Store struct {
	dir string
	log *journal.Log

	mu    sync.Mutex
	last  map[string]JobRecord
	order []string // job ids by first appearance (journal order)
}

// storeJournal is the journal's file name inside the state dir.
const storeJournal = "jobs.jsonl"

// OpenStore opens (creating if needed) the state directory, replays the
// journal, and compacts it to one line per job. The returned store's
// Records reflect the previous process's registry at the moment it
// died; a torn final line — the signature of a SIGKILL mid-append — is
// dropped, and any line after the first corrupt one is ignored.
func OpenStore(dir string) (*Store, error) {
	if err := os.MkdirAll(filepath.Join(dir, "checkpoints"), 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s := &Store{dir: dir, last: make(map[string]JobRecord)}
	log, err := journal.Open(filepath.Join(dir, storeJournal), func(_ int64, line []byte) bool {
		var rec JobRecord
		if json.Unmarshal(line, &rec) != nil || rec.ID == "" {
			return false
		}
		s.remember(rec)
		return true
	})
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	s.log = log
	if err := s.Compact(); err != nil {
		log.Close()
		return nil, err
	}
	return s, nil
}

// Compact rewrites the journal to the current in-memory view. The
// manager calls it after recovery applies retention, so jobs evicted by
// Forget actually leave the disk. When compaction fails the store goes
// on appending to the old journal.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	lines := make([][]byte, len(s.order))
	for i, id := range s.order {
		line, err := json.Marshal(s.last[id])
		if err != nil {
			return fmt.Errorf("store: compact %s: %w", id, err)
		}
		lines[i] = line
	}
	if err := s.log.Rewrite(lines); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	return nil
}

// remember makes rec the job's current state. Caller holds s.mu, or owns
// s exclusively during replay.
func (s *Store) remember(rec JobRecord) {
	if _, seen := s.last[rec.ID]; !seen {
		s.order = append(s.order, rec.ID)
	}
	s.last[rec.ID] = rec
}

// Len returns the number of distinct jobs in the journal.
func (s *Store) Len() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return len(s.last)
}

// Records returns the last journaled record of every job, in journal
// (submission) order.
func (s *Store) Records() []JobRecord {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]JobRecord, 0, len(s.order))
	for _, id := range s.order {
		out = append(out, s.last[id])
	}
	return out
}

// Append journals one job snapshot. Write errors are sticky and
// surfaced by Err — the in-memory view stays consistent regardless, so
// the running daemon keeps serving; only durability across the next
// restart is lost.
func (s *Store) Append(rec JobRecord) {
	line, err := json.Marshal(rec)
	if err != nil {
		s.log.Fail(fmt.Errorf("store: job %s: %w", rec.ID, err))
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	s.remember(rec)
	s.log.Append(line)
}

// Forget drops a job from the store's in-memory view so the next
// compaction (at restart) omits it. The manager's retention sweep calls
// this alongside registry eviction; nothing is rewritten now — the
// journal stays append-only while the daemon lives.
func (s *Store) Forget(id string) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, ok := s.last[id]; !ok {
		return
	}
	delete(s.last, id)
	for i, o := range s.order {
		if o == id {
			s.order = append(s.order[:i], s.order[i+1:]...)
			break
		}
	}
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

// applyRetention filters terminal records the same way the manager's
// in-memory sweep does — drop those finished before the age cutoff,
// then the oldest beyond the count bound — so a restart does not
// resurrect jobs the running daemon would already have evicted.
// Non-terminal records (the orphans to resume) always survive. age or
// max <= 0 disables that bound. Returns the surviving records in
// journal order.
func applyRetention(recs []JobRecord, now time.Time, age time.Duration, max int) []JobRecord {
	type aged struct {
		idx      int
		finished time.Time
	}
	var terminal []aged
	drop := make(map[int]bool)
	for i, rec := range recs {
		if !rec.State.Terminal() {
			continue
		}
		if age > 0 && now.Sub(rec.Finished) > age {
			drop[i] = true
			continue
		}
		terminal = append(terminal, aged{i, rec.Finished})
	}
	if max > 0 && len(terminal) > max {
		sort.Slice(terminal, func(a, b int) bool {
			return terminal[a].finished.Before(terminal[b].finished)
		})
		for _, t := range terminal[:len(terminal)-max] {
			drop[t.idx] = true
		}
	}
	out := recs[:0:0]
	for i, rec := range recs {
		if !drop[i] {
			out = append(out, rec)
		}
	}
	return out
}
