package serve

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"
)

// The persistent job store behind hammerd's -state-dir. The paper's
// evaluation grids are minutes-long batch jobs; a daemon that loses
// every accepted job on a crash forces clients to resubmit and the
// simulator to recompute. The store makes the registry durable with the
// same machinery the harness already trusts for cells:
//
//   - jobs.jsonl is an append-only journal of job snapshots. Every
//     lifecycle transition (queued, running, done/failed/cancelled)
//     appends one full JobRecord line, so the last record per job id is
//     the job's state at the instant the daemon died. Appends are one
//     write() each — a SIGKILL loses at most the in-flight line, and
//     the loader trims a torn tail exactly like harness.OpenCheckpoint.
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

	mu    sync.Mutex
	f     *os.File
	err   error // sticky: first append failure
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
	path := filepath.Join(dir, storeJournal)
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	r := bufio.NewReader(f)
	for {
		line, err := r.ReadString('\n')
		if err != nil {
			// EOF with a fragment: a write died mid-line. The fragment is
			// debris of the killed process; compaction below drops it.
			break
		}
		var rec JobRecord
		if json.Unmarshal([]byte(line), &rec) != nil || rec.ID == "" {
			// First corrupt full line: stop replaying. Later lines may
			// postdate the corruption, but a journal that lies once cannot
			// be trusted to order what follows.
			break
		}
		if _, seen := s.last[rec.ID]; !seen {
			s.order = append(s.order, rec.ID)
		}
		s.last[rec.ID] = rec
	}
	if err := f.Close(); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := s.compact(path); err != nil {
		return nil, err
	}
	return s, nil
}

// compact rewrites the journal as one line per surviving job and
// reopens it for appending. Write-to-temp + rename keeps a crash during
// compaction from losing the old journal.
func (s *Store) compact(path string) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	w := bufio.NewWriter(f)
	for _, id := range s.order {
		line, err := json.Marshal(s.last[id])
		if err != nil {
			f.Close()
			return fmt.Errorf("store: compact %s: %w", id, err)
		}
		w.Write(line)
		w.WriteByte('\n')
	}
	if err := w.Flush(); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := f.Close(); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	if err := os.Rename(tmp, path); err != nil {
		return fmt.Errorf("store: compact: %w", err)
	}
	s.f, err = os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	return nil
}

// Compact rewrites the journal to the current in-memory view (one line
// per surviving job) — the manager calls this after recovery applies
// retention, so jobs evicted by Forget actually leave the disk instead
// of being re-filtered at every restart forever. When compaction fails
// the store goes on appending to the old, uncompacted journal; if even
// that cannot be reopened, the failure is sticky in Err, so appends are
// never dropped silently.
func (s *Store) Compact() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.f != nil {
		if err := s.f.Close(); err != nil {
			return fmt.Errorf("store: compact: %w", err)
		}
		s.f = nil
	}
	path := filepath.Join(s.dir, storeJournal)
	err := s.compact(path)
	if err != nil && s.f == nil {
		f, ferr := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0o644)
		switch {
		case ferr == nil:
			s.f = f
		case s.err == nil:
			s.err = err
		}
	}
	return err
}

// Dir returns the state directory.
func (s *Store) Dir() string { return s.dir }

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

// Append journals one job snapshot. Each record is a single write of a
// full line, so concurrent appends never interleave and a kill tears at
// most the final line. Write errors are sticky and surfaced by Err —
// the in-memory view stays consistent regardless, so the running daemon
// keeps serving; only durability across the next restart is lost.
func (s *Store) Append(rec JobRecord) {
	line, err := json.Marshal(rec)
	if err != nil {
		s.fail(fmt.Errorf("store: job %s: %w", rec.ID, err))
		return
	}
	line = append(line, '\n')
	s.mu.Lock()
	defer s.mu.Unlock()
	if _, seen := s.last[rec.ID]; !seen {
		s.order = append(s.order, rec.ID)
	}
	s.last[rec.ID] = rec
	if s.f == nil || s.err != nil {
		return
	}
	if _, err := s.f.Write(line); err != nil {
		s.err = fmt.Errorf("store: job %s: %w", rec.ID, err)
	}
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

// fail records the first append failure.
func (s *Store) fail(err error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.err == nil {
		s.err = err
	}
}

// Err returns the first append failure, if any.
func (s *Store) Err() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.err
}

// Close closes the journal, reporting the sticky append error first.
func (s *Store) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	first := s.err
	if s.f != nil {
		if err := s.f.Close(); err != nil && first == nil {
			first = err
		}
		s.f = nil
	}
	return first
}

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
