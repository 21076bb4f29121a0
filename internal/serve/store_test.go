package serve

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"log/slog"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"time"

	"hammertime/internal/harness"
)

func openTestStore(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := OpenStore(dir)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

func journalLines(t *testing.T, dir string) []JobRecord {
	t.Helper()
	f, err := os.Open(filepath.Join(dir, storeJournal))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	var recs []JobRecord
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		var rec JobRecord
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			t.Fatalf("journal line %q: %v", sc.Text(), err)
		}
		recs = append(recs, rec)
	}
	return recs
}

// TestStoreReplayLastRecordWins pins the journal semantics: every append
// is a full snapshot, replay keeps the last record per job id in journal
// order and hands it over once, opening leaves the file as it is, and
// the rewrite recovery runs leaves one line per job.
func TestStoreReplayLastRecordWins(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	st.Append(JobRecord{ID: "job-1", State: StateQueued, Submitted: base})
	st.Append(JobRecord{ID: "job-1", State: StateRunning, Submitted: base, Started: base.Add(time.Second)})
	st.Append(JobRecord{ID: "job-2", State: StateQueued, Submitted: base.Add(2 * time.Second)})
	st.Append(JobRecord{ID: "job-1", State: StateDone, Submitted: base, Table: "T1\n"})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	defer st2.Close()
	if got := len(journalLines(t, dir)); got != 4 {
		t.Fatalf("journal holds %d lines after open, want all 4", got)
	}
	recs := st2.replayed()
	if len(recs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(recs))
	}
	if recs[0].ID != "job-1" || recs[0].State != StateDone || recs[0].Table != "T1\n" {
		t.Fatalf("job-1 replayed as %+v, want the final done snapshot", recs[0])
	}
	if recs[1].ID != "job-2" || recs[1].State != StateQueued {
		t.Fatalf("job-2 replayed as %+v, want the queued snapshot", recs[1])
	}
	if again := st2.replayed(); again != nil {
		t.Fatalf("store handed its replay over twice: %+v", again)
	}
	if err := st2.rewrite(recs); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, dir)
	if len(lines) != 2 || lines[0].ID != "job-1" || lines[1].ID != "job-2" {
		t.Fatalf("compacted journal = %+v, want one line each for job-1, job-2", lines)
	}
}

// TestStoreTornTailAndCorruptLine pins crash tolerance: a SIGKILL
// mid-append leaves a line fragment that replay drops, and a corrupt
// full line stops replay at the last trustworthy record without failing
// the open.
func TestStoreTornTailAndCorruptLine(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	st.Append(JobRecord{ID: "job-1", State: StateDone, Table: "T\n"})
	st.Append(JobRecord{ID: "job-2", State: StateRunning})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, storeJournal)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"id":"job-3","state":"ru`); err != nil {
		t.Fatal(err)
	}
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	if got := len(st2.replayed()); got != 2 {
		t.Fatalf("torn journal replayed %d jobs, want 2", got)
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	// Opening trimmed the fragment from disk.
	if lines := journalLines(t, dir); len(lines) != 2 {
		t.Fatalf("trimmed torn journal holds %d lines, want 2", len(lines))
	}

	// A corrupt full line: replay keeps everything before it, nothing
	// after it.
	good, err := json.Marshal(JobRecord{ID: "job-9", State: StateDone})
	if err != nil {
		t.Fatal(err)
	}
	f, err = os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString("not json\n")
	f.Write(append(good, '\n'))
	if err := f.Close(); err != nil {
		t.Fatal(err)
	}
	st3 := openTestStore(t, dir)
	defer st3.Close()
	if got := len(st3.replayed()); got != 2 {
		t.Fatalf("corrupt journal replayed %d jobs, want 2 (job-9 postdates the corruption)", got)
	}
}

// TestStoreCompactFailureKeepsAppending forces recovery's journal
// rewrite to fail (a directory sits where its temp file goes) and checks
// the daemon does not then drop appends silently: the next submission
// reaches the old journal.
func TestStoreCompactFailureKeepsAppending(t *testing.T) {
	dir := t.TempDir()
	writeJournal(t, dir, JobRecord{ID: "job-1", State: StateDone, Finished: time.Now()})
	if err := os.Mkdir(filepath.Join(dir, storeJournal+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	st := openTestStore(t, dir)
	defer st.Close()
	if err := st.rewrite(nil); err == nil {
		t.Fatal("compaction over a directory at the temp path succeeded")
	}
	m := NewManager(Config{Sessions: 1, RatePerSec: -1, Store: st, Run: fakeRun(0)})
	job, err := m.Submit("c1", JobRequest{Experiment: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	waitTerminal(t, job)
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	if err := st.Err(); err != nil {
		t.Fatalf("append after failed compaction: %v", err)
	}
	recs := journalLines(t, dir)
	if len(recs) < 2 || recs[0].ID != "job-1" || recs[1].ID != "job-2" {
		t.Fatalf("journal holds %+v after failed compaction, want job-1, then job-2's transitions", recs)
	}
}

// writeJournal writes recs as a state dir's journal, one line each, the
// way a dead daemon left it.
func writeJournal(t *testing.T, dir string, recs ...JobRecord) {
	t.Helper()
	var buf []byte
	for _, rec := range recs {
		line, err := json.Marshal(rec)
		if err != nil {
			t.Fatal(err)
		}
		buf = append(append(buf, line...), '\n')
	}
	if err := os.WriteFile(filepath.Join(dir, storeJournal), buf, 0o644); err != nil {
		t.Fatal(err)
	}
}

// evictedGauge reads serve.jobs.evicted off the manager's metrics.
func evictedGauge(m *Manager) float64 {
	for _, g := range m.Metrics().Gauges {
		if g.Name == "serve.jobs.evicted" {
			return g.Value
		}
	}
	return -1
}

// TestRecoveryAppliesRetention pins the retention a restart applies to
// the replayed journal — the live sweep's: terminal records age out or
// fall off the count bound, non-terminal records always survive, the
// evictions count in serve.jobs.evicted, and the journal is rewritten
// to the survivors in journal order.
func TestRecoveryAppliesRetention(t *testing.T) {
	now := time.Now()
	recs := []JobRecord{
		{ID: "old", State: StateDone, Finished: now.Add(-2 * time.Hour)},
		{ID: "orphan", State: StateRunning},
		{ID: "mid", State: StateFailed, Finished: now.Add(-30 * time.Minute)},
		{ID: "new", State: StateDone, Finished: now.Add(-time.Minute)},
	}
	for _, tc := range []struct {
		name string
		age  time.Duration
		max  int
		want []string
	}{
		{"age", time.Hour, -1, []string{"orphan", "mid", "new"}},
		{"count", -1, 1, []string{"orphan", "new"}},
		{"disabled", -1, -1, []string{"old", "orphan", "mid", "new"}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			writeJournal(t, dir, recs...)
			st := openTestStore(t, dir)
			defer st.Close()
			m := NewManager(Config{
				Sessions: 1, RatePerSec: -1, Store: st,
				RetentionAge: tc.age, RetentionMax: tc.max,
				Run: func(ctx context.Context, req JobRequest) (string, error) {
					<-ctx.Done()
					return "", context.Cause(ctx)
				},
			})
			expired, cancel := context.WithCancel(context.Background())
			cancel()
			m.Drain(expired)
			// The orphan's own transitions follow the compacted view.
			lines := journalLines(t, dir)

			for _, rec := range recs {
				_, err := m.Get(rec.ID)
				if kept := slices.Contains(tc.want, rec.ID); kept != (err == nil) {
					t.Errorf("%s: in registry %v, want %v", rec.ID, err == nil, kept)
				}
			}
			if replayed, resumed := m.Recovered(); replayed != len(tc.want)-1 || resumed != 1 {
				t.Errorf("recovered replayed=%d resumed=%d, want %d and 1", replayed, resumed, len(tc.want)-1)
			}
			if got := evictedGauge(m); got != float64(len(recs)-len(tc.want)) {
				t.Errorf("serve.jobs.evicted = %v, want %d", got, len(recs)-len(tc.want))
			}
			if len(lines) < len(tc.want) {
				t.Fatalf("journal holds %d lines, want at least %d", len(lines), len(tc.want))
			}
			for i, id := range tc.want {
				if lines[i].ID != id {
					t.Fatalf("compacted journal line %d is %s, want %v in journal order", i, lines[i].ID, tc.want)
				}
			}
			for _, rec := range lines[len(tc.want):] {
				if rec.ID != "orphan" {
					t.Fatalf("journal line after the compacted view is %s, want only the resumed orphan", rec.ID)
				}
			}
		})
	}
}

// TestManagerRestartResumesOrphans is the tentpole's unit acceptance: a
// daemon dies (journal frozen mid-flight) with one job running and one
// queued; a new manager over the same state dir resubmits both under
// their original ids, submit times and trace ids, bumps Restarts, runs
// them to completion, and keeps the id counter monotonic past the
// recovered ids.
func TestManagerRestartResumesOrphans(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	block := make(chan struct{})
	m1 := NewManager(Config{
		Sessions: 1, RatePerSec: -1, Store: st,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			select {
			case <-block:
				return "first life\n", nil
			case <-ctx.Done():
				return "", context.Cause(ctx)
			}
		},
	})
	j1, err := m1.Submit("c1", JobRequest{Experiment: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	j2, err := m1.Submit("c1", JobRequest{Experiment: "e2", Horizon: 500})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for j1.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("job-1 never started (state %s)", j1.State())
		}
		time.Sleep(time.Millisecond)
	}
	// The running job's checkpoint file exists while it runs. The session
	// opens it just after publishing the running state, so wait for it.
	for {
		_, err := os.Stat(st.CheckpointPath(j1.ID))
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("running job has no checkpoint file: %v", err)
		}
		time.Sleep(time.Millisecond)
	}
	wantTrace1, wantTrace2 := j1.TraceID(), j2.TraceID()
	wantSubmitted := j1.View().Submitted

	// "Crash": freeze the journal as the dead process left it — job-1
	// running, job-2 queued — then let the old manager unwind (its
	// post-mortem appends hit the closed file and are dropped).
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	close(block)
	m1.Drain(context.Background())

	st2 := openTestStore(t, dir)
	m2 := NewManager(Config{
		Sessions: 1, RatePerSec: -1, Store: st2,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			return "second life " + req.Experiment + "\n", nil
		},
	})
	defer func() {
		m2.Drain(context.Background())
		st2.Close()
	}()
	if replayed, resumed := m2.Recovered(); replayed != 0 || resumed != 2 {
		t.Fatalf("recovered replayed=%d resumed=%d, want 0 and 2", replayed, resumed)
	}
	r1, err := m2.Get(j1.ID)
	if err != nil {
		t.Fatalf("job %s lost across restart: %v", j1.ID, err)
	}
	r2, err := m2.Get(j2.ID)
	if err != nil {
		t.Fatalf("job %s lost across restart: %v", j2.ID, err)
	}
	if r1.Restarts != 1 || r2.Restarts != 1 {
		t.Fatalf("restarts = %d, %d, want 1, 1", r1.Restarts, r2.Restarts)
	}
	if r1.TraceID() != wantTrace1 || r2.TraceID() != wantTrace2 {
		t.Fatalf("trace ids changed across restart: %s -> %s, %s -> %s",
			wantTrace1, r1.TraceID(), wantTrace2, r2.TraceID())
	}
	if !r1.View().Submitted.Equal(wantSubmitted) {
		t.Fatalf("submit time changed across restart: %v -> %v", wantSubmitted, r1.View().Submitted)
	}
	if v := waitTerminal(t, r1); v.State != StateDone || v.Restarts != 1 {
		t.Fatalf("resumed job-1 ended %s (restarts %d), want done", v.State, v.Restarts)
	}
	if v := waitTerminal(t, r2); v.State != StateDone {
		t.Fatalf("resumed job-2 ended %s, want done", v.State)
	}
	if tbl, ok := r2.Result(); !ok || tbl != "second life e2\n" {
		t.Fatalf("resumed job-2 table %q, want the resumed run's output", tbl)
	}
	// Terminal jobs drop their checkpoint files (async after Done).
	deadline = time.Now().Add(5 * time.Second)
	for {
		if _, err := os.Stat(st2.CheckpointPath(j1.ID)); os.IsNotExist(err) {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("terminal job's checkpoint file was not removed")
		}
		time.Sleep(time.Millisecond)
	}
	// The id namespace stays monotonic: recovered ids are never re-minted.
	j3, err := m2.Submit("c1", JobRequest{Experiment: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	if j3.ID != "job-3" {
		t.Fatalf("post-restart submission minted %s, want job-3", j3.ID)
	}
}

// TestManagerReplaysTerminalJobs pins the other half of recovery: jobs
// that finished before the restart reappear as inert registry entries —
// same id, table, error, trace id — so clients polling across the
// restart read identical results.
func TestManagerReplaysTerminalJobs(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	m1 := NewManager(Config{Sessions: 1, RatePerSec: -1, Store: st, Run: fakeRun(time.Millisecond)})
	j1, err := m1.Submit("c1", JobRequest{Experiment: "e3"})
	if err != nil {
		t.Fatal(err)
	}
	want := waitTerminal(t, j1)
	tbl, ok := j1.Result()
	if !ok {
		t.Fatal("job did not produce a table")
	}
	m1.Drain(context.Background())
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	st2 := openTestStore(t, dir)
	m2 := NewManager(Config{Sessions: 1, RatePerSec: -1, Store: st2, Run: fakeRun(time.Millisecond)})
	defer func() {
		m2.Drain(context.Background())
		st2.Close()
	}()
	if replayed, resumed := m2.Recovered(); replayed != 1 || resumed != 0 {
		t.Fatalf("recovered replayed=%d resumed=%d, want 1 and 0", replayed, resumed)
	}
	r1, err := m2.Get(j1.ID)
	if err != nil {
		t.Fatal(err)
	}
	got := r1.View()
	if got.State != StateDone || got.TraceID != want.TraceID || !got.Submitted.Equal(want.Submitted) {
		t.Fatalf("replayed view %+v differs from pre-restart %+v", got, want)
	}
	if rtbl, ok := r1.Result(); !ok || rtbl != tbl {
		t.Fatalf("replayed table %q, want %q", rtbl, tbl)
	}
	select {
	case <-r1.Done():
	default:
		t.Fatal("replayed terminal job's Done channel is not closed")
	}
}

// TestRetentionBoundsRegistry is the unbounded-registry regression test,
// mirroring TestLimiterEvictsIdleBuckets: the jobs map grows with
// submissions, then the retention sweep shrinks it back to the
// configured bound (and empties it entirely once everything ages out),
// never touching live jobs, while the store forgets evicted ids.
func TestRetentionBoundsRegistry(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	defer st.Close()
	m := NewManager(Config{
		Sessions: 2, QueueDepth: 64, RatePerSec: -1,
		RetentionAge: time.Hour, RetentionMax: 8,
		Store: st, Run: fakeRun(0),
	})
	defer m.Drain(context.Background())
	const n = 30
	for i := 0; i < n; i++ {
		job, err := m.Submit("c1", JobRequest{Experiment: "e1"})
		if err != nil {
			t.Fatal(err)
		}
		waitTerminal(t, job)
	}
	m.mu.Lock()
	grown := len(m.jobs)
	m.mu.Unlock()
	if grown != n {
		t.Fatalf("registry holds %d jobs, want %d", grown, n)
	}

	// A live job must survive every sweep.
	block := make(chan struct{})
	defer close(block)
	m.cfg.Run = func(ctx context.Context, req JobRequest) (string, error) {
		select {
		case <-block:
		case <-ctx.Done():
		}
		return "ok\n", nil
	}
	live, err := m.Submit("c1", JobRequest{Experiment: "e2"})
	if err != nil {
		t.Fatal(err)
	}

	// Count bound: the sweep shrinks the map to RetentionMax terminal
	// jobs (+ the live one), evicting oldest-finished first.
	m.mu.Lock()
	m.sweepRetentionLocked(true)
	afterCount := len(m.jobs)
	evicted := m.evicted
	m.mu.Unlock()
	if afterCount != 8+1 {
		t.Fatalf("registry holds %d jobs after count sweep, want 9 (8 retained + 1 live)", afterCount)
	}
	if evicted != n-8 {
		t.Fatalf("evicted counter %d, want %d", evicted, n-8)
	}
	if _, err := m.Get("job-1"); err == nil {
		t.Fatal("oldest job survived the count bound")
	}
	m.mu.Lock()
	retained := make(map[string]bool, len(m.jobs))
	for id := range m.jobs {
		retained[id] = true
	}
	m.mu.Unlock()

	// Age bound: once everything terminal is older than RetentionAge,
	// the sweep empties the registry down to the live job.
	m.now = func() time.Time { return time.Now().Add(48 * time.Hour) }
	m.mu.Lock()
	m.sweepRetentionLocked(true)
	afterAge := len(m.jobs)
	m.mu.Unlock()
	if afterAge != 1 {
		t.Fatalf("registry holds %d jobs after age sweep, want only the live job", afterAge)
	}
	if live.State().Terminal() {
		t.Fatal("live job was evicted")
	}
	if _, err := m.Get(live.ID); err != nil {
		t.Fatal("live job missing from registry after sweeps")
	}

	// A restart over the journal as this process leaves it compacts the
	// file to exactly the jobs the count sweep retained plus the live one,
	// now an orphan, whose own transitions follow.
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	defer st2.Close()
	m2 := NewManager(Config{
		Sessions: 1, RatePerSec: -1,
		RetentionAge: time.Hour, RetentionMax: 8,
		Store: st2, Run: fakeRun(0),
	})
	resumed, err := m2.Get(live.ID)
	if err != nil {
		t.Fatal(err)
	}
	if v := waitTerminal(t, resumed); v.State != StateDone {
		t.Fatalf("resumed live job ended %s, want done", v.State)
	}
	if err := m2.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}
	lines := journalLines(t, dir)
	if len(lines) < len(retained) {
		t.Fatalf("journal holds %d lines after restart, want at least %d", len(lines), len(retained))
	}
	seen := make(map[string]bool)
	for _, rec := range lines[:len(retained)] {
		if !retained[rec.ID] || seen[rec.ID] {
			t.Fatalf("compacted journal line %s: not retained, or repeated (retained %v)", rec.ID, retained)
		}
		seen[rec.ID] = true
	}
	for _, rec := range lines[len(retained):] {
		if rec.ID != live.ID {
			t.Fatalf("journal line after the compacted view is %s, want only the orphan %s", rec.ID, live.ID)
		}
	}
}

// TestQueueFullShedLeavesBucketUntouched is the double-penalty
// regression test: a submission shed for queue depth (or draining) must
// not spend the client's rate-limit token — previously the limiter ran
// first, so a client retrying after a 429 met a poorer bucket than it
// deserved.
func TestQueueFullShedLeavesBucketUntouched(t *testing.T) {
	block := make(chan struct{})
	m := NewManager(Config{
		Sessions: 1, QueueDepth: 1, RatePerSec: 1, Burst: 5,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			select {
			case <-block:
			case <-ctx.Done():
			}
			return "ok\n", nil
		},
	})
	defer func() {
		close(block)
		m.Drain(context.Background())
	}()
	// Freeze limiter time so refill cannot mask a spent token.
	frozen := time.Unix(1000, 0)
	m.limiter.now = func() time.Time { return frozen }

	tokens := func(client string) (float64, bool) {
		m.limiter.mu.Lock()
		defer m.limiter.mu.Unlock()
		b, ok := m.limiter.buckets[client]
		if !ok {
			return 0, false
		}
		return b.tokens, true
	}

	// The victim charges one token on a legitimate accept...
	victim, err := m.Submit("victim", JobRequest{Experiment: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(5 * time.Second)
	for victim.State() != StateRunning {
		if time.Now().After(deadline) {
			t.Fatalf("victim job never started (state %s)", victim.State())
		}
		time.Sleep(time.Millisecond)
	}
	if got, ok := tokens("victim"); !ok || got != 4 {
		t.Fatalf("victim bucket after accept = %v (present %v), want 4 tokens", got, ok)
	}
	// ...a filler tops off the queue...
	if _, err := m.Submit("filler", JobRequest{Experiment: "e1"}); err != nil {
		t.Fatal(err)
	}
	// ...and the queue-full shed leaves the victim's bucket exactly
	// where it was.
	_, err = m.Submit("victim", JobRequest{Experiment: "e1"})
	oe, ok := err.(*OverloadError)
	if !ok || oe.Reason != "queue full" {
		t.Fatalf("want queue-full overload error, got %v", err)
	}
	if got, ok := tokens("victim"); !ok || got != 4 {
		t.Fatalf("queue-full shed moved the victim bucket to %v (present %v), want 4 tokens", got, ok)
	}
	// A client never admitted gets no bucket at all from a shed.
	if _, err := m.Submit("stranger", JobRequest{Experiment: "e1"}); err == nil {
		t.Fatal("queue-full submission unexpectedly accepted")
	}
	if _, ok := tokens("stranger"); ok {
		t.Fatal("queue-full shed minted a bucket for a never-admitted client")
	}

	// Draining sheds likewise never reach the limiter.
	m.mu.Lock()
	m.draining = true
	m.mu.Unlock()
	if _, err := m.Submit("victim", JobRequest{Experiment: "e1"}); err != ErrDraining {
		t.Fatalf("draining submit: want ErrDraining, got %v", err)
	}
	if got, ok := tokens("victim"); !ok || got != 4 {
		t.Fatalf("draining shed moved the victim bucket to %v (present %v), want 4 tokens", got, ok)
	}
	m.mu.Lock()
	m.draining = false
	m.mu.Unlock()
}

// TestJobsSortedNewestFirst pins Manager.Jobs ordering after the
// bubble-sort replacement: newest submission first, id as tie-break,
// bounded by max.
func TestJobsSortedNewestFirst(t *testing.T) {
	m := NewManager(Config{Sessions: 1, RatePerSec: -1, Run: fakeRun(0)})
	defer m.Drain(context.Background())
	base := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	m.mu.Lock()
	for i := 1; i <= 6; i++ {
		id := fmt.Sprintf("job-%d", i)
		// Pairs share a submit time to exercise the id tie-break.
		m.jobs[id] = replayedJob(JobRecord{
			ID: id, State: StateDone,
			Submitted: base.Add(time.Duration(i/2) * time.Minute),
		})
	}
	m.mu.Unlock()
	views := m.Jobs(0)
	if len(views) != 6 {
		t.Fatalf("Jobs returned %d views, want 6", len(views))
	}
	for i := 1; i < len(views); i++ {
		prev, cur := views[i-1], views[i]
		if cur.Submitted.After(prev.Submitted) {
			t.Fatalf("views[%d] %s newer than views[%d] %s", i, cur.ID, i-1, prev.ID)
		}
		if cur.Submitted.Equal(prev.Submitted) && cur.ID > prev.ID {
			t.Fatalf("tie at %v not broken by id desc: %s before %s", cur.Submitted, prev.ID, cur.ID)
		}
	}
	if got := m.Jobs(2); len(got) != 2 || got[0].ID != "job-6" {
		t.Fatalf("Jobs(2) = %+v, want the 2 newest led by job-6", got)
	}
}

// slowHandler makes every log record take a while. The manager logs
// between a job's steps, so a slow log widens the gaps between them and
// makes an ordering fault show on every run instead of now and then.
type slowHandler struct{}

func (slowHandler) Enabled(context.Context, slog.Level) bool { return true }
func (slowHandler) Handle(context.Context, slog.Record) error {
	time.Sleep(200 * time.Microsecond)
	return nil
}
func (h slowHandler) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h slowHandler) WithGroup(string) slog.Handler      { return h }

// TestTerminalRecordJournaledBeforeDone requires a job's terminal record
// to be in the store by the time Done fires, on every terminal path:
// done, failed, cancelled while queued and cancelled while running. A
// record journaled after Done raced the retention sweep: a sweep in
// that window forgot the job, and the late append brought it back.
func TestTerminalRecordJournaledBeforeDone(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	defer st.Close()
	stored := func(id string) (state JobState) {
		data, err := os.ReadFile(filepath.Join(dir, storeJournal))
		if err != nil {
			t.Fatal(err)
		}
		// Complete lines only: a session may be mid-append.
		for _, line := range bytes.SplitAfter(data, []byte("\n")) {
			var rec JobRecord
			if bytes.HasSuffix(line, []byte("\n")) && json.Unmarshal(line, &rec) == nil && rec.ID == id {
				state = rec.State
			}
		}
		return state
	}
	check := func(job *Job, want JobState) {
		t.Helper()
		waitTerminal(t, job)
		if got := stored(job.ID); got != want {
			t.Fatalf("%s: store holds state %q when Done fires, want %q", job.ID, got, want)
		}
	}

	slow := slog.New(slowHandler{})
	m := NewManager(Config{
		Sessions: 2, QueueDepth: 64, RatePerSec: -1, Store: st, Logger: slow,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			if req.Horizon%2 == 1 {
				return "", fmt.Errorf("odd horizon %d", req.Horizon)
			}
			return "ok\n", nil
		},
	})
	for i := range 50 {
		job, err := m.Submit("c1", JobRequest{Experiment: "e1", Horizon: uint64(i)})
		if err != nil {
			t.Fatal(err)
		}
		want := StateDone
		if i%2 == 1 {
			want = StateFailed
		}
		check(job, want)
	}
	if err := m.Drain(context.Background()); err != nil {
		t.Fatal(err)
	}

	// One session, held by a job that runs until cancelled, so the next
	// job stays queued.
	m = NewManager(Config{
		Sessions: 1, QueueDepth: 4, RatePerSec: -1, Store: st, Logger: slow,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			<-ctx.Done()
			return "", context.Cause(ctx)
		},
	})
	defer m.Drain(context.Background())
	running, err := m.Submit("c1", JobRequest{Experiment: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	for running.State() != StateRunning {
		time.Sleep(time.Millisecond)
	}
	queued, err := m.Submit("c1", JobRequest{Experiment: "e1"})
	if err != nil {
		t.Fatal(err)
	}
	for _, job := range []*Job{queued, running} {
		if _, err := m.Cancel(job.ID); err != nil {
			t.Fatal(err)
		}
		check(job, StateCancelled)
	}
}

// TestTerminalPathsRemoveCheckpoint requires every terminal path to
// delete the job's checkpoint file: a run that ends done, failed or
// cancelled, a queued job a client cancels, and a queued job a hard
// shutdown cancels. The queued jobs get a checkpoint file up front, as
// a resumed orphan has one from its previous life.
func TestTerminalPathsRemoveCheckpoint(t *testing.T) {
	st := openTestStore(t, t.TempDir())
	defer st.Close()
	m := NewManager(Config{
		Sessions: 1, QueueDepth: 8, RatePerSec: -1, Store: st,
		Run: func(ctx context.Context, req JobRequest) (string, error) {
			if harness.RunFrom(ctx).Checkpoint == nil {
				return "", errors.New("run has no checkpoint")
			}
			switch req.Horizon {
			case 1:
				return "", errors.New("injected failure")
			case 2:
				<-ctx.Done()
				return "", context.Cause(ctx)
			}
			return "ok\n", nil
		},
	})
	submit := func(horizon uint64) *Job {
		t.Helper()
		job, err := m.Submit("c1", JobRequest{Experiment: "e1", Horizon: horizon})
		if err != nil {
			t.Fatal(err)
		}
		return job
	}
	exists := func(job *Job) bool {
		_, err := os.Stat(st.CheckpointPath(job.ID))
		return err == nil
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		deadline := time.Now().Add(5 * time.Second)
		for !cond() {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
			time.Sleep(time.Millisecond)
		}
	}
	removed := func(job *Job, want JobState) {
		t.Helper()
		if v := waitTerminal(t, job); v.State != want {
			t.Fatalf("%s ended %s (%s), want %s", job.ID, v.State, v.Error, want)
		}
		waitFor(job.ID+"'s checkpoint removal", func() bool { return !exists(job) })
	}
	touch := func(job *Job) {
		t.Helper()
		if err := os.WriteFile(st.CheckpointPath(job.ID), nil, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	removed(submit(0), StateDone)
	removed(submit(1), StateFailed)

	running := submit(2)
	waitFor("a running job's checkpoint", func() bool { return exists(running) })
	if _, err := m.Cancel(running.ID); err != nil {
		t.Fatal(err)
	}
	removed(running, StateCancelled)

	// holder keeps the one session busy, so the next jobs stay queued.
	holder := submit(2)
	waitFor("the holder's checkpoint", func() bool { return exists(holder) })
	queued := submit(0)
	touch(queued)
	if _, err := m.Cancel(queued.ID); err != nil {
		t.Fatal(err)
	}
	removed(queued, StateCancelled)

	leftover := submit(0)
	touch(leftover)
	expired, cancel := context.WithCancel(context.Background())
	cancel()
	m.Drain(expired)
	removed(holder, StateCancelled)
	removed(leftover, StateCancelled)
	if v := leftover.View(); v.Error != errShutdown.Error() {
		t.Fatalf("queued job ended with %q, want the shutdown cause", v.Error)
	}
}
