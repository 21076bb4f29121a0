package serve

import (
	"bufio"
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"testing"
	"time"
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
// order, and reopening compacts the file to one line per job.
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
	if got := len(journalLines(t, dir)); got != 4 {
		t.Fatalf("journal holds %d lines before compaction, want 4", got)
	}

	st2 := openTestStore(t, dir)
	defer st2.Close()
	recs := st2.Records()
	if len(recs) != 2 {
		t.Fatalf("replayed %d jobs, want 2", len(recs))
	}
	if recs[0].ID != "job-1" || recs[0].State != StateDone || recs[0].Table != "T1\n" {
		t.Fatalf("job-1 replayed as %+v, want the final done snapshot", recs[0])
	}
	if recs[1].ID != "job-2" || recs[1].State != StateQueued {
		t.Fatalf("job-2 replayed as %+v, want the queued snapshot", recs[1])
	}
	// Opening compacted the file: one line per job, journal order.
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
	if st2.Len() != 2 {
		t.Fatalf("torn journal replayed %d jobs, want 2", st2.Len())
	}
	if err := st2.Close(); err != nil {
		t.Fatal(err)
	}
	// Compaction dropped the fragment from disk.
	if lines := journalLines(t, dir); len(lines) != 2 {
		t.Fatalf("compacted torn journal holds %d lines, want 2", len(lines))
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
	if st3.Len() != 2 {
		t.Fatalf("corrupt journal replayed %d jobs, want 2 (job-9 postdates the corruption)", st3.Len())
	}
}

// TestStoreForgetCompactsAway pins that Forget + Compact shrink the
// journal on disk — the path the manager's retention eviction uses.
func TestStoreForgetCompactsAway(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	st.Append(JobRecord{ID: "job-1", State: StateDone})
	st.Append(JobRecord{ID: "job-2", State: StateDone})
	st.Forget("job-1")
	if err := st.Compact(); err != nil {
		t.Fatal(err)
	}
	// The store stays appendable after an in-place compaction.
	st.Append(JobRecord{ID: "job-3", State: StateQueued})
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	st2 := openTestStore(t, dir)
	defer st2.Close()
	recs := st2.Records()
	if len(recs) != 2 || recs[0].ID != "job-2" || recs[1].ID != "job-3" {
		t.Fatalf("after forget+compact journal replays %+v, want job-2 and job-3", recs)
	}
}

// TestStoreCompactFailureKeepsAppending forces Compact to fail (a
// directory sits where its temp file goes) and checks the store does
// not then drop appends silently: the next record reaches the journal.
func TestStoreCompactFailureKeepsAppending(t *testing.T) {
	dir := t.TempDir()
	st := openTestStore(t, dir)
	defer st.Close()
	st.Append(JobRecord{ID: "job-1", State: StateDone})
	if err := os.Mkdir(filepath.Join(dir, storeJournal+".tmp"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := st.Compact(); err == nil {
		t.Fatal("compaction over a directory at the temp path succeeded")
	}
	st.Append(JobRecord{ID: "job-2", State: StateQueued})
	if err := st.Err(); err != nil {
		t.Fatalf("append after failed compaction: %v", err)
	}
	recs := journalLines(t, dir)
	if len(recs) != 2 || recs[0].ID != "job-1" || recs[1].ID != "job-2" {
		t.Fatalf("journal holds %+v after failed compaction, want job-1 and job-2", recs)
	}
}

// TestApplyRetention pins the load-time retention filter: terminal
// records age out or fall off the count bound, non-terminal records
// always survive.
func TestApplyRetention(t *testing.T) {
	now := time.Date(2026, 8, 7, 12, 0, 0, 0, time.UTC)
	recs := []JobRecord{
		{ID: "old", State: StateDone, Finished: now.Add(-2 * time.Hour)},
		{ID: "orphan", State: StateRunning},
		{ID: "mid", State: StateFailed, Finished: now.Add(-30 * time.Minute)},
		{ID: "new", State: StateDone, Finished: now.Add(-time.Minute)},
	}
	out := applyRetention(recs, now, time.Hour, 0)
	if len(out) != 3 || out[0].ID != "orphan" || out[1].ID != "mid" || out[2].ID != "new" {
		t.Fatalf("age filter kept %+v, want orphan, mid, new", out)
	}
	out = applyRetention(recs, now, 0, 1)
	if len(out) != 2 || out[0].ID != "orphan" || out[1].ID != "new" {
		t.Fatalf("count filter kept %+v, want orphan and the newest terminal", out)
	}
	out = applyRetention(recs, now, -1, -1)
	if len(out) != 4 {
		t.Fatalf("disabled retention dropped records: %+v", out)
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
	if st.Len() != 8+1 {
		t.Fatalf("store retains %d jobs after sweep, want 9", st.Len())
	}
	if _, err := m.Get("job-1"); err == nil {
		t.Fatal("oldest job survived the count bound")
	}

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
