package serve

import (
	"context"
	"fmt"
	"sync"
	"time"

	"hammertime/internal/telemetry"
)

// JobState is a job's position in its lifecycle.
type JobState string

const (
	// StateQueued: accepted, waiting for a session.
	StateQueued JobState = "queued"
	// StateRunning: a session is simulating it.
	StateRunning JobState = "running"
	// StateDone: finished; the result table is available.
	StateDone JobState = "done"
	// StateFailed: the run errored or its session panicked.
	StateFailed JobState = "failed"
	// StateCancelled: torn down by a client cancel, the job deadline, or
	// daemon shutdown, via the same cooperative cancellation path the
	// harness uses (core.ErrCancelled).
	StateCancelled JobState = "cancelled"
)

// Terminal reports whether the state is final.
func (s JobState) Terminal() bool {
	return s == StateDone || s == StateFailed || s == StateCancelled
}

// JobRequest is the client's submission: which experiment to run and how
// far. It is the unit of admission control — everything here is
// validated before the job is queued.
type JobRequest struct {
	// Experiment is the experiment id (e1..e10).
	Experiment string `json:"experiment"`
	// Horizon is the simulation horizon in cycles (0 = experiment default).
	Horizon uint64 `json:"horizon,omitempty"`
	// Timeout overrides the daemon's per-job deadline for this job
	// (capped at the daemon's; 0 = daemon default).
	Timeout Duration `json:"timeout,omitempty"`
	// Events, when non-empty, streams simulator events over the job's
	// SSE stream (GET /v1/jobs/{id}/events): a comma-separated list of
	// obs kind names ("bit-flip,trr-cure"), or "all". Off by default —
	// attaching a recorder disables the simulator's unobserved
	// fast-forward path, so raw event streaming is strictly opt-in.
	// Progress and cell-completion records stream regardless.
	Events string `json:"events,omitempty"`
}

// Duration is a time.Duration that marshals as a Go duration string
// ("30s") instead of nanoseconds, so curl requests stay writable.
type Duration time.Duration

// MarshalJSON renders the duration as a quoted Go duration string.
func (d Duration) MarshalJSON() ([]byte, error) {
	return []byte(fmt.Sprintf("%q", time.Duration(d).String())), nil
}

// UnmarshalJSON accepts either a quoted Go duration string or a number
// of nanoseconds.
func (d *Duration) UnmarshalJSON(b []byte) error {
	s := string(b)
	if len(s) >= 2 && s[0] == '"' && s[len(s)-1] == '"' {
		parsed, err := time.ParseDuration(s[1 : len(s)-1])
		if err != nil {
			return fmt.Errorf("serve: bad duration %s: %w", s, err)
		}
		*d = Duration(parsed)
		return nil
	}
	var ns int64
	if _, err := fmt.Sscan(s, &ns); err != nil {
		return fmt.Errorf("serve: bad duration %s", s)
	}
	*d = Duration(ns)
	return nil
}

// Job is one submitted simulation. All mutable fields are guarded by mu;
// JobView is the lock-free snapshot handed to the HTTP layer.
type Job struct {
	ID      string
	Client  string
	Request JobRequest
	// Restarts counts daemon restarts this job survived: 0 for a job
	// accepted by the current process, +1 each time a crash-restarted
	// daemon found it non-terminal in the store and resubmitted it.
	// Immutable after construction.
	Restarts int

	mu        sync.Mutex
	state     JobState
	submitted time.Time
	started   time.Time
	finished  time.Time
	table     string // rendered result table (StateDone)
	errMsg    string // failure/cancellation cause (terminal non-done states)

	// cancel tears down the job: pre-run it marks the job cancelled
	// directly, mid-run it cancels the session's context and the
	// simulation unwinds cooperatively. Set at submission.
	cancel context.CancelCauseFunc
	// runCtx is the job's context (derived from the manager's base
	// context at submission); the session threads it into the harness.
	runCtx context.Context

	done chan struct{} // closed on any terminal transition
	// store journals the job's snapshots: nil without a persistent
	// store, and for jobs replayed from it, which never change again.
	store *Store

	// scope is the job's telemetry: its tracer (one trace per job), the
	// hub its SSE subscribers attach to, and — only when the request
	// opted in via Events — the obs recorder streaming simulator events.
	// Immutable after submission.
	scope *telemetry.Scope
	// traceID is the persisted trace id of a job replayed from the store
	// in a terminal state: such a job has no live tracer (its spans died
	// with the previous process), but status responses still report the
	// id so externally exported traces remain correlatable. Live jobs
	// leave it empty and answer from the scope's tracer.
	traceID string
	// Lifecycle spans: job covers submit→terminal, queued covers the
	// queue wait, run covers the session's execution. Ended by the
	// manager at the matching transitions; Span.End is first-wins, so
	// the belt-and-braces endSpans on terminal transitions is safe.
	jobSpan, queuedSpan, runSpan *telemetry.Span
}

// TraceID returns the job's telemetry trace id: the live tracer's for a
// job of this process, the persisted one for a terminal job replayed
// from the store ("" when neither exists).
func (j *Job) TraceID() string {
	if j.scope == nil || j.scope.Tracer == nil {
		return j.traceID
	}
	return j.scope.Tracer.ID().String()
}

// endSpans closes any still-open lifecycle spans (End keeps the first
// end, so spans already closed at their proper transition are not
// moved) and freezes the finished trace into its compact encoding, which
// the job keeps for as long as it is retained. Called on terminal
// transitions so a cancelled-while-queued job doesn't leak open spans
// into its trace. Spans that start or arrive later (a losing hedged
// batch's import) stay live after the frozen ones.
func (j *Job) endSpans(err error) {
	j.runSpan.EndErr(err)
	j.queuedSpan.End()
	j.jobSpan.EndErr(err)
	if j.scope != nil {
		j.scope.Tracer.Freeze()
	}
}

// JobView is an immutable snapshot of a job for status responses.
type JobView struct {
	ID         string     `json:"id"`
	Experiment string     `json:"experiment"`
	Horizon    uint64     `json:"horizon,omitempty"`
	State      JobState   `json:"state"`
	Submitted  time.Time  `json:"submitted"`
	Started    *time.Time `json:"started,omitempty"`
	Finished   *time.Time `json:"finished,omitempty"`
	Error      string     `json:"error,omitempty"`
	// TraceID is the job's telemetry trace id; fetch the trace at
	// GET /v1/jobs/{id}/trace and match spans by this id.
	TraceID string `json:"trace_id,omitempty"`
	// Restarts is how many daemon restarts the job survived: a job that
	// was resumed from the persistent store after a crash reports >= 1,
	// so a client polling across the restart can tell its job was
	// recovered rather than re-run from scratch.
	Restarts int `json:"restarts,omitempty"`
}

// View snapshots the job under its lock.
func (j *Job) View() JobView {
	j.mu.Lock()
	defer j.mu.Unlock()
	v := JobView{
		ID:         j.ID,
		Experiment: j.Request.Experiment,
		Horizon:    j.Request.Horizon,
		State:      j.state,
		Submitted:  j.submitted,
		Error:      j.errMsg,
		TraceID:    j.TraceID(),
		Restarts:   j.Restarts,
	}
	if !j.started.IsZero() {
		t := j.started
		v.Started = &t
	}
	if !j.finished.IsZero() {
		t := j.finished
		v.Finished = &t
	}
	return v
}

// State returns the job's current state.
func (j *Job) State() JobState {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.state
}

// Result returns the rendered table, or false until the job is done.
func (j *Job) Result() (string, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.table, j.state == StateDone
}

// Done is closed when the job reaches a terminal state.
func (j *Job) Done() <-chan struct{} { return j.done }

// transition moves the job to state under its lock; terminal
// transitions are idempotent and first-wins (a job cancelled while its
// session is finishing stays cancelled). Reports whether the
// transition applied.
func (j *Job) transition(state JobState, errMsg string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.state = state
	j.errMsg = errMsg
	switch state {
	case StateRunning:
		j.started = time.Now()
	case StateDone, StateFailed, StateCancelled:
		j.finishLocked()
	}
	return true
}

// finishLocked completes a terminal transition: it stamps the finish
// time and journals the terminal record before closing done. Both
// happen under j.mu, so by the time anyone sees Done fire, or sees the
// terminal state at all (the retention sweep included), the journal
// holds the record. Caller holds j.mu.
func (j *Job) finishLocked() {
	j.finished = time.Now()
	j.journalLocked()
	close(j.done)
}

// persist journals the job's current snapshot. A terminal job's record
// was journaled by the transition that ended it, so persist is then a
// no-op: an append after the retention sweep evicted the job would
// bring it back at the next start.
func (j *Job) persist() {
	j.mu.Lock()
	defer j.mu.Unlock()
	if !j.state.Terminal() {
		j.journalLocked()
	}
}

// journalLocked appends the job's snapshot to its store, if it has one.
// The snapshot is complete — the journal's last-record-wins replay
// depends on every append carrying the whole job, not a delta. Caller
// holds j.mu.
func (j *Job) journalLocked() {
	if j.store == nil {
		return
	}
	j.store.Append(JobRecord{
		ID:        j.ID,
		Client:    j.Client,
		Request:   j.Request,
		State:     j.state,
		TraceID:   j.TraceID(),
		Restarts:  j.Restarts,
		Submitted: j.submitted,
		Started:   j.started,
		Finished:  j.finished,
		Table:     j.table,
		Error:     j.errMsg,
	})
}

// replayedJob rebuilds a terminal job from its journaled record: an
// inert registry entry — result table, error, timestamps, persisted
// trace id — with no contexts, spans or hub (its run died with the
// process that executed it). GET /v1/jobs/{id} and /result serve it
// exactly as if the daemon had never restarted.
func replayedJob(rec JobRecord) *Job {
	j := &Job{
		ID:       rec.ID,
		Client:   rec.Client,
		Request:  rec.Request,
		Restarts: rec.Restarts,
		state:    rec.State,
		traceID:  rec.TraceID,

		submitted: rec.Submitted,
		started:   rec.Started,
		finished:  rec.Finished,
		table:     rec.Table,
		errMsg:    rec.Error,
		cancel:    func(error) {},
		done:      make(chan struct{}),
	}
	close(j.done)
	return j
}

// setResult records the rendered table and marks the job done.
func (j *Job) setResult(table string) bool {
	j.mu.Lock()
	defer j.mu.Unlock()
	if j.state.Terminal() {
		return false
	}
	j.table = table
	j.state = StateDone
	j.finishLocked()
	return true
}
