package cluster

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"

	"hammertime/internal/telemetry"
)

// maxSlots caps the credits one worker may advertise. A registration
// claiming more is rejected: no worker has that many cores.
const maxSlots = 1024

// maxAttempts caps how often one cell enters the dispatch queue. A cell
// whose batches keep failing, being rejected or being purged fails its
// grid on the next return instead of cycling forever.
const maxAttempts = 8

// ticket orders the waiting batches: first by job, in the order ForJob
// handed out their delegates, then by batch, in the order the job
// queued them.
type ticket struct{ job, batch uint64 }

func (t ticket) before(u ticket) bool {
	return t.job < u.job || (t.job == u.job && t.batch < u.batch)
}

// batch is one group of a grid's cells, waiting in the queue or on the
// wire. Its fields are guarded by queue.mu.
type batch struct {
	g     *gridRun
	t     ticket
	cells []int
	// queuedAt is when the batch entered the queue; span, when it found
	// no free credit there, times its wait.
	queuedAt time.Time
	span     *telemetry.Span
	// Set when a credit takes the batch. ctx is every leg's context and
	// is cancelled once the batch resolves, which ends a losing leg.
	ctx     context.Context
	cancel  context.CancelFunc
	primary Worker // the worker of the first leg
	sentAt  time.Time
	legs    int  // legs on the wire
	hedged  bool // a backup leg has been sent and not preempted
	// backup is the context of the backup leg not preempted, and
	// stopBackup cancels that leg alone.
	backup     context.Context
	stopBackup context.CancelFunc
	done       bool // the batch's outcome went to its grid
}

// queue is the dispatcher's one queue of batches. A worker holds as many
// credits as it advertised cores (Worker.Slots), and a leg holds one of
// its worker's credits from send to reply. Whenever a credit is free on
// any live worker, it takes the oldest waiting batch, across every job;
// the batch is bound to that worker only then. When nothing waits, an
// idle credit takes a backup copy of the oldest batch that has been on
// the wire on another worker for longer than HedgeDelay, and gives it up
// again as soon as a batch waits. With the audit on, only a worker that
// has passed it has its batches backed up: one whose every leg lost a
// race would never be audited.
type queue struct {
	mu         sync.Mutex
	waiting    []*batch // in ticket order
	flying     []*batch // unresolved batches on the wire, in send order
	held       map[string]int
	preempting int         // backup legs stopped but not yet returned
	timer      *time.Timer // wakes pump when the next backup falls due
	// queued and waited are lifetime totals over the batches that had
	// to wait: how many, and for how long.
	queued int64
	waited time.Duration
}

// enqueue adds batches in ticket order and hands out the free credits.
// A batch that finds none records its wait as a queue span.
func (d *Dispatcher) enqueue(bs []*batch) {
	q := &d.queue
	q.mu.Lock()
	defer q.mu.Unlock()
	now := time.Now()
	for _, b := range bs {
		b.queuedAt = now
		at := sort.Search(len(q.waiting), func(i int) bool { return b.t.before(q.waiting[i].t) })
		q.waiting = slices.Insert(q.waiting, at, b)
	}
	d.pumpLocked()
	for _, b := range bs {
		if b.ctx == nil && !b.done {
			_, b.span = telemetry.StartSpan(b.g.ctx, "queue")
			b.span.SetAttrs(telemetry.Int("cells", int64(len(b.cells))))
		}
	}
}

// abandon drops the grid's waiting batches. Its batches on the wire end
// with the grid's context.
func (d *Dispatcher) abandon(g *gridRun) {
	q := &d.queue
	q.mu.Lock()
	defer q.mu.Unlock()
	now := time.Now()
	q.waiting = slices.DeleteFunc(q.waiting, func(b *batch) bool {
		if b.g != g {
			return false
		}
		q.leave(b, now, "")
		return true
	})
}

// pump takes the queue's lock and hands out the free credits.
func (d *Dispatcher) pump() {
	d.queue.mu.Lock()
	defer d.queue.mu.Unlock()
	d.pumpLocked()
}

// pumpLocked hands each free credit, freest worker first, the oldest
// waiting batch, preempting backup legs for the batches no credit is
// free for. With nothing left waiting, it sends backup copies of
// batches that outlived HedgeDelay on the wire, and arms the timer for
// the next one. With no worker live, the waiting batches go back to
// their grids to be computed locally. Caller holds q.mu.
func (d *Dispatcher) pumpLocked() {
	q := &d.queue
	if len(q.waiting) == 0 && len(q.flying) == 0 {
		if q.timer != nil {
			q.timer.Stop()
		}
		return
	}
	live := d.reg.Live()
	now := time.Now()
	if len(live) == 0 {
		for _, b := range q.waiting {
			q.leave(b, now, "")
			b.done = true
			b.g.out <- batchOutcome{cells: b.cells, local: true}
		}
		q.waiting = slices.Delete(q.waiting, 0, len(q.waiting))
		return
	}
	for len(q.waiting) > 0 {
		w, ok := q.freest(live, "", true)
		if !ok {
			q.preempt()
			return
		}
		b := q.waiting[0]
		q.waiting = slices.Delete(q.waiting, 0, 1)
		q.leave(b, now, w.Name)
		b.ctx, b.cancel = context.WithCancel(b.g.ctx)
		b.primary, b.sentAt = w, now
		q.flying = append(q.flying, b)
		d.count("cluster.batches.sent", 1)
		d.launch(b, w, false)
	}
	for _, b := range q.flying {
		if b.hedged || b.g.ctx.Err() != nil || d.cfg.AuditFraction > 0 && !b.primary.Audited {
			continue
		}
		w, ok := q.freest(live, b.primary.Name, false)
		if !ok {
			continue
		}
		if due := d.cfg.HedgeDelay - now.Sub(b.sentAt); due > 0 {
			// Every later batch was sent later still.
			if q.timer == nil {
				q.timer = time.AfterFunc(due, d.pump)
			} else {
				q.timer.Reset(due)
			}
			return
		}
		b.hedged = true
		d.count("cluster.batches.hedged", 1)
		d.log.Info("backing up straggler batch", "grid", b.g.st.spec.ID,
			"primary", b.primary.Name, "backup", w.Name, "cells", len(b.cells))
		d.launch(b, w, true)
	}
}

// preempt stops backup legs whose first leg is on the wire too, newest
// batch first, until a credit is on its way back for every waiting
// batch: backups only use credits that nothing waits for. A preempted
// batch may be backed up again later. Caller holds q.mu.
func (q *queue) preempt() {
	for i := len(q.flying) - 1; i >= 0 && q.preempting < len(q.waiting); i-- {
		b := q.flying[i]
		if b.backup != nil && b.legs == 2 {
			b.stopBackup()
			b.backup, b.hedged = nil, false
			b.legs--
			q.preempting++
		}
	}
}

// freest returns the live worker with the most free credits, first by
// name on a tie, skipping the named worker, and probes unless probes is
// set. Caller holds q.mu.
func (q *queue) freest(live []Worker, skip string, probes bool) (Worker, bool) {
	var best Worker
	most := 0
	for _, w := range live {
		if free := w.Slots - q.held[w.Name]; free > most && w.Name != skip && (probes || !w.Probe) {
			best, most = w, free
		}
	}
	return best, most > 0
}

// leave accounts for a batch leaving the waiting list, to worker (or
// nowhere, when worker is empty). Caller holds q.mu.
func (q *queue) leave(b *batch, now time.Time, worker string) {
	if b.span == nil {
		return
	}
	q.queued++
	q.waited += now.Sub(b.queuedAt)
	if worker != "" {
		b.span.SetAttrs(telemetry.String("worker", worker))
	}
	b.span.EndErr(b.g.ctx.Err())
}

// launch sends one leg of b to w on one of w's credits. Caller holds
// q.mu.
func (d *Dispatcher) launch(b *batch, w Worker, backup bool) {
	d.queue.held[w.Name]++
	b.legs++
	ctx := b.ctx
	if backup {
		ctx, b.stopBackup = context.WithCancel(b.ctx)
		b.backup = ctx
	}
	go d.run(ctx, b, w, backup)
}

// run runs one leg and returns its worker's credit. The first leg to
// succeed resolves the batch and cancels the other; the batch fails only
// when its last leg does. A preempted leg no longer counts among the
// batch's legs, but its reply still resolves the batch if it is first.
func (d *Dispatcher) run(ctx context.Context, b *batch, w Worker, backup bool) {
	resp, err := b.g.j.dispatchRetry(ctx, w, b.g.st.spec, b.cells)
	q := &d.queue
	q.mu.Lock()
	if q.held[w.Name]--; q.held[w.Name] == 0 {
		delete(q.held, w.Name)
	}
	preempted := backup && b.backup != ctx
	if preempted {
		q.preempting--
	} else {
		b.legs--
	}
	resolved := !b.done && (err == nil || !preempted && b.legs == 0)
	if resolved {
		b.done = true
		b.cancel()
		q.flying = slices.DeleteFunc(q.flying, func(f *batch) bool { return f == b })
		if err == nil && backup {
			d.count("cluster.hedge.wins", 1)
		}
	}
	d.pumpLocked()
	q.mu.Unlock()
	if resolved {
		b.g.out <- batchOutcome{worker: w, cells: b.cells, resp: resp, err: err}
	}
}

// inflight reports the credits held on one worker.
func (q *queue) inflight(name string) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.held[name]
}
