package cluster

import (
	"context"
	"slices"
	"sort"
	"sync"
	"time"
)

// maxSlots caps the credits one worker may advertise. A registration
// claiming more is rejected: no worker has that many cores, and the
// dispatcher's connection pool keeps up to this many idle connections
// per worker.
const maxSlots = 1024

// ticket orders the batches waiting for a worker's credit: first by job,
// in the order ForJob handed out their delegates, then by batch, in the
// order their rounds queued them. A retry keeps its batch's ticket, and
// a hedge leg carries its batch's ticket to the second worker.
type ticket struct{ job, batch uint64 }

func (t ticket) before(u ticket) bool {
	return t.job < u.job || (t.job == u.job && t.batch < u.batch)
}

// credits gates batch RPCs per worker. A worker holds as many credits as
// it advertised cores (Worker.Slots); a batch RPC holds one from send to
// reply. A batch that finds none free waits here, at the coordinator,
// and each freed credit goes to the oldest ticket waiting on that
// worker. Waking is explicit, not left to the order in which the
// runtime wakes blocked goroutines.
type credits struct {
	mu      sync.Mutex
	workers map[string]*creditLine
	// queued and waited are lifetime totals over the batches that had
	// to wait: how many, and for how long.
	queued int64
	waited time.Duration
}

// creditLine is one worker's credit state. A line with nothing held and
// nothing waiting is deleted, so the map holds only busy workers.
type creditLine struct {
	slots    int // the worker's credits, as of the latest batch for it
	inflight int // credits held
	waiting  []*waiter
}

// waiter is one batch waiting for a credit. ready is closed when the
// credit is handed over; granted says so under credits.mu.
type waiter struct {
	t       ticket
	ready   chan struct{}
	granted bool
}

func newCredits() *credits {
	return &credits{workers: make(map[string]*creditLine)}
}

// take claims a credit on w if one is free and no batch waits for it.
func (c *credits) take(w Worker) bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.line(w)
	if l.inflight < l.slots && len(l.waiting) == 0 {
		l.inflight++
		return true
	}
	return false
}

// wait queues a batch holding ticket t for a credit on w and blocks
// until the credit is handed over (nil) or ctx ends (ctx's error, with
// no credit held).
func (c *credits) wait(ctx context.Context, w Worker, t ticket) error {
	start := time.Now()
	c.mu.Lock()
	l := c.line(w)
	wt := &waiter{t: t, ready: make(chan struct{})}
	at := sort.Search(len(l.waiting), func(i int) bool { return t.before(l.waiting[i].t) })
	l.waiting = slices.Insert(l.waiting, at, wt)
	l.grant() // a credit may have freed since take
	c.mu.Unlock()

	var err error
	select {
	case <-wt.ready:
	case <-ctx.Done():
		err = ctx.Err()
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.queued++
	c.waited += time.Since(start)
	if err == nil {
		return nil
	}
	if wt.granted {
		// The credit arrived as ctx ended: pass it on.
		l.inflight--
		l.grant()
	} else {
		i := slices.Index(l.waiting, wt)
		l.waiting = slices.Delete(l.waiting, i, i+1)
	}
	c.drop(w.Name, l)
	return err
}

// release returns a credit taken on the named worker.
func (c *credits) release(name string) {
	c.mu.Lock()
	defer c.mu.Unlock()
	l := c.workers[name]
	l.inflight--
	l.grant()
	c.drop(name, l)
}

// load reports the credits held on and the batches waiting for one
// worker.
func (c *credits) load(name string) (inflight, queued int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if l, ok := c.workers[name]; ok {
		return l.inflight, len(l.waiting)
	}
	return 0, 0
}

// totals reports how many batches have waited for a credit, and their
// total wait.
func (c *credits) totals() (queued int64, waited time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.queued, c.waited
}

// line returns w's credit line, creating it, and takes w's current
// credit count: a worker re-registering with more cores, or a probe
// closing its breaker, frees credits for the next batch. Caller holds
// c.mu.
func (c *credits) line(w Worker) *creditLine {
	l := c.workers[w.Name]
	if l == nil {
		l = &creditLine{}
		c.workers[w.Name] = l
	}
	l.slots = max(w.Slots, 1)
	return l
}

// drop deletes an idle line. Caller holds c.mu.
func (c *credits) drop(name string, l *creditLine) {
	if l.inflight == 0 && len(l.waiting) == 0 {
		delete(c.workers, name)
	}
}

// grant hands free credits to the oldest waiters. Caller holds c.mu.
func (l *creditLine) grant() {
	for l.inflight < l.slots && len(l.waiting) > 0 {
		wt := l.waiting[0]
		l.waiting = slices.Delete(l.waiting, 0, 1)
		l.inflight++
		wt.granted = true
		close(wt.ready)
	}
}
