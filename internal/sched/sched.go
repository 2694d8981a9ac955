// Package sched is the process-level bounded worker pool behind
// collection query fan-out: one job per member document. Every
// collection in the process draws helpers from the same pool, so
// concurrent fan-outs cannot grow the goroutine count past what the
// largest collection asked for. A single query always evaluates on the
// goroutine that runs its job; the pool only spreads documents.
//
// The core primitive is ParallelFor, a caller-helping parallel loop:
// the submitting goroutine always participates in executing its own
// items, and pool workers join only as capacity frees up. Two
// properties follow:
//
//   - No deadlock under nesting. An item running on a pool worker may
//     itself submit a loop; even when every other worker is busy, the
//     submitter drives its own items to completion, so progress never
//     depends on pool capacity.
//   - The pool bounds the EXTRA parallelism only. A ParallelFor from
//     an application goroutine uses that goroutine plus at most
//     (par-1) helpers, so total concurrency stays within what the
//     caller and the pool size together allow.
package sched

import (
	"runtime"
	"sync"
	"sync/atomic"
)

// task is one ParallelFor invocation: a work-stealing counter over n
// items. Tickets enqueued on the pool all point at the same task;
// each claims items until the counter runs out, so late tickets
// (popped after the loop finished) cost one atomic load.
type task struct {
	n         int64
	f         func(i, slot int)
	next      atomic.Int64
	completed atomic.Int64
	slots     atomic.Int64
	done      chan struct{}
}

// run claims and executes items until none remain. slot identifies
// the participating goroutine (0 = submitter, 1.. = helpers) so
// callers can keep per-participant scratch state without locking.
func (t *task) run(slot int) {
	for {
		i := t.next.Add(1) - 1
		if i >= t.n {
			return
		}
		t.f(int(i), slot)
		if t.completed.Add(1) == t.n {
			close(t.done)
		}
	}
}

// Pool is a fixed set of worker goroutines serving tickets from one
// FIFO queue. The zero value is not usable; construct with New. A nil
// *Pool is valid everywhere and means "no helpers": every ParallelFor
// runs serially on the caller.
type Pool struct {
	mu      sync.Mutex
	cond    *sync.Cond
	workers int
	queue   []*task
	busy    atomic.Int64
}

// New creates a pool with n parked worker goroutines (n < 1 is
// clamped to 1). Workers are cheap when idle; they exist for the
// process lifetime.
func New(n int) *Pool {
	if n < 1 {
		n = 1
	}
	p := &Pool{}
	p.cond = sync.NewCond(&p.mu)
	p.Ensure(n)
	return p
}

// Ensure grows the pool to at least n workers; it never shrinks.
// Growing is how every collection states its budget — the pool ends up
// sized max(all requests), the shared ceiling.
func (p *Pool) Ensure(n int) {
	if p == nil {
		return
	}
	p.mu.Lock()
	for p.workers < n {
		p.workers++
		go p.worker()
	}
	p.mu.Unlock()
}

// Workers returns the current worker count.
func (p *Pool) Workers() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return p.workers
}

// Busy returns how many pool workers are currently executing items
// (the submitter's own participation is not counted — it is the
// caller's goroutine, not pool capacity).
func (p *Pool) Busy() int64 {
	if p == nil {
		return 0
	}
	return p.busy.Load()
}

// Queued returns the number of not-yet-claimed helper tickets.
func (p *Pool) Queued() int {
	if p == nil {
		return 0
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	return len(p.queue)
}

func (p *Pool) worker() {
	p.mu.Lock()
	for {
		if len(p.queue) == 0 {
			p.cond.Wait()
			continue
		}
		t := p.queue[0]
		n := copy(p.queue, p.queue[1:])
		p.queue[n] = nil // the backing array must not keep a finished loop's closure alive
		p.queue = p.queue[:n]
		p.mu.Unlock()
		if t.next.Load() < t.n { // skip tickets of already-finished loops
			slot := int(t.slots.Add(1))
			p.busy.Add(1)
			t.run(slot)
			p.busy.Add(-1)
		}
		p.mu.Lock()
	}
}

// ParallelFor runs f(i, slot) for every i in [0, n), on the calling
// goroutine plus at most par-1 pool helpers. slot ∈ [0, par) is
// stable per participating goroutine for the duration of the loop
// (the caller is always slot 0), so f can index per-participant
// scratch state race-free. ParallelFor returns when every item has
// completed. f must not panic; cancellation is the caller's concern
// (have f consult a context and make the remaining items cheap).
//
// With par <= 1, n <= 1 or a nil pool the loop degenerates to a plain
// serial for-loop on the caller, with zero scheduling overhead.
func (p *Pool) ParallelFor(n, par int, f func(i, slot int)) {
	if n <= 0 {
		return
	}
	if p == nil || par <= 1 || n == 1 {
		for i := 0; i < n; i++ {
			f(i, 0)
		}
		return
	}
	helpers := par - 1
	if helpers > n-1 {
		helpers = n - 1
	}
	t := &task{n: int64(n), f: f, done: make(chan struct{})}
	p.mu.Lock()
	if helpers > p.workers {
		helpers = p.workers
	}
	for i := 0; i < helpers; i++ {
		p.queue = append(p.queue, t)
	}
	p.mu.Unlock()
	if helpers == 1 {
		p.cond.Signal()
	} else {
		p.cond.Broadcast()
	}
	t.run(0)
	<-t.done
	// Drop any helper tickets no worker claimed: the loop is already
	// complete, so they would only be popped and discarded later, and
	// until then they inflate Queued and wake workers for nothing.
	p.mu.Lock()
	q := p.queue
	w := 0
	for _, qt := range q {
		if qt != t {
			q[w] = qt
			w++
		}
	}
	for i := w; i < len(q); i++ {
		q[i] = nil
	}
	p.queue = q[:w]
	p.mu.Unlock()
}

var (
	defaultMu   sync.Mutex
	defaultPool *Pool
)

// Default returns the process-wide shared pool, created on first use
// with GOMAXPROCS workers.
func Default() *Pool {
	defaultMu.Lock()
	defer defaultMu.Unlock()
	if defaultPool == nil {
		defaultPool = New(runtime.GOMAXPROCS(0))
	}
	return defaultPool
}
